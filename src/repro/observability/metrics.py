"""Process-wide metrics registry: counters, gauges, histograms, collectors.

Two publication styles coexist so the six pre-existing stat mechanisms can
feed one registry *without changing their own APIs*:

**Push metrics** — hot frontends bind a labelled child once at import time
and increment it inline::

    _FORWARD = get_metrics_registry().counter(
        "fft.transforms", "FFT executions by direction"
    ).labels(direction="forward")
    ...
    _FORWARD.inc()

A bound child holds a plain float cell guarded by a lock; ``inc`` does no
dict allocation, so the cost on kernel paths is one lock round-trip.

**Pull collectors** — mechanisms that already keep their own state
(``PlanPool.stats``, the gradient-cache log)
register a zero-argument callable; :meth:`MetricsRegistry.collect`
invokes it at snapshot time and merges the returned
``{metric_name: {label_key: value}}`` mapping.  The owning object keeps
its API and its state; the registry only reads.

Label sets are modelled Prometheus-style: a metric name owns a family of
children keyed by sorted ``(key, value)`` tuples.

Stdlib-only: importable from every layer without cycles.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics_registry",
    "reset_metrics_registry",
]

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def format_label_key(key: LabelKey) -> str:
    """Render a label key as ``k1=v1,k2=v2`` (empty string for no labels)."""
    return ",".join(f"{k}={v}" for k, v in key)


class _BoundCounter:
    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class _BoundGauge:
    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class _BoundHistogram:
    __slots__ = ("_lock", "_count", "_sum", "_min", "_max")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def value(self) -> Dict[str, float]:
        with self._lock:
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._min is not None else 0.0,
                "max": self._max if self._max is not None else 0.0,
            }


class _MetricFamily:
    """Common labelled-children machinery for the three metric kinds."""

    kind = "metric"
    _child_type: type = _BoundCounter

    def __init__(self, name: str, description: str) -> None:
        self.name = name
        self.description = description
        self._lock = threading.Lock()
        self._children: Dict[LabelKey, Any] = {}

    def labels(self, **labels: Any):
        """Return the bound child for this label set (created on demand)."""
        key = _label_key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._child_type()
                self._children[key] = child
            return child

    def collect(self) -> Dict[str, Any]:
        with self._lock:
            items = list(self._children.items())
        return {format_label_key(key): child.value for key, child in items}


class Counter(_MetricFamily):
    """Monotonically increasing value per label set."""

    kind = "counter"
    _child_type = _BoundCounter

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        self.labels(**labels).inc(amount)


class Gauge(_MetricFamily):
    """Point-in-time value per label set."""

    kind = "gauge"
    _child_type = _BoundGauge

    def set(self, value: float, **labels: Any) -> None:
        self.labels(**labels).set(value)


class Histogram(_MetricFamily):
    """count/sum/min/max aggregate per label set."""

    kind = "histogram"
    _child_type = _BoundHistogram

    def observe(self, value: float, **labels: Any) -> None:
        self.labels(**labels).observe(value)


class MetricsRegistry:
    """Create-or-get metric families plus pull collectors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _MetricFamily] = {}
        self._collectors: List[Tuple[str, Callable[[], Dict[str, Any]]]] = []

    def _get_or_create(
        self, name: str, description: str, factory: type
    ) -> _MetricFamily:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory(name, description)
                self._metrics[name] = metric
            elif not isinstance(metric, factory):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"cannot re-register as {factory.kind}"
                )
            return metric

    def counter(self, name: str, description: str = "") -> Counter:
        return self._get_or_create(name, description, Counter)  # type: ignore[return-value]

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self._get_or_create(name, description, Gauge)  # type: ignore[return-value]

    def histogram(self, name: str, description: str = "") -> Histogram:
        return self._get_or_create(name, description, Histogram)  # type: ignore[return-value]

    def register_collector(
        self, name: str, collector: Callable[[], Dict[str, Any]]
    ) -> None:
        """Register a pull collector.

        ``collector`` is a zero-argument callable returning
        ``{metric_name: {label_key: value}}``; it runs at
        :meth:`collect` time.  Re-registering under the same name
        replaces the previous collector (supports module reloads and
        test fixtures).
        """
        with self._lock:
            self._collectors = [
                (n, fn) for n, fn in self._collectors if n != name
            ]
            self._collectors.append((name, collector))

    def collector_names(self) -> List[str]:
        with self._lock:
            return [name for name, _ in self._collectors]

    def collect(self) -> Dict[str, Dict[str, Any]]:
        """Gather every metric family and pull collector into one mapping.

        Returns ``{metric_name: {label_key: value}}`` where ``label_key``
        is the ``k=v,...`` rendering (empty string for unlabelled).
        """
        with self._lock:
            metrics = list(self._metrics.values())
            collectors = list(self._collectors)
        merged: Dict[str, Dict[str, Any]] = {}
        for metric in metrics:
            values = metric.collect()
            if values:
                merged.setdefault(metric.name, {}).update(values)
        for _, collector in collectors:
            for name, values in collector().items():
                merged.setdefault(name, {}).update(values)
        return merged

    def describe(self) -> Dict[str, Dict[str, str]]:
        """``{metric_name: {"kind": ..., "description": ...}}`` for metadata."""
        with self._lock:
            return {
                m.name: {"kind": m.kind, "description": m.description}
                for m in self._metrics.values()
            }


_registry = MetricsRegistry()


def get_metrics_registry() -> MetricsRegistry:
    """Return the process-wide metrics registry."""
    return _registry


def reset_metrics_registry() -> MetricsRegistry:
    """Replace the process-wide registry with a fresh one (tests only).

    Note: modules that bound labelled children at import time keep
    incrementing their old children; prefer reading deltas in tests
    instead of resetting when exact totals matter.
    """
    global _registry
    _registry = MetricsRegistry()
    return _registry
