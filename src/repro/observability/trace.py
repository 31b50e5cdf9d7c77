"""Structured tracing spans with a near-zero-cost disabled path.

``trace_span(name, **attrs)`` is the single instrumentation primitive used
throughout the codebase.  When tracing is disabled (the default) it checks
one module-level boolean and returns a shared no-op context manager —
no span object is allocated and the recorder is never touched, so the hot
kernels (FFT transforms, interpolation gathers, PCG matvecs) pay only a
function call and a branch.  When enabled, each span records:

``name``
    Dotted phase name (``"fft.forward"``, ``"interp.gather"``,
    ``"newton.iteration"``, ...).
``start`` / ``duration``
    Seconds on the monotonic clock (:func:`time.perf_counter`), relative
    to the recorder epoch.
``thread_id`` / ``span_id`` / ``parent_id``
    Nesting is tracked per thread so concurrent worker-pool spans nest
    correctly under their own thread's stack.
``count``
    How many logical operations the span covers (default 1).  Batched
    frontends (``FourierTransform.forward_batch``, the interpolation
    gather) set ``count`` to the batch size so span counts cross-check
    the existing work counters exactly: the sum of ``fft.forward`` span
    counts equals ``FFTCounters.forward``, and the sum of
    ``interp.gather`` counts equals the sweep counter (2·nt per mat-vec).
``attrs``
    Free-form JSON-safe attributes (grid shape, batch points, tag, ...).

Spans land in a thread-safe process-wide :class:`TraceRecorder` and can be
exported as Chrome trace-event JSON (:func:`write_chrome_trace`), loadable
in Perfetto / ``chrome://tracing``.

This module imports only the standard library so every layer of the
codebase can use it without import cycles.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = [
    "TRACE_ENV_VAR",
    "TraceSpan",
    "TraceRecorder",
    "trace_span",
    "tracing_enabled",
    "enable_tracing",
    "disable_tracing",
    "get_trace_recorder",
    "env_trace_enabled",
    "chrome_trace_document",
    "write_chrome_trace",
]

TRACE_ENV_VAR = "REPRO_TRACE"

_TRUE_VALUES = frozenset({"1", "true", "yes", "on"})
_FALSE_VALUES = frozenset({"0", "false", "no", "off", ""})


@dataclass(frozen=True)
class TraceSpan:
    """One finished span."""

    name: str
    start: float
    duration: float
    thread_id: int
    span_id: int
    parent_id: Optional[int]
    count: int = 1
    attrs: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "thread_id": self.thread_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "count": self.count,
            "attrs": dict(self.attrs),
        }


class TraceRecorder:
    """Thread-safe sink for finished spans.

    One recorder exists per process (:func:`get_trace_recorder`); tests may
    construct private instances.  ``start`` values are relative to the
    recorder's epoch, taken when the recorder is created or cleared.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: List[TraceSpan] = []
        self._epoch = time.perf_counter()
        self._ids = itertools.count(1)

    @property
    def epoch(self) -> float:
        return self._epoch

    def next_span_id(self) -> int:
        return next(self._ids)

    def record(self, span: TraceSpan) -> None:
        with self._lock:
            self._spans.append(span)

    def spans(self) -> List[TraceSpan]:
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._epoch = time.perf_counter()
            self._ids = itertools.count(1)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    # -- aggregation ---------------------------------------------------

    def span_counts(self) -> Dict[str, int]:
        """Total logical operation count per span name.

        Sums each span's ``count`` field, so batched spans contribute
        their batch size and the totals line up with the existing work
        counters (FFT transforms, interpolation sweeps).
        """
        counts: Dict[str, int] = {}
        for span in self.spans():
            counts[span.name] = counts.get(span.name, 0) + span.count
        return counts

    def span_durations(self) -> Dict[str, float]:
        """Total wall-clock seconds per span name (self time not removed)."""
        durations: Dict[str, float] = {}
        for span in self.spans():
            durations[span.name] = durations.get(span.name, 0.0) + span.duration
        return durations

    def summary(self) -> List[Dict[str, Any]]:
        """Per-name aggregate rows sorted by descending total duration."""
        rows: Dict[str, Dict[str, Any]] = {}
        for span in self.spans():
            row = rows.get(span.name)
            if row is None:
                rows[span.name] = {
                    "name": span.name,
                    "spans": 1,
                    "count": span.count,
                    "total_seconds": span.duration,
                    "max_seconds": span.duration,
                }
            else:
                row["spans"] += 1
                row["count"] += span.count
                row["total_seconds"] += span.duration
                row["max_seconds"] = max(row["max_seconds"], span.duration)
        return sorted(rows.values(), key=lambda r: -r["total_seconds"])


_recorder = TraceRecorder()
_enabled = False
_stacks = threading.local()


def get_trace_recorder() -> TraceRecorder:
    """Return the process-wide span recorder."""
    return _recorder


def tracing_enabled() -> bool:
    """Whether spans are currently being recorded."""
    return _enabled


def enable_tracing() -> None:
    """Start recording spans into the process-wide recorder."""
    global _enabled
    _enabled = True


def disable_tracing() -> None:
    """Stop recording spans (already-recorded spans are kept)."""
    global _enabled
    _enabled = False


def env_trace_enabled(environ: Optional[Dict[str, str]] = None) -> Optional[bool]:
    """Strictly parse ``REPRO_TRACE``.

    Returns ``None`` when unset, ``True``/``False`` for recognised values,
    and raises :class:`ValueError` naming the variable otherwise — the
    same clean-error contract as ``REPRO_PLAN_POOL_BYTES``.
    """
    env = os.environ if environ is None else environ
    raw = env.get(TRACE_ENV_VAR)
    if raw is None:
        return None
    value = raw.strip().lower()
    if value in _TRUE_VALUES:
        return True
    if value in _FALSE_VALUES:
        return False
    raise ValueError(
        f"{TRACE_ENV_VAR} must be a boolean flag (1/0/true/false/yes/no/on/off), "
        f"got {raw!r}"
    )


class _NullSpan:
    """Shared no-op context manager returned when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def set_attr(self, key: str, value: Any) -> None:
        return None

    def set_count(self, count: int) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager recording one span on exit."""

    __slots__ = ("name", "count", "attrs", "_start", "_span_id", "_parent_id")

    def __init__(self, name: str, count: int, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.count = count
        self.attrs = attrs
        self._start = 0.0
        self._span_id = 0
        self._parent_id: Optional[int] = None

    def set_attr(self, key: str, value: Any) -> None:
        """Attach an attribute discovered mid-span."""
        self.attrs[key] = value

    def set_count(self, count: int) -> None:
        """Set the logical operation count discovered mid-span."""
        self.count = count

    def __enter__(self) -> "_ActiveSpan":
        stack = getattr(_stacks, "stack", None)
        if stack is None:
            stack = []
            _stacks.stack = stack
        self._parent_id = stack[-1] if stack else None
        self._span_id = _recorder.next_span_id()
        stack.append(self._span_id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        end = time.perf_counter()
        stack = _stacks.stack
        if stack and stack[-1] == self._span_id:
            stack.pop()
        elif self._span_id in stack:  # pragma: no cover - defensive
            stack.remove(self._span_id)
        _recorder.record(
            TraceSpan(
                name=self.name,
                start=self._start - _recorder.epoch,
                duration=end - self._start,
                thread_id=threading.get_ident(),
                span_id=self._span_id,
                parent_id=self._parent_id,
                count=self.count,
                attrs=self.attrs,
            )
        )


def trace_span(name: str, count: int = 1, **attrs: Any):
    """Open a tracing span around a code region.

    Usage::

        with trace_span("fft.forward", shape=field.shape):
            ...

    Returns a shared no-op context manager when tracing is disabled, so
    the call costs one boolean check on hot paths.  ``count`` declares how
    many logical operations the span covers (batch size for batched
    frontends); it may also be set from inside the region via
    ``span.set_count(...)`` when only known mid-flight.
    """
    if not _enabled:
        return _NULL_SPAN
    return _ActiveSpan(name, count, attrs)


# -- Chrome trace-event export -----------------------------------------


def chrome_trace_events(
    recorder: Optional[TraceRecorder] = None,
) -> List[Dict[str, Any]]:
    """Render recorded spans as Chrome trace-event dicts (``ph: "X"``)."""
    rec = recorder if recorder is not None else _recorder
    pid = os.getpid()
    events: List[Dict[str, Any]] = []
    for span in rec.spans():
        args: Dict[str, Any] = dict(span.attrs)
        if span.count != 1:
            args["count"] = span.count
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
                "pid": pid,
                "tid": span.thread_id,
                "args": args,
            }
        )
    return events


def chrome_trace_document(
    recorder: Optional[TraceRecorder] = None,
) -> Dict[str, Any]:
    """Full Chrome trace JSON document (Perfetto-loadable)."""
    return {
        "traceEvents": chrome_trace_events(recorder),
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.observability"},
    }


def write_chrome_trace(
    path: str, recorder: Optional[TraceRecorder] = None
) -> Dict[str, Any]:
    """Write the Chrome trace document to ``path`` and return it."""
    document = chrome_trace_document(recorder)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return document


def _configure_from_env() -> None:
    raw = os.environ.get(TRACE_ENV_VAR)
    if raw is not None and raw.strip().lower() in _TRUE_VALUES:
        enable_tracing()


_configure_from_env()
