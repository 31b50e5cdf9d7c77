"""Tests for the metrics registry: families, labels, collectors."""

import threading

import pytest

from repro.observability.metrics import (
    MetricsRegistry,
    get_metrics_registry,
)


@pytest.fixture()
def registry():
    """A private registry so tests never disturb the process-wide one."""
    return MetricsRegistry()


class TestCounter:
    def test_inc_and_collect(self, registry):
        counter = registry.counter("requests", "total requests")
        counter.inc()
        counter.inc(2.0)
        assert registry.collect() == {"requests": {"": 3.0}}

    def test_labelled_children_are_independent(self, registry):
        counter = registry.counter("fft", "transforms")
        counter.inc(direction="forward")
        counter.inc(3, direction="backward")
        counter.inc(direction="forward")
        assert registry.collect()["fft"] == {
            "direction=backward": 3.0,
            "direction=forward": 2.0,
        }

    def test_bound_child_is_cached(self, registry):
        counter = registry.counter("c")
        assert counter.labels(a=1) is counter.labels(a=1)
        assert counter.labels(a=1) is not counter.labels(a=2)

    def test_label_key_order_is_canonical(self, registry):
        counter = registry.counter("c")
        counter.labels(b=2, a=1).inc()
        counter.labels(a=1, b=2).inc()
        assert registry.collect()["c"] == {"a=1,b=2": 2.0}


class TestGaugeAndHistogram:
    def test_gauge_set_inc_dec(self, registry):
        gauge = registry.gauge("pool.bytes")
        child = gauge.labels()
        child.set(100.0)
        child.inc(10.0)
        child.dec(30.0)
        assert registry.collect()["pool.bytes"][""] == 80.0

    def test_histogram_aggregates(self, registry):
        histogram = registry.histogram("latency")
        for value in (1.0, 3.0, 2.0):
            histogram.observe(value)
        stats = registry.collect()["latency"][""]
        assert stats == {"count": 3, "sum": 6.0, "min": 1.0, "max": 3.0}


class TestRegistry:
    def test_create_or_get_returns_same_family(self, registry):
        assert registry.counter("x") is registry.counter("x")

    def test_kind_conflict_raises(self, registry):
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.gauge("x")

    def test_describe(self, registry):
        registry.counter("a", "first")
        registry.histogram("b", "second")
        assert registry.describe() == {
            "a": {"kind": "counter", "description": "first"},
            "b": {"kind": "histogram", "description": "second"},
        }

    def test_collector_merges_at_collect_time(self, registry):
        state = {"hits": 0}
        registry.register_collector(
            "pool", lambda: {"pool.hits": {"": state["hits"]}}
        )
        state["hits"] = 5
        assert registry.collect()["pool.hits"][""] == 5

    def test_collector_reregistration_replaces(self, registry):
        registry.register_collector("src", lambda: {"m": {"": 1}})
        registry.register_collector("src", lambda: {"m": {"": 2}})
        assert registry.collect()["m"][""] == 2
        assert registry.collector_names() == ["src"]

    def test_empty_families_are_omitted(self, registry):
        registry.counter("never.incremented")
        assert registry.collect() == {}

    def test_concurrent_increments_are_lossless(self, registry):
        counter = registry.counter("c").labels()

        def spin():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 4000.0


class TestProcessRegistry:
    def test_kernel_frontends_registered_their_collectors(self):
        # importing the kernel layers registers the pull collectors for the
        # plan pool and gradient-cache decisions
        import repro.core.gradients  # noqa: F401
        import repro.runtime.plan_pool  # noqa: F401
        import repro.transport.kernels  # noqa: F401

        names = get_metrics_registry().collector_names()
        assert "plan_pool" in names
        assert "gradient_cache_decisions" in names

    def test_push_metrics_flow_into_the_registry(self, small_grid, smooth_field):
        from repro.spectral.fft import FourierTransform

        registry = get_metrics_registry()

        def forward_total():
            series = registry.collect().get("fft.transforms", {})
            return series.get("direction=forward", 0.0)

        before = forward_total()
        FourierTransform(small_grid).forward(smooth_field)
        assert forward_total() == before + 1
