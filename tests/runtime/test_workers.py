"""Tests for the unified worker-pool manager (repro.runtime.workers)."""

import os

import numpy as np
import pytest

from repro.runtime.workers import (
    FFT_WORKERS_ENV_VAR,
    INTERP_WORKERS_ENV_VAR,
    IO_WORKERS_ENV_VAR,
    SERVICE_WORKERS_ENV_VAR,
    WORKERS_ENV_VAR,
    default_workers,
    get_executor,
    get_subsystem_executor,
    resolve_workers,
    set_default_workers,
    shutdown_executors,
)
from repro.spectral.backends import _resolve_workers as resolve_fft_workers
from repro.spectral.grid import Grid
from repro.transport.interpolation import PeriodicInterpolator
from repro.transport.kernels import build_stencil_plan, execute_stencil_plan

from tests.fixtures import smooth_scalar_field


@pytest.fixture(autouse=True)
def clean_policy(monkeypatch):
    """Isolate every test from ambient env vars and the process default."""
    for var in (
        WORKERS_ENV_VAR,
        FFT_WORKERS_ENV_VAR,
        INTERP_WORKERS_ENV_VAR,
        IO_WORKERS_ENV_VAR,
        SERVICE_WORKERS_ENV_VAR,
    ):
        monkeypatch.delenv(var, raising=False)
    set_default_workers(None)
    yield
    set_default_workers(None)


class TestResolution:
    def test_subsystem_defaults(self):
        assert resolve_workers("fft") == max(1, os.cpu_count() or 1)
        assert resolve_workers("interp") == 1  # serial unless opted in
        assert resolve_workers("io") == 1  # one background tile loader
        # one compute lane: a solve's kernels hold the GIL, a second worker
        # thread only time-slices the first (burst16, BENCH_20.json)
        assert resolve_workers("service") == 1

    def test_shared_env_var_applies_to_every_subsystem(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        assert resolve_workers("fft") == 3
        assert resolve_workers("interp") == 3
        assert resolve_workers("io") == 3

    def test_io_env_overrides_shared(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        monkeypatch.setenv(IO_WORKERS_ENV_VAR, "2")
        assert resolve_workers("io") == 2
        assert resolve_workers("fft") == 3

    def test_per_subsystem_env_overrides_shared(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        monkeypatch.setenv(INTERP_WORKERS_ENV_VAR, "2")
        monkeypatch.setenv(FFT_WORKERS_ENV_VAR, "5")
        assert resolve_workers("interp") == 2
        assert resolve_workers("fft") == 5

    def test_process_default_between_shared_and_subsystem(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        set_default_workers(4)  # the CLI --workers path
        assert resolve_workers("interp") == 4
        monkeypatch.setenv(INTERP_WORKERS_ENV_VAR, "2")
        assert resolve_workers("interp") == 2

    def test_service_width_stays_overridable_in_the_documented_order(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        assert resolve_workers("service") == 3
        set_default_workers(4)
        assert resolve_workers("service") == 4
        monkeypatch.setenv(SERVICE_WORKERS_ENV_VAR, "2")
        assert resolve_workers("service") == 2
        assert resolve_workers("service", explicit=5) == 5

    def test_default_workers_reads_the_shared_default_only(self, monkeypatch):
        monkeypatch.setenv(SERVICE_WORKERS_ENV_VAR, "2")  # per-subsystem: not shared
        assert default_workers() is None
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        assert default_workers() == 3
        set_default_workers(4)
        assert default_workers() == 4
        monkeypatch.setenv(WORKERS_ENV_VAR, "three")  # malformed: raises even when overridden
        with pytest.raises(ValueError, match=WORKERS_ENV_VAR):
            default_workers()

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(FFT_WORKERS_ENV_VAR, "5")
        assert resolve_workers("fft", explicit=2) == 2

    def test_counts_clamped_to_at_least_one(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "0")
        assert resolve_workers("interp") == 1
        assert resolve_workers("fft", explicit=-3) == 1

    def test_unknown_subsystem_rejected(self):
        with pytest.raises(ValueError, match="unknown worker subsystem"):
            resolve_workers("gpu")

    def test_fft_backend_resolution_is_the_runtime_policy(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        assert resolve_fft_workers(None) == 2
        monkeypatch.setenv(FFT_WORKERS_ENV_VAR, "6")
        assert resolve_fft_workers(None) == 6
        assert resolve_fft_workers(4) == 4


class TestExecutors:
    def test_executors_shared_per_width(self):
        assert get_executor(2) is get_executor(2)
        assert get_executor(2) is not get_executor(3)

    def test_executor_runs_work(self):
        results = list(get_executor(2).map(lambda x: x * x, range(8)))
        assert results == [0, 1, 4, 9, 16, 25, 36, 49]


class TestSubsystemExecutors:
    """The dedicated per-subsystem pools behind the prefetching pipeline.

    Prefetch futures must never share a pool with the gather chunk tasks
    that wait on them (a width-1 shared pool would deadlock), so the ``io``
    loader gets its own executor keyed by subsystem name.
    """

    def test_one_executor_per_subsystem(self):
        assert get_subsystem_executor("io") is get_subsystem_executor("io")
        assert get_subsystem_executor("io") is not get_subsystem_executor("interp")

    def test_distinct_from_width_shared_pools(self):
        assert get_subsystem_executor("io") is not get_executor(1)

    def test_unknown_subsystem_rejected(self):
        with pytest.raises(ValueError, match="unknown worker subsystem"):
            get_subsystem_executor("gpu")

    def test_runs_work(self):
        future = get_subsystem_executor("io").submit(lambda: 7 * 6)
        assert future.result() == 42

    def test_shutdown_clears_the_cache(self):
        first = get_subsystem_executor("io")
        shutdown_executors()
        second = get_subsystem_executor("io")
        assert second is not first
        assert second.submit(lambda: 1).result() == 1


class TestThreadedStencilExecution:
    def test_threaded_gather_bitwise_matches_serial(self):
        shape = (16, 16, 16)
        rng = np.random.default_rng(5)
        flat = rng.standard_normal(shape).reshape(1, -1)
        coords = rng.uniform(0, 16, size=(3, 30000))
        plan = build_stencil_plan(shape, coords, "catmull_rom")
        serial = execute_stencil_plan(flat, plan, workers=1)
        for workers in (2, 4):
            threaded = execute_stencil_plan(flat, plan, chunk=1024, workers=workers)
            np.testing.assert_array_equal(threaded, serial)

    def test_env_var_threads_the_interpolator(self, monkeypatch):
        """REPRO_INTERP_WORKERS threads the production gather path, bitwise."""
        grid = Grid((16, 16, 16))
        field = smooth_scalar_field(grid, seed=6)
        rng = np.random.default_rng(7)
        points = rng.uniform(0, 2 * np.pi, size=(3, 20000))
        interp = PeriodicInterpolator(grid, "catmull_rom", backend="numpy")
        serial = interp(field, points)
        monkeypatch.setenv(INTERP_WORKERS_ENV_VAR, "4")
        np.testing.assert_array_equal(interp(field, points), serial)
