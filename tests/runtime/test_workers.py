"""Tests for the unified worker-count policy (repro.runtime.workers)."""

import os

import pytest

from repro.runtime.workers import (
    FFT_WORKERS_ENV_VAR,
    SERVICE_WORKERS_ENV_VAR,
    WORKERS_ENV_VAR,
    default_workers,
    resolve_workers,
    set_default_workers,
)
from repro.spectral.backends import _resolve_workers as resolve_fft_workers


@pytest.fixture(autouse=True)
def clean_policy(monkeypatch):
    """Isolate every test from ambient env vars and the process default."""
    for var in (
        WORKERS_ENV_VAR,
        FFT_WORKERS_ENV_VAR,
        SERVICE_WORKERS_ENV_VAR,
    ):
        monkeypatch.delenv(var, raising=False)
    set_default_workers(None)
    yield
    set_default_workers(None)


class TestResolution:
    def test_subsystem_defaults(self):
        assert resolve_workers("fft") == max(1, os.cpu_count() or 1)
        # one compute lane: a solve's kernels hold the GIL, a second worker
        # thread only time-slices the first (burst16, BENCH_20.json)
        assert resolve_workers("service") == 1

    def test_shared_env_var_applies_to_every_subsystem(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        assert resolve_workers("fft") == 3
        assert resolve_workers("service") == 3

    def test_per_subsystem_env_overrides_shared(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        monkeypatch.setenv(SERVICE_WORKERS_ENV_VAR, "2")
        monkeypatch.setenv(FFT_WORKERS_ENV_VAR, "5")
        assert resolve_workers("service") == 2
        assert resolve_workers("fft") == 5

    def test_process_default_between_shared_and_subsystem(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        set_default_workers(4)  # the CLI --workers path
        assert resolve_workers("fft") == 4
        monkeypatch.setenv(FFT_WORKERS_ENV_VAR, "2")
        assert resolve_workers("fft") == 2

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
        assert resolve_workers("service") == 1
        assert resolve_workers("fft", explicit=-3) == 1

    def test_unknown_subsystem_rejected(self):
        for subsystem in ("gpu", "interp"):  # the stencil executor is serial
            with pytest.raises(ValueError, match="unknown worker subsystem"):
                resolve_workers(subsystem)

    def test_fft_backend_resolution_is_the_runtime_policy(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        assert resolve_fft_workers(None) == 2
        monkeypatch.setenv(FFT_WORKERS_ENV_VAR, "6")
        assert resolve_fft_workers(None) == 6
        assert resolve_fft_workers(4) == 4

