"""Shared fixtures for the test-suite.

The synthetic-field, grid and distributed-plan *factories* live in
:mod:`tests.fixtures` (one shared library instead of per-suite copies);
this conftest wires them up as pytest fixtures and owns the cross-cutting
test hygiene:

* every test runs against a **fresh plan pool** (autouse fixture below) —
  the pool is process-wide state, and hit/miss statistics leaking between
  test modules made pool assertions order dependent;
* all fixtures deliberately use very small grids (8^3 - 16^3) so that the
  full suite (several hundred tests) runs in a few minutes; correctness of
  the spectral and semi-Lagrangian kernels does not depend on resolution.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.gradients import (
    gradient_cache_decision_log,
    set_gradient_cache_enabled,
)
from repro.observability.trace import (
    disable_tracing,
    enable_tracing,
    get_trace_recorder,
    tracing_enabled,
)
from repro.runtime.plan_pool import get_plan_pool, reset_plan_pool
from repro.runtime.workers import set_default_workers
from repro.spectral.grid import Grid
from repro.spectral.operators import SpectralOperators

from tests.fixtures import make_grid, smooth_scalar_field, smooth_velocity_field

#: Factories re-exported for test modules that still import them from here;
#: new code should import from :mod:`tests.fixtures` directly.
__all__ = ["make_grid", "smooth_scalar_field", "smooth_velocity_field"]


# --------------------------------------------------------------------------- #
# process-wide state hygiene
# --------------------------------------------------------------------------- #
@pytest.fixture(autouse=True)
def _fresh_plan_pool():
    """Give every test a clean process-wide plan pool.

    The pool is shared process state: without this, a stepper planned by one
    test is a warm hit in the next, so hit/miss/byte assertions (and any
    test run in isolation vs. in-suite) would depend on execution order.
    Entries and statistics are dropped; the byte budget (which the pressure
    CI leg sets via ``REPRO_PLAN_POOL_BYTES``) is left untouched.  The
    process-wide overrides and decision logs are reset for the same reason:
    they are shared state a test may set.  The tracing flag and span
    recorder are restored too, so a test that enables tracing never leaks
    spans into the next.
    """
    trace_was_enabled = tracing_enabled()
    reset_plan_pool()
    set_default_workers(None)
    set_gradient_cache_enabled(None)
    gradient_cache_decision_log().reset()
    yield
    reset_plan_pool()
    set_default_workers(None)
    set_gradient_cache_enabled(None)
    gradient_cache_decision_log().reset()
    if trace_was_enabled:
        enable_tracing()
    else:
        disable_tracing()
    get_trace_recorder().clear()


@pytest.fixture()
def plan_pool():
    """The (freshly reset) shared plan pool, for stats-sensitive tests."""
    return get_plan_pool()


# --------------------------------------------------------------------------- #
# grids and operators
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20160613)


@pytest.fixture(scope="session")
def small_grid() -> Grid:
    """Isotropic 16^3 grid on [0, 2*pi)^3."""
    return make_grid(16)


@pytest.fixture(scope="session")
def medium_grid() -> Grid:
    """Isotropic 12^3 grid (the runtime/parallel suites' workhorse)."""
    return make_grid(12)


@pytest.fixture(scope="session")
def tiny_grid() -> Grid:
    """Isotropic 8^3 grid for the most expensive solver tests."""
    return make_grid(8)


@pytest.fixture(scope="session")
def anisotropic_grid() -> Grid:
    """Anisotropic grid (different point counts per dimension)."""
    return make_grid((8, 12, 10))


@pytest.fixture(scope="session")
def small_operators(small_grid: Grid) -> SpectralOperators:
    return SpectralOperators(small_grid)


# --------------------------------------------------------------------------- #
# synthetic fields
# --------------------------------------------------------------------------- #
@pytest.fixture()
def smooth_field(small_grid: Grid) -> np.ndarray:
    return smooth_scalar_field(small_grid, seed=3)


@pytest.fixture()
def smooth_velocity(small_grid: Grid) -> np.ndarray:
    return smooth_velocity_field(small_grid, seed=11)


@pytest.fixture(scope="session")
def velocity_factory():
    """Factory fixture: ``velocity_factory(grid, seed=..., amplitude=...)``."""
    return smooth_velocity_field
