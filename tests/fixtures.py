"""Shared fixture library: synthetic fields, grids and distributed plans.

One place for the parameterized factories (all with pinned seeds) that the
per-suite conftests and test modules used to copy-paste: band-limited smooth
scalar/vector fields, cached grids, random off-grid point sets and the
owner/worker scatter-plan harness of the parallel suite.  ``tests/conftest.py``
wires the pytest fixtures on top of these plain functions; test modules import
the functions directly (``from tests.fixtures import ...``) when they need a
factory rather than a fixture.

Everything here is deterministic: equal arguments always produce bitwise
identical arrays, which the plan-pool and bitwise-identity suites rely on.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro.parallel.comm import SimulatedCommunicator
from repro.parallel.pencil import PencilDecomposition
from repro.spectral.grid import Grid


# --------------------------------------------------------------------------- #
# grids
# --------------------------------------------------------------------------- #
@lru_cache(maxsize=None)
def make_grid(shape: "int | Tuple[int, int, int]") -> Grid:
    """Cached grid factory: ``make_grid(16)`` or ``make_grid((8, 12, 10))``.

    Grids are immutable (frozen dataclass), so caching them keeps
    session-scoped fixtures and ad-hoc factory calls pointing at the same
    object — and pool keys (which include the grid) identical across tests.
    """
    if isinstance(shape, int):
        shape = (shape, shape, shape)
    return Grid(tuple(int(n) for n in shape))


# --------------------------------------------------------------------------- #
# synthetic fields (pinned seeds)
# --------------------------------------------------------------------------- #
def smooth_scalar_field(grid: Grid, seed: int = 0, modes: int = 2) -> np.ndarray:
    """Band-limited random smooth scalar field (exactly representable)."""
    rng_local = np.random.default_rng(seed)
    x1, x2, x3 = grid.coordinates(sparse=True)
    field = np.zeros(grid.shape, dtype=grid.dtype)
    for _ in range(4):
        k = rng_local.integers(1, modes + 1, size=3)
        phase = rng_local.uniform(0, 2 * np.pi, size=3)
        amp = rng_local.uniform(0.2, 1.0)
        field = field + amp * (
            np.sin(k[0] * x1 + phase[0])
            * np.sin(k[1] * x2 + phase[1])
            * np.sin(k[2] * x3 + phase[2])
        )
    return field


def smooth_vector_field(grid: Grid, seed: int = 0, modes: int = 2) -> np.ndarray:
    """Band-limited random smooth vector field."""
    return np.stack(
        [smooth_scalar_field(grid, seed=seed + comp, modes=modes) for comp in range(3)],
        axis=0,
    )


def smooth_velocity_field(grid: Grid, seed: int = 0, amplitude: float = 0.5) -> np.ndarray:
    """The test-suite's standard transport velocity: a scaled smooth field."""
    return amplitude * smooth_vector_field(grid, seed=seed)


def random_field(grid: Grid, seed: int = 0) -> np.ndarray:
    """White-noise scalar field (for bitwise pins, where smoothness is moot)."""
    return np.random.default_rng(seed).standard_normal(grid.shape)


def random_points(
    num_points: int,
    seed: int = 0,
    low: float = -2 * np.pi,
    high: float = 4 * np.pi,
) -> np.ndarray:
    """Random physical coordinates of shape ``(3, num_points)``.

    The default bounds deliberately leave the box ``[0, 2*pi)`` so the
    periodic wrapping paths are always exercised.
    """
    return np.random.default_rng(seed).uniform(low, high, size=(3, num_points))


def departure_like_points(grid: Grid, seed: int = 0, cells: float = 3.0) -> np.ndarray:
    """Grid-ordered points displaced by a few cells — the SL access pattern."""
    rng = np.random.default_rng(seed)
    spacing = np.asarray(grid.spacing)[:, None]
    return grid.coordinate_stack().reshape(3, -1) + spacing * cells * rng.standard_normal(
        (3, grid.num_points)
    )


def rk2_departure_points(grid: Grid, velocity: np.ndarray, dt: float, interpolator) -> np.ndarray:
    """The paper's interpolated RK2 trace (Eq. 6) — a test oracle.

    What ``compute_departure_points`` did before the spectral expansion and
    what ``DistributedSemiLagrangian`` still does through its star plan.
    """
    x = grid.coordinate_stack()
    x_star = x - dt * velocity
    v_at_star = interpolator.interpolate_vector(velocity, x_star)
    return x - 0.5 * dt * (velocity + v_at_star)


def materialized_stencil_gather(
    flat_fields: np.ndarray,
    shape: Tuple[int, int, int],
    coordinates: np.ndarray,
    method: str,
    periodic: bool = True,
) -> np.ndarray:
    """The stencil gather with every index and weight formed at once — an oracle.

    Derives the stencil of all points in one call instead of per executor
    chunk, then sums the taps in the executor's order, so
    ``execute_stencil_plan`` must reproduce it bitwise for any chunk size or
    worker count.
    """
    from repro.transport.kernels import _METHOD_STENCILS, _derive_chunk_stencil

    weight_fn, _ = _METHOD_STENCILS[method]
    taps = len(weight_fn(np.zeros(1)))
    base = np.floor(coordinates).astype(np.intp)
    (i0, i1, i2), (w0, w1, w2) = _derive_chunk_stencil(
        method, taps, shape, periodic, base, coordinates - base
    )
    out = np.zeros((flat_fields.shape[0], coordinates.shape[1]))
    for a in range(taps):
        for b in range(taps):
            for c in range(taps):
                out += (w0[a] * w1[b] * w2[c]) * flat_fields[:, i0[a] + i1[b] + i2[c]]
    return out


def rk2_stepper(grid: Grid, velocity: np.ndarray, dt: float, interpolator):
    """A serial stepper on the RK2 oracle's departure points."""
    from repro.transport.semi_lagrangian import SemiLagrangianStepper

    points = rk2_departure_points(grid, velocity, dt, interpolator)
    return SemiLagrangianStepper(
        grid, velocity, dt, interpolator,
        departure_points=points, departure_plan=interpolator.plan(points),
    )


# --------------------------------------------------------------------------- #
# distributed harness
# --------------------------------------------------------------------------- #
def make_scatter_plan(
    grid: Grid,
    pgrid: Tuple[int, int],
    points_per_rank: int = 150,
    seed: int = 0,
    points: Optional[Sequence[np.ndarray]] = None,
    **plan_kwargs,
):
    """Decomposition + communicator + per-rank points + scatter plan.

    The shared setup of the ``tests/parallel`` suite: a pencil decomposition
    over ``pgrid`` tasks, a fresh simulated communicator, one pinned-seed
    random point cloud per rank (or the *points* given), and the
    :class:`~repro.parallel.scatter.ScatterInterpolationPlan` built from
    them.  Returns ``(deco, comm, points, plan)``.
    """
    from repro.parallel.scatter import ScatterInterpolationPlan

    deco = PencilDecomposition(grid.shape, *pgrid)
    comm = SimulatedCommunicator(deco.num_tasks)
    if points is None:
        rng = np.random.default_rng(seed)
        points = [
            rng.uniform(-5, max(grid.shape), size=(3, points_per_rank))
            for _ in range(deco.num_tasks)
        ]
    plan = ScatterInterpolationPlan(grid, deco, comm, points, **plan_kwargs)
    return deco, comm, points, plan


# --------------------------------------------------------------------------- #
# backend parametrization helpers
# --------------------------------------------------------------------------- #
def interp_backend_params() -> List:
    """Available interpolation backends as params, numba rows marked."""
    from repro.transport.kernels import available_backends

    return [
        pytest.param(name, marks=[pytest.mark.numba] if name == "numba" else [])
        for name in available_backends()
    ]
