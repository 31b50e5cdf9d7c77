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

import base64
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.parallel.comm import SimulatedCommunicator
from repro.parallel.ghost import exchange_ghost_layers_batched
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


def periodic_gather(grid: Grid, fields, points, kernel: str = "catmull_rom") -> np.ndarray:
    """A cubic kernel's periodic operator at physical *points* — an oracle.

    With ``catmull_rom``, the serial counterpart of the distributed scatter;
    with ``cubic_bspline``, the interpolator's bits.  *fields* is one field
    or a ``(B, ...)`` stack; the trailing shape of *points* is kept.
    """
    from repro.transport.interpolation import PeriodicInterpolator
    from repro.transport.kernels import gather_cubic

    fields = np.asarray(fields)
    coordinates = PeriodicInterpolator(grid).to_index_coordinates(points)
    values = gather_cubic(fields.reshape(-1, *grid.shape), coordinates, kernel)
    return values.reshape(*fields.shape[:-3], *np.shape(points)[1:])


def rk2_departure_points(
    grid: Grid, velocity: np.ndarray, dt: float, kernel: str = "cubic_bspline"
) -> np.ndarray:
    """The paper's interpolated RK2 trace (Eq. 6) — a test oracle.

    What ``compute_departure_points`` did before the spectral expansion and
    what ``DistributedSemiLagrangian`` still does through its star plan
    (with ``catmull_rom``).
    """
    x = grid.coordinate_stack()
    x_star = x - dt * velocity
    v_at_star = periodic_gather(grid, velocity, x_star, kernel)
    return x - 0.5 * dt * (velocity + v_at_star)


def materialized_stencil_gather(
    flat_fields: np.ndarray,
    shape: Tuple[int, int, int],
    coordinates: np.ndarray,
    kernel: str,
    periodic: bool = True,
) -> np.ndarray:
    """The tensor-product stencil with every index and weight formed at once — an oracle.

    Independent of the gather engine: the indices of all points are formed
    in one go — wrapped by modular arithmetic when *periodic*, read as they
    are on a ghosted block whose stencils stay inside — the weights come
    from the public per-axis weight functions, and the taps are summed one
    by one.  *flat_fields* is ``(B, prod(shape))``, the kernel's
    coefficients (prefiltered for ``cubic_bspline``).
    """
    from repro.transport.kernels import bspline_weights, catmull_rom_weights

    weight_fn = {"cubic_bspline": bspline_weights, "catmull_rom": catmull_rom_weights}[kernel]
    base = np.floor(coordinates).astype(np.intp)
    w0, w1, w2 = (weight_fn(coordinates[d] - base[d]) for d in range(3))
    reached = [base[d] + np.arange(-1, 3)[:, None] for d in range(3)]
    i0, i1, i2 = (reached[d] % shape[d] if periodic else reached[d] for d in range(3))
    out = np.zeros((flat_fields.shape[0], coordinates.shape[1]))
    for a in range(4):
        for b in range(4):
            for c in range(4):
                flat = (i0[a] * shape[1] + i1[b]) * shape[2] + i2[c]
                out += (w0[a] * w1[b] * w2[c]) * flat_fields[:, flat]
    return out


def periodic_bspline_prefilter(fields: np.ndarray) -> np.ndarray:
    """Exact periodic cubic B-spline prefilter of a ``(..., N1, N2, N3)`` stack — an oracle.

    The interpolating B-spline coefficients ``c`` solve the separable
    convolution ``c * [1/6, 4/6, 1/6] = f`` along each axis; on a periodic
    grid that convolution is diagonal in Fourier space with per-axis symbol
    ``(4 + 2 cos(2 pi k / N)) / 6``, so the solve is one real-to-complex
    transform, a division by the separable symbol, and the inverse
    transform — independent of the dense per-axis products
    (:func:`repro.transport.kernels._prefilter_factor`) the gather
    operator applies.
    """
    fields = np.asarray(fields, dtype=np.float64)
    n1, n2, n3 = fields.shape[-3:]

    def axis_symbol(n: int) -> np.ndarray:
        return (4.0 + 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)) / 6.0

    symbol = (
        axis_symbol(n1)[:, None, None]
        * axis_symbol(n2)[None, :, None]
        * axis_symbol(n3)[None, None, : n3 // 2 + 1]
    )
    spectrum = np.fft.rfftn(fields, axes=(-3, -2, -1)) / symbol
    return np.fft.irfftn(spectrum, s=(n1, n2, n3), axes=(-3, -2, -1))


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


def exchange_one_field(blocks, deco, width, comm):
    """Ghost-extend one distributed field: the ``B = 1`` batched exchange."""
    stacks = [np.asarray(block)[None] for block in blocks]
    extended = exchange_ghost_layers_batched(stacks, deco, width, comm)
    return [stack[0] for stack in extended]


def interpolate_one_field(plan, blocks):
    """Interpolate one distributed field: the ``B = 1`` batched scatter.

    Returns, per rank, the ``(M_r,)`` values at its departure points.
    """
    stacks = [np.asarray(block)[None] for block in blocks]
    return [values[0] for values in plan.interpolate_many(stacks)]


# --------------------------------------------------------------------------- #
# jobspec documents
# --------------------------------------------------------------------------- #
#: Image shapes no grid holds: not 3-D, or an axis narrower than 2.
BAD_IMAGE_SHAPES = [(8, 8), (1, 8, 8), (0, 8, 8), (2, 8, 8, 8)]


def with_images(document: dict, template: np.ndarray, reference: np.ndarray) -> dict:
    """*document* (a register jobspec) carrying *template* and *reference* as
    given — shapes a ``RegistrationJobSpec`` refuses to be built with."""
    for name, image in (("template", template), ("reference", reference)):
        image = np.ascontiguousarray(image, dtype=np.float64)
        document["spec"][name] = {
            "__ndarray__": True,
            "dtype": "float64",
            "shape": list(image.shape),
            "data": base64.b64encode(image.tobytes()).decode("ascii"),
        }
    return document
