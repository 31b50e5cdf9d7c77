"""Ablation — tricubic vs trilinear semi-Lagrangian interpolation.

The paper prefers cubic over linear interpolation "because the interpolation
errors will be accumulated throughout the time stepping" (Sec. III-B2).
This ablation transports the synthetic template forward with the analytic
velocity and back with its negative; the round-trip error isolates the
interpolation error of the semi-Lagrangian scheme.

The solver's kernel (``cubic_bspline``) runs through :class:`TransportSolver`;
the scatter's ``catmull_rom`` and trilinear interpolation, which the solver
does not offer, run as bench-local pure-advection steppers on the same
departure points (the gather operator and ``map_coordinates(order=1)``).
"""

import numpy as np
from scipy import ndimage

from repro.analysis.reporting import format_rows
from repro.data.synthetic import sinusoidal_template, synthetic_velocity
from repro.spectral.grid import Grid
from repro.transport.interpolation import PeriodicInterpolator
from repro.transport.kernels import gather_cubic
from repro.transport.semi_lagrangian import compute_departure_points
from repro.transport.solvers import TransportSolver


def _transport(grid: Grid, velocity: np.ndarray, field: np.ndarray, nt: int, kernel: str):
    """*field* advected by *velocity* over ``t in [0, 1]`` in *nt* steps."""
    if kernel == "cubic_bspline":
        solver = TransportSolver(grid, num_time_steps=nt)
        return solver.solve_state(solver.plan(velocity), field)[-1]
    points = compute_departure_points(grid, velocity, 1.0 / nt)
    coordinates = PeriodicInterpolator(grid).to_index_coordinates(points)
    for _ in range(nt):
        if kernel == "linear":
            values = ndimage.map_coordinates(field, coordinates, order=1, mode="grid-wrap")
        else:
            values = gather_cubic(field[None], coordinates, kernel)[0]
        field = values.reshape(grid.shape)
    return field


def _round_trip_error(kernel: str, resolution: int = 32, nt: int = 4) -> float:
    grid = Grid((resolution,) * 3)
    template = sinusoidal_template(grid)
    velocity = synthetic_velocity(grid)
    forward = _transport(grid, velocity, template, nt, kernel)
    back = _transport(grid, -velocity, forward, nt, kernel)
    return float(grid.norm(back - template) / grid.norm(template))


def test_ablation_interpolation_order(benchmark, record_text, record_json):
    errors = benchmark.pedantic(
        lambda: {
            method: _round_trip_error(method)
            for method in ("cubic_bspline", "catmull_rom", "linear")
        },
        rounds=1,
        iterations=1,
    )
    rows = [{"method": m, "round_trip_error": e} for m, e in errors.items()]
    record_text(
        "ablation_interpolation",
        format_rows(rows, title="Ablation: semi-Lagrangian round-trip error by interpolation kernel"),
    )
    record_json("ablation_interpolation", {"rows": rows})
    # both cubic kernels beat trilinear interpolation by a clear margin
    assert errors["cubic_bspline"] < 0.5 * errors["linear"]
    assert errors["catmull_rom"] < 0.5 * errors["linear"]
    assert np.isfinite(list(errors.values())).all()
