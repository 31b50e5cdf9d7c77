"""Micro-benchmarks of the computational kernels (Sec. III-C of the paper).

These are conventional pytest-benchmark timings (multiple rounds) of the
building blocks whose costs the paper's complexity model is built from: the
3D FFT, the spectral gradient/Laplacian/Leray operators, the tricubic
interpolation, one semi-Lagrangian step, a full transport solve, the reduced
gradient and one Hessian mat-vec.  They document where the time goes in this
Python implementation (interpolation and FFTs, as in the paper).

``test_bench_interp_kernel_comparison`` additionally times the solver's
interpolation kernel and the distributed scatter's ``catmull_rom`` (through
the gather-operator API, periodic), one-shot vs planned and scalar vs
batched, and writes
``benchmarks/results/interp_kernel_comparison.txt`` plus a machine-readable
twin (``.json``) so the perf trajectory can be tracked across PRs.  (It
times directly instead of using the ``benchmark`` fixture so every row lands
in one table; run it with ``--benchmark-disable`` or a plain pytest
invocation.)
"""

import os
import time

import numpy as np
import pytest

from repro.core.problem import RegistrationProblem
from repro.data.synthetic import synthetic_registration_problem, synthetic_velocity
from repro.runtime.plan_pool import get_plan_pool
from repro.spectral.grid import Grid
from repro.spectral.operators import SpectralOperators
from repro.transport.interpolation import PeriodicInterpolator
from repro.transport.kernels import build_gather_operator, gather_cubic
from repro.transport.semi_lagrangian import SemiLagrangianStepper
from repro.transport.solvers import TransportSolver

N = 32

#: Resolution of the interpolation-kernel comparison (override with
#: REPRO_BENCH_INTERP_N; at 128^3 the resident operator pair alone is ~1 GB).
INTERP_COMPARISON_N = int(os.environ.get("REPRO_BENCH_INTERP_N", "64"))


@pytest.fixture(scope="module")
def grid():
    return Grid((N, N, N))


@pytest.fixture(scope="module")
def ops(grid):
    return SpectralOperators(grid)


@pytest.fixture(scope="module")
def field(grid):
    return np.random.default_rng(0).standard_normal(grid.shape)


@pytest.fixture(scope="module")
def velocity(grid):
    return synthetic_velocity(grid)


def test_bench_fft_roundtrip(benchmark, ops, field):
    benchmark(lambda: ops.fft.backward(ops.fft.forward(field)))


def test_bench_gradient(benchmark, ops, field):
    benchmark(lambda: ops.gradient(field))


def test_bench_laplacian(benchmark, ops, field):
    benchmark(lambda: ops.laplacian(field))


def test_bench_leray_projection(benchmark, ops, velocity):
    benchmark(lambda: ops.leray_project(velocity))


def test_bench_interpolation(benchmark, grid, field):
    interp = PeriodicInterpolator(grid)
    points = np.random.default_rng(1).uniform(0, 2 * np.pi, size=(3, grid.num_points))
    benchmark(lambda: interp(field, points))


def test_bench_semi_lagrangian_step(benchmark, grid, field, velocity):
    stepper = SemiLagrangianStepper(grid, velocity, dt=0.25)
    benchmark(lambda: stepper.step(field))


def test_bench_state_transport(benchmark, grid, field, velocity):
    solver = TransportSolver(grid, num_time_steps=4)
    plan = solver.plan(velocity)
    benchmark(lambda: solver.solve_state(plan, field))


@pytest.fixture(scope="module")
def problem():
    synthetic = synthetic_registration_problem(N)
    return RegistrationProblem(
        grid=synthetic.grid,
        reference=synthetic.reference,
        template=synthetic.template,
        beta=1e-2,
    )


def test_bench_objective(benchmark, problem, velocity):
    benchmark(lambda: problem.evaluate_objective(0.3 * velocity))


def test_bench_reduced_gradient(benchmark, problem, velocity):
    benchmark(lambda: problem.linearize(0.3 * velocity))


def test_bench_hessian_matvec(benchmark, problem, velocity):
    iterate = problem.linearize(0.3 * velocity)
    direction = 0.1 * velocity
    benchmark(lambda: problem.hessian_matvec(iterate, direction))


def _best_of(fn, repeats: int = 5) -> float:
    fn()  # warm up plan caches outside the timed region
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# --------------------------------------------------------------------------- #
# interpolation-kernel comparison (written to benchmarks/results/)
# --------------------------------------------------------------------------- #
#: Gather modes of the comparison, in table order.
INTERP_MODES = ("scalar, one-shot", "scalar, planned", "batched(3), planned")


def test_bench_interp_kernel_comparison(record_text, record_json):
    """Semi-Lagrangian interpolation per kernel, one-shot vs planned.

    Times the production ``PeriodicInterpolator`` paths at realistic
    (grid-ordered, CFL-scale displaced) departure points: a one-shot scalar
    gather, a planned scalar gather and a planned three-field stack; and the
    same three gathers of the scatter's ``catmull_rom`` through the periodic
    gather operator.  Produces the comparison table and asserts that the
    planned batched ``cubic_bspline`` path (the solver's sweep) beats its
    one-shot gather (the operator built block by block and dropped).  The
    JSON twin additionally records, per kernel, the build time and bytes of
    the resident gather operator the planned rows gather through.

    The pool budget is raised to 2 GiB for the duration: a gather operator
    stays resident only while the forward + backward pair fits half the
    budget, and the "planned" rows are meant to time the resident operator.
    """
    pool = get_plan_pool()
    budget_before = pool.max_bytes
    pool.set_max_bytes(2 * 2**30)
    try:
        _interp_kernel_comparison(record_text, record_json)
    finally:
        pool.set_max_bytes(budget_before)


def _interp_kernel_comparison(record_text, record_json):
    n = INTERP_COMPARISON_N
    grid = Grid((n, n, n))
    rng = np.random.default_rng(0)
    field = rng.standard_normal(grid.shape)
    fields = np.stack([field, rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)])
    # departure-point-like coordinates: every grid point displaced by a few
    # cells, exactly the access pattern of the semi-Lagrangian step
    points = grid.coordinate_stack().reshape(3, -1) + np.asarray(grid.spacing)[
        :, None
    ] * 3.0 * rng.standard_normal((3, grid.num_points))

    interp = PeriodicInterpolator(grid)
    plan = interp.plan(points)
    coordinates = plan.coordinates
    operator = build_gather_operator(grid.shape, coordinates, "catmull_rom")
    paths = {
        "cubic_bspline": {
            "build": lambda: build_gather_operator(grid.shape, coordinates, "cubic_bspline"),
            "scalar, one-shot": lambda: interp(field, points),
            "scalar, planned": lambda: interp.interpolate_planned(field, plan),
            "batched(3), planned": lambda: interp.interpolate_many_planned(fields, plan),
        },
        "catmull_rom": {
            "build": lambda: build_gather_operator(grid.shape, coordinates, "catmull_rom"),
            "scalar, one-shot": lambda: gather_cubic(field[None], coordinates, "catmull_rom"),
            "scalar, planned": lambda: gather_cubic(field[None], None, "catmull_rom", operator),
            "batched(3), planned": lambda: gather_cubic(fields, None, "catmull_rom", operator),
        },
    }
    timings = {
        kernel: {mode: _best_of(fn, repeats=3) for mode, fn in modes.items()}
        for kernel, modes in paths.items()
    }
    for modes in timings.values():
        modes["batched(3), planned"] /= fields.shape[0]
    operator_bytes = {
        kernel: build_gather_operator(grid.shape, coordinates, kernel).nbytes
        for kernel in paths
    }

    reference = timings["cubic_bspline"]["scalar, one-shot"]
    header = f"{'method':<14} {'mode':<24} {'time/field [s]':>14} {'vs ref':>8}"
    rows = [
        f"semi-Lagrangian interpolation at {n}^3 ({grid.num_points} departure points, best of 3)",
        "reference = cubic_bspline, scalar, one-shot (operator built block by block, "
        "nothing kept); plan pool budget 2 GiB",
        "catmull_rom: the scatter's kernel through the periodic gather operator; "
        "operator build: the resident gather operator of the departure points",
        header,
        "-" * len(header),
    ]
    for method, modes in timings.items():
        for mode in INTERP_MODES:
            t = modes[mode]
            rows.append(f"{method:<14} {mode:<24} {t:>14.4f} {reference / t:>7.2f}x")
        rows.append(f"{method:<14} {'operator build':<24} {modes['build']:>14.4f}")
    record_text("interp_kernel_comparison", "\n".join(rows))
    record_json(
        "interp_kernel_comparison",
        {
            "benchmark": "semi-Lagrangian interpolation, per kernel",
            "grid": [n, n, n],
            "num_points": grid.num_points,
            "repeats": "best of 3",
            "reference_path": "cubic_bspline, scalar, one-shot (transient gather operator)",
            "reference_seconds_per_field": reference,
            "kernels": {
                method: {
                    "operator_build_seconds": modes["build"],
                    "operator_nbytes": operator_bytes[method],
                    "scalar_one_shot_seconds": modes["scalar, one-shot"],
                    "scalar_planned_seconds": modes["scalar, planned"],
                    "batched3_planned_seconds_per_field": modes["batched(3), planned"],
                    "speedup_vs_reference": reference / modes["batched(3), planned"],
                }
                for method, modes in timings.items()
            },
        },
    )

    # the solver's planned batched sweep must beat the one-shot gather;
    # REPRO_BENCH_NONSTRICT=1 downgrades a loss to a skip for noisy shared
    # runners where wall-clock comparisons can flip
    planned = timings["cubic_bspline"]["batched(3), planned"]
    if planned >= reference:
        message = (
            f"planned batched cubic_bspline ({planned:.4f}s/field) did not beat "
            f"its one-shot gather ({reference:.4f}s/field)"
        )
        if os.environ.get("REPRO_BENCH_NONSTRICT"):
            pytest.skip(message)
        raise AssertionError(message)
