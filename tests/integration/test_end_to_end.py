"""End-to-end integration tests across subsystems.

These tests exercise the same paths as the examples and the benchmark
harness, at the smallest resolutions that still produce meaningful results.
"""

import numpy as np
import pytest

from repro import SolverOptions, register
from repro.core.metrics import relative_residual
from repro.core.optim.gauss_newton import GaussNewtonKrylov
from repro.core.problem import RegistrationProblem
from repro.data.brain import warped_self_pair
from repro.data.synthetic import synthetic_registration_problem
from repro.parallel import PencilDecomposition, ScatterInterpolationPlan, SimulatedCommunicator
from repro.spectral.grid import Grid
from repro.transport.deformation import DeformationMap
from repro.transport.semi_lagrangian import compute_departure_points
from repro.transport.solvers import TransportSolver

from tests.fixtures import interpolate_one_field, periodic_gather

pytestmark = pytest.mark.slow


class TestSyntheticRecovery:
    """Register the paper's synthetic problem and check the paper's claims."""

    @pytest.fixture(scope="class")
    def result(self):
        problem = synthetic_registration_problem(16)
        options = SolverOptions(
            gradient_tolerance=1e-2, max_newton_iterations=8, max_krylov_iterations=20
        )
        return (
            problem,
            register(
                problem.template,
                problem.reference,
                beta=1e-2,
                options=options,
                grid=problem.grid,
            ),
        )

    def test_converges_to_gradient_tolerance(self, result):
        _, res = result
        assert res.converged

    def test_mismatch_reduced_substantially(self, result):
        _, res = result
        assert res.relative_residual < 0.6

    def test_map_is_diffeomorphic(self, result):
        _, res = result
        assert res.det_grad_stats["min"] > 0.0

    def test_warping_template_with_map_matches_transport(self, result):
        problem, res = result
        warped = res.deformation.warp(res.problem.template)
        rel = relative_residual(
            res.deformed_template, res.problem.template, warped, problem.grid
        )
        # rho_T(y1) computed via the deformation map agrees with the state
        # solve up to discretization error
        assert problem.grid.norm(warped - res.deformed_template) < 0.2 * problem.grid.norm(
            res.deformed_template
        )

    def test_recovered_velocity_reduces_objective_like_truth(self, result):
        problem, res = result
        reg_problem = RegistrationProblem(
            grid=problem.grid,
            reference=res.problem.reference,
            template=res.problem.template,
            beta=1e-2,
        )
        at_zero = reg_problem.evaluate_objective(reg_problem.zero_velocity()).total
        at_solution = reg_problem.evaluate_objective(res.velocity).total
        assert at_solution < 0.5 * at_zero


class TestKnownWarpRecovery:
    """Same-subject pair related by a known smooth warp: registration must
    recover most of the displacement."""

    def test_recovers_known_warp(self):
        pair = warped_self_pair(base_resolution=16, seed=3, warp_amplitude=0.25)
        options = SolverOptions(
            gradient_tolerance=1e-2, max_newton_iterations=10, max_krylov_iterations=30
        )
        result = register(
            pair.template, pair.reference, beta=1e-3, options=options, grid=pair.grid
        )
        assert result.relative_residual < 0.5
        assert result.det_grad_stats["min"] > 0.0


class TestDistributedConsistencyEndToEnd:
    """The distributed kernels reproduce the serial solver's building blocks
    on the actual fields that arise during a registration."""

    def test_distributed_kernels_match_serial_on_solver_fields(self):
        problem = synthetic_registration_problem(16)
        reg = RegistrationProblem(
            grid=problem.grid,
            reference=problem.reference,
            template=problem.template,
            beta=1e-2,
        )
        options = SolverOptions(max_newton_iterations=2, max_krylov_iterations=5)
        result = GaussNewtonKrylov(reg, options).solve()
        velocity = result.velocity
        grid = problem.grid

        deco = PencilDecomposition(grid.shape, 2, 2)
        comm = SimulatedCommunicator(deco.num_tasks)
        deformed = result.final_iterate.deformed_template

        # distributed semi-Lagrangian interpolation at the solver's departure points
        departure = compute_departure_points(grid, velocity, dt=0.25)
        local_points = [
            departure[(slice(None), *deco.local_slices(rank))].reshape(3, -1)
            for rank in range(deco.num_tasks)
        ]
        plan = ScatterInterpolationPlan(grid, deco, comm, local_points)
        values = interpolate_one_field(plan, deco.scatter(deformed))
        serial = periodic_gather(grid, deformed, departure)
        for rank in range(deco.num_tasks):
            np.testing.assert_allclose(
                values[rank], serial[deco.local_slices(rank)].reshape(-1), atol=1e-10
            )
        assert comm.ledger.bytes() > 0


class TestSelfConsistencyOfDataGeneration:
    def test_registering_identical_images_returns_zero_velocity(self):
        grid = Grid((12, 12, 12))
        transport = TransportSolver(grid)
        x1 = grid.coordinates()[0]
        image = 0.5 * (1 + np.sin(x1))
        options = SolverOptions(max_newton_iterations=5, max_krylov_iterations=10)
        result = register(image, image, beta=1e-2, options=options, grid=grid)
        assert grid.norm(result.velocity) < 1e-6
        assert result.num_newton_iterations == 0

    def test_deformation_of_true_velocity_reproduces_reference(self):
        problem = synthetic_registration_problem(16, num_time_steps=8)
        dmap = DeformationMap(problem.grid, problem.true_velocity, num_time_steps=8)
        warped = dmap.warp(problem.template)
        error = problem.grid.norm(warped - problem.reference) / problem.grid.norm(
            problem.reference
        )
        assert error < 0.05
