"""Tests for repro.transport.solvers (state/adjoint/incremental transport)."""

import numpy as np
import pytest

from repro.core.gradients import trapezoid_weights
from repro.spectral.grid import Grid
from repro.transport.solvers import TransportSolver

from tests.fixtures import smooth_scalar_field, smooth_vector_field


@pytest.fixture(scope="module")
def grid():
    return Grid((16, 16, 16))


@pytest.fixture(scope="module")
def solver(grid):
    return TransportSolver(grid, num_time_steps=4)


def solenoidal(grid, amplitude=0.5):
    x1, x2, x3 = grid.coordinates()
    return amplitude * np.stack(
        [np.sin(x2) * np.sin(x3), np.sin(x1) * np.sin(x3), np.sin(x1) * np.sin(x2)], axis=0
    )


class TestPlan:
    def test_dt_is_inverse_of_nt(self, grid):
        assert TransportSolver(grid, num_time_steps=8).dt == pytest.approx(0.125)

    def test_invalid_nt_rejected(self, grid):
        with pytest.raises(ValueError):
            TransportSolver(grid, num_time_steps=0)

    def test_plan_detects_divergence_free_velocity(self, grid, solver):
        plan = solver.plan(solenoidal(grid))
        assert plan.is_divergence_free

    def test_plan_detects_compressible_velocity(self, grid, solver):
        v = smooth_vector_field(grid, seed=1)
        plan = solver.plan(0.3 * v)
        assert not plan.is_divergence_free

    def test_plan_validates_velocity_shape(self, grid, solver):
        with pytest.raises(ValueError):
            solver.plan(np.zeros(grid.shape))


class TestStateEquation:
    def test_zero_velocity_keeps_template(self, grid, solver, rng):
        rho0 = rng.standard_normal(grid.shape)
        history = solver.solve_state(solver.plan(grid.zeros_vector()), rho0)
        assert history.shape == (5, *grid.shape)
        for level in history:
            np.testing.assert_allclose(level, rho0, atol=1e-10)

    def test_constant_advection_matches_analytic(self, grid):
        solver16 = TransportSolver(Grid((32, 32, 32)), num_time_steps=4)
        g = solver16.grid
        v = g.zeros_vector()
        v[0] = 0.8
        x1 = g.coordinates()[0]
        rho0 = np.sin(x1)
        history = solver16.solve_state(solver16.plan(v), rho0)
        np.testing.assert_allclose(history[-1], np.sin(x1 - 0.8), atol=2e-3)

    def test_initial_condition_preserved(self, grid, solver, rng):
        rho0 = rng.standard_normal(grid.shape)
        history = solver.solve_state(solver.plan(0.1 * smooth_vector_field(grid)), rho0)
        np.testing.assert_array_equal(history[0], rho0)

    def test_state_shape_validated(self, grid, solver):
        with pytest.raises(ValueError):
            solver.solve_state(solver.plan(grid.zeros_vector()), np.zeros((4, 4, 4)))

    def test_solve_state_final_matches_history_end(self, grid, solver, rng):
        """The history-free path: same steps, same bits, same counters."""
        rho0 = rng.standard_normal(grid.shape)
        plan = solver.plan(0.1 * smooth_vector_field(grid))
        start = solver.interpolator.points_interpolated
        history = solver.solve_state(plan, rho0)
        after_history = solver.interpolator.points_interpolated
        final = solver.solve_state_final(plan, rho0)
        after_final = solver.interpolator.points_interpolated
        np.testing.assert_array_equal(final, history[-1])
        # identical interpolation work as one full solve_state
        assert after_final - after_history == after_history - start

    def test_solve_state_final_shape_validated(self, grid, solver):
        with pytest.raises(ValueError):
            solver.solve_state_final(solver.plan(grid.zeros_vector()), np.zeros((4, 4, 4)))

    def test_mass_conserved_for_divergence_free_velocity(self, grid, solver):
        # for div v = 0 the transport preserves the integral of rho well
        rho0 = 1.0 + 0.5 * smooth_scalar_field(grid, seed=2)
        plan = solver.plan(solenoidal(grid, 0.5))
        history = solver.solve_state(plan, rho0)
        assert history[-1].mean() == pytest.approx(rho0.mean(), rel=2e-3)


class TestAdjointEquation:
    def test_zero_velocity_keeps_terminal_condition(self, grid, solver, rng):
        terminal = rng.standard_normal(grid.shape)
        history = solver.solve_adjoint(solver.plan(grid.zeros_vector()), terminal)
        for level in history:
            np.testing.assert_allclose(level, terminal, atol=1e-10)

    def test_terminal_condition_stored_at_last_level(self, grid, solver, rng):
        terminal = rng.standard_normal(grid.shape)
        plan = solver.plan(0.2 * smooth_vector_field(grid, seed=3))
        history = solver.solve_adjoint(plan, terminal)
        np.testing.assert_array_equal(history[-1], terminal)

    def test_adjoint_conserves_integral(self, grid, solver):
        # the adjoint equation is in conservative (divergence) form, so the
        # space integral of lambda is conserved exactly in the continuum
        terminal = 1.0 + 0.3 * smooth_scalar_field(grid, seed=4)
        plan = solver.plan(0.4 * smooth_vector_field(grid, seed=5))
        history = solver.solve_adjoint(plan, terminal)
        assert history[0].mean() == pytest.approx(terminal.mean(), rel=5e-3)

    def test_adjoint_shape_validated(self, grid, solver):
        with pytest.raises(ValueError):
            solver.solve_adjoint(solver.plan(grid.zeros_vector()), np.zeros((4, 4, 4)))

    def test_state_adjoint_duality_divergence_free(self, grid, solver):
        # For div v = 0: d/dt <rho, lam> = 0, hence
        # <rho(1), lam(1)> = <rho(0), lam(0)>.
        plan = solver.plan(solenoidal(grid, 0.6))
        rho0 = smooth_scalar_field(grid, seed=6)
        lam1 = smooth_scalar_field(grid, seed=7)
        rho = solver.solve_state(plan, rho0)
        lam = solver.solve_adjoint(plan, lam1)
        lhs = grid.inner(rho[-1], lam[-1])
        rhs = grid.inner(rho[0], lam[0])
        assert lhs == pytest.approx(rhs, rel=2e-2)

    def test_duality_defect_of_a_resolved_divergence_free_velocity(self):
        # at 32^3 the same case is resolved: the forward and backward points
        # of one expansion leave a defect of 2.7e-6 (interpolated RK2 traces
        # of v and -v: 8.0e-4)
        grid = Grid((32, 32, 32))
        solver = TransportSolver(grid, num_time_steps=4)
        plan = solver.plan(solenoidal(grid, 0.6))
        rho = solver.solve_state(plan, smooth_scalar_field(grid, seed=6))
        lam = solver.solve_adjoint(plan, smooth_scalar_field(grid, seed=7))
        lhs = grid.inner(rho[-1], lam[-1])
        rhs = grid.inner(rho[0], lam[0])
        assert lhs == pytest.approx(rhs, rel=1e-4)


class TestIncrementalState:
    def test_zero_perturbation_gives_zero(self, grid, solver, rng):
        plan = solver.plan(0.3 * smooth_vector_field(grid, seed=8))
        state = solver.solve_state(plan, smooth_scalar_field(grid, seed=9))
        rho_tilde = solver.solve_incremental_state(plan, grid.zeros_vector(), state)
        np.testing.assert_allclose(rho_tilde, 0.0, atol=1e-12)

    def test_linearity_in_perturbation(self, grid, solver):
        plan = solver.plan(0.3 * smooth_vector_field(grid, seed=10))
        state = solver.solve_state(plan, smooth_scalar_field(grid, seed=11))
        va = 0.2 * smooth_vector_field(grid, seed=12)
        vb = 0.2 * smooth_vector_field(grid, seed=13)
        a = solver.solve_incremental_state(plan, va, state)
        b = solver.solve_incremental_state(plan, vb, state)
        ab = solver.solve_incremental_state(plan, va + 2.0 * vb, state)
        np.testing.assert_allclose(ab, a + 2.0 * b, atol=1e-8)

    def test_matches_finite_difference_of_state(self, grid):
        # rho~(1) should approximate d/d eps rho(1; v + eps v~)
        solver = TransportSolver(grid, num_time_steps=4)
        v = 0.3 * smooth_vector_field(grid, seed=14)
        vt = 0.3 * smooth_vector_field(grid, seed=15)
        rho0 = smooth_scalar_field(grid, seed=16)
        plan = solver.plan(v)
        state = solver.solve_state(plan, rho0)
        rho_tilde = solver.solve_incremental_state(plan, vt, state)

        eps = 1e-4
        plus = solver.solve_state(solver.plan(v + eps * vt), rho0)[-1]
        minus = solver.solve_state(solver.plan(v - eps * vt), rho0)[-1]
        fd = (plus - minus) / (2 * eps)
        error = grid.norm(fd - rho_tilde[-1]) / max(grid.norm(fd), 1e-12)
        assert error < 5e-2

    def test_history_shape_validated(self, grid, solver):
        plan = solver.plan(grid.zeros_vector())
        with pytest.raises(ValueError):
            solver.solve_incremental_state(plan, grid.zeros_vector(), np.zeros((2, *grid.shape)))


class TestIncrementalAdjoint:
    def test_zero_terminal_zero_solution_gauss_newton(self, grid, solver):
        plan = solver.plan(solenoidal(grid, 0.4))
        lam_tilde = solver.solve_incremental_adjoint(plan, grid.zeros())
        np.testing.assert_allclose(lam_tilde, 0.0, atol=1e-12)

    def test_terminal_condition_at_last_level(self, grid, solver, rng):
        plan = solver.plan(0.3 * smooth_vector_field(grid, seed=17))
        terminal = rng.standard_normal(grid.shape)
        lam_tilde = solver.solve_incremental_adjoint(plan, terminal)
        np.testing.assert_array_equal(lam_tilde[-1], terminal)

    def test_full_newton_requires_extra_arguments(self, grid, solver):
        plan = solver.plan(grid.zeros_vector())
        with pytest.raises(ValueError):
            solver.solve_incremental_adjoint(plan, grid.zeros(), gauss_newton=False)

    def test_full_newton_reduces_to_gauss_newton_for_zero_adjoint(self, grid, solver, rng):
        plan = solver.plan(0.3 * smooth_vector_field(grid, seed=18))
        terminal = rng.standard_normal(grid.shape)
        zero_adjoint = np.zeros((solver.num_time_steps + 1, *grid.shape))
        gn = solver.solve_incremental_adjoint(plan, terminal, gauss_newton=True)
        fn = solver.solve_incremental_adjoint(
            plan,
            terminal,
            perturbation=0.3 * smooth_vector_field(grid, seed=19),
            adjoint_history=zero_adjoint,
            gauss_newton=False,
        )
        np.testing.assert_allclose(fn, gn, atol=1e-10)

    def test_matches_gauss_newton_adjoint_structure(self, grid, solver, rng):
        # For div v = 0 the GN incremental adjoint is a pure (backward) advection
        # of the terminal condition, i.e. it has the same structure as the adjoint.
        plan = solver.plan(solenoidal(grid, 0.5))
        terminal = smooth_scalar_field(grid, seed=20)
        lam_tilde = solver.solve_incremental_adjoint(plan, terminal)
        lam = solver.solve_adjoint(plan, terminal)
        np.testing.assert_allclose(lam_tilde, lam, atol=1e-10)


class TestNonDivergenceFreeAdjoint:
    """State/adjoint round-trip consistency with ``div v != 0``.

    For a general (compressible) velocity the adjoint equation keeps its
    conservative form, so two exact invariants survive the discretization:

    * duality: ``d/dt <rho, lam> = 0`` for *any* velocity, hence
      ``<rho(1), lam(1)> = <rho(0), lam(0)>``;
    * conservation: ``d/dt int lam dx = 0``.

    Both exercise the ``lam * div v`` source branch of ``solve_adjoint``.
    """

    @staticmethod
    def _compressible_velocity(grid, amplitude=0.4):
        x1, x2, x3 = grid.coordinates()
        return amplitude * np.stack(
            [np.sin(x1) * np.cos(x2), np.cos(x2) * np.sin(x3), np.sin(x3) * np.cos(x1)],
            axis=0,
        )

    def test_velocity_is_not_divergence_free(self, grid):
        solver = TransportSolver(grid)
        plan = solver.plan(self._compressible_velocity(grid))
        assert not plan.is_divergence_free

    def test_state_adjoint_duality(self, grid):
        solver = TransportSolver(grid, num_time_steps=4)
        plan = solver.plan(self._compressible_velocity(grid))
        rho0 = 1.0 + 0.3 * smooth_scalar_field(grid, seed=30)
        lam1 = 1.0 + 0.3 * smooth_scalar_field(grid, seed=31)
        rho = solver.solve_state(plan, rho0)
        lam = solver.solve_adjoint(plan, lam1)
        lhs = grid.inner(rho[-1], lam[-1])
        rhs = grid.inner(rho[0], lam[0])
        assert lhs == pytest.approx(rhs, rel=2e-2)

    def test_adjoint_integral_conserved(self, grid):
        solver = TransportSolver(grid, num_time_steps=4)
        plan = solver.plan(self._compressible_velocity(grid))
        terminal = 1.0 + 0.3 * smooth_scalar_field(grid, seed=32)
        history = solver.solve_adjoint(plan, terminal)
        assert history[0].mean() == pytest.approx(terminal.mean(), rel=5e-3)

    def test_incremental_adjoint_source_branch(self, grid):
        """GN incremental adjoint equals the adjoint when ``div v != 0``."""
        solver = TransportSolver(grid, num_time_steps=4)
        plan = solver.plan(self._compressible_velocity(grid))
        terminal = smooth_scalar_field(grid, seed=34)
        lam = solver.solve_adjoint(plan, terminal)
        lam_tilde = solver.solve_incremental_adjoint(plan, terminal)
        np.testing.assert_allclose(lam_tilde, lam, atol=1e-10)


def _time_integral(history: np.ndarray) -> np.ndarray:
    """The solver's quadrature over ``t in [0, 1]``: trapezoid weights per level."""
    return np.tensordot(trapezoid_weights(history.shape[0] - 1), history, axes=(0, 0))


class TestTimeIntegral:
    def test_constant_history_integrates_to_itself(self, grid, solver):
        history = np.ones((solver.num_time_steps + 1, *grid.shape))
        np.testing.assert_allclose(_time_integral(history), 1.0, atol=1e-14)

    def test_linear_in_time_history(self, grid, solver):
        # f(t) = t integrates to 1/2
        nt = solver.num_time_steps
        times = np.linspace(0, 1, nt + 1)
        history = np.stack([np.full(grid.shape, t) for t in times], axis=0)
        np.testing.assert_allclose(_time_integral(history), 0.5, atol=1e-12)

    def test_one_step_averages_the_endpoints(self):
        np.testing.assert_array_equal(trapezoid_weights(1), [0.5, 0.5])

    def test_vector_history_supported(self, grid, solver):
        history = np.ones((solver.num_time_steps + 1, 3, *grid.shape))
        out = _time_integral(history)
        assert out.shape == (3, *grid.shape)
        np.testing.assert_allclose(out, 1.0, atol=1e-14)
