"""The adjoint's ``div v`` source as a per-velocity growth factor.

Along a backward characteristic the adjoint obeys ``d nu/d tau = nu div v``;
Heun with the endpoint values of ``div v`` makes one step a multiplication,
``nu(x, t - dt) = I_X[nu] phi`` (see :mod:`repro.transport.solvers`).  The
scheme it replaced interpolated ``nu`` **and** ``nu div v`` per step; it is
kept here as the oracle (:func:`two_interpolant_adjoint`).  The two differ
by the interpolation error of a product, ``I_X[nu d]`` vs ``I_X[nu] I_X[d]``
— fourth order in ``h`` — not by the time error, which these tests pin:

* the new history converges to the oracle's at the interpolant's rate;
* the two invariants of the conservative adjoint (duality with the state,
  conserved integral) are met as well as by the oracle, and at second order
  in ``dt``;
* ``phi`` belongs to the plan's backward stepper: absent for ``div v = 0``,
  built once, by the first backward solve, never by a forward one;
* full Newton runs the same closed form with its grid-given source.
"""

import numpy as np
import pytest

from repro.core.problem import RegistrationProblem
from repro.data.synthetic import solenoidal_velocity, synthetic_registration_problem
from repro.transport.solvers import TransportSolver

from tests.fixtures import make_grid, smooth_scalar_field, smooth_vector_field


def compressible_velocity(grid, amplitude=0.4):
    """The suite's smooth velocity with ``div v != 0`` (``test_solvers``)."""
    x1, x2, x3 = grid.coordinates()
    return amplitude * np.stack(
        [np.sin(x1) * np.cos(x2), np.cos(x2) * np.sin(x3), np.sin(x3) * np.cos(x1)],
        axis=0,
    )


def solenoidal(grid):
    return solenoidal_velocity(grid, amplitude=0.5)


def two_interpolant_adjoint(plan, terminal):
    """The replaced scheme: Heun on ``nu`` and ``nu div v``, both interpolated."""
    stepper, div_v, dt = plan.backward_stepper, plan.divergence, plan.dt
    history = [terminal]
    for _ in range(plan.num_time_steps):
        nu = history[-1]
        nu_dep, f_dep = stepper.interpolator.interpolate_many_planned(
            np.stack([nu, nu * div_v]), stepper.departure_plan
        )
        predictor = nu_dep + dt * f_dep
        history.append(nu_dep + 0.5 * dt * (f_dep + predictor * div_v))
    return np.stack(history[::-1])


def sweeps_of(solver, call):
    interpolator = solver.interpolator
    before = interpolator.points_interpolated
    call()
    return (interpolator.points_interpolated - before) / solver.grid.num_points


def adjoint_pair(size, nt):
    """``(grid, state history, adjoint history, oracle adjoint history)``."""
    grid = make_grid(size)
    solver = TransportSolver(grid, num_time_steps=nt)
    plan = solver.plan(compressible_velocity(grid))
    rho = solver.solve_state(plan, 1.0 + 0.3 * smooth_scalar_field(grid, seed=30))
    terminal = 1.0 + 0.3 * smooth_scalar_field(grid, seed=31)
    return grid, rho, solver.solve_adjoint(plan, terminal), two_interpolant_adjoint(plan, terminal)


def duality_defect(grid, rho, lam):
    return abs(grid.inner(rho[-1], lam[-1]) / grid.inner(rho[0], lam[0]) - 1.0)


def mass_defect(lam):
    return abs(lam[0].mean() / lam[-1].mean() - 1.0)


class TestAgainstTheTwoInterpolantStep:
    @staticmethod
    def _gap(size):
        _, _, lam, oracle = adjoint_pair(size, nt=4)
        return np.linalg.norm(lam - oracle) / np.linalg.norm(oracle)

    def test_history_converges_to_the_oracle_with_the_interpolant(self):
        coarse, fine = self._gap(16), self._gap(32)
        assert 0.0 < coarse <= 5e-4
        assert coarse >= 8.0 * fine

    @pytest.mark.parametrize("size", [16, 32])
    def test_invariants_hold_as_well_as_the_oracles(self, size):
        defects = {}
        for nt in (4, 8):
            grid, rho, lam, oracle = adjoint_pair(size, nt)
            defects[nt] = (duality_defect(grid, rho, lam), mass_defect(lam))
            assert defects[nt][0] <= 1.05 * duality_defect(grid, rho, oracle)
            assert defects[nt][1] <= 1.05 * mass_defect(oracle)
        # the time error is still Heun's: halving dt divides it by ~4
        assert defects[4][0] >= 3.0 * defects[8][0]
        assert defects[4][1] >= 3.0 * defects[8][1]


class TestGrowthFactorLifecycle:
    def test_solenoidal_velocity_has_none_and_a_pure_advection(self):
        grid = make_grid(16)
        solver = TransportSolver(grid, num_time_steps=4)
        plan = solver.plan(solenoidal(grid))
        terminal = smooth_scalar_field(grid, seed=40)
        nbytes = plan.nbytes
        history = solver.solve_adjoint(plan, terminal)
        assert plan.is_divergence_free and plan.backward_stepper.growth is None
        assert plan.nbytes == nbytes
        advected = [terminal]
        for _ in range(4):
            advected.append(plan.backward_stepper.step(advected[-1]))
        np.testing.assert_array_equal(history, np.stack(advected[::-1]))

    def test_positive_below_unit_divergence_step(self):
        grid = make_grid(16)
        for nt, amplitude in ((4, 0.4), (2, 0.6), (1, 0.3)):
            solver = TransportSolver(grid, num_time_steps=nt)
            plan = solver.plan(compressible_velocity(grid, amplitude))
            assert plan.dt * np.abs(plan.divergence).max() < 1.0
            solver.solve_adjoint(plan, grid.zeros())
            assert plan.backward_stepper.growth.min() > 0.0

    def test_built_once_by_the_first_backward_solve(self):
        grid = make_grid(16)
        nt = 4
        solver = TransportSolver(grid, num_time_steps=nt)
        plan = solver.plan(compressible_velocity(grid))
        terminal = smooth_scalar_field(grid, seed=41)
        solver.solve_state(plan, terminal)
        solver.solve_state_final(plan, terminal)
        assert plan.backward_stepper.growth is None  # forward solves never ask
        nbytes = plan.nbytes
        assert sweeps_of(solver, lambda: solver.solve_adjoint(plan, terminal)) == nt + 1
        growth = plan.backward_stepper.growth
        assert plan.nbytes == nbytes + growth.nbytes
        assert sweeps_of(solver, lambda: solver.solve_adjoint(plan, terminal)) == nt
        assert sweeps_of(solver, lambda: solver.solve_incremental_adjoint(plan, terminal)) == nt
        assert plan.backward_stepper.growth is growth

    def test_objective_evaluation_never_builds_it(self):
        synthetic = synthetic_registration_problem(12)
        problem = RegistrationProblem(
            grid=synthetic.grid, reference=synthetic.reference, template=synthetic.template
        )
        velocity = compressible_velocity(problem.grid, 0.2)
        problem.evaluate_objective(velocity)
        problem.evaluate_objective(velocity, keep_trial=True)
        _, _, plan, _ = problem._trial
        assert not plan.is_divergence_free and plan.backward_stepper.growth is None
        iterate = problem.linearize(velocity)  # adopts the trial's plan
        assert iterate.plan is plan and plan.backward_stepper.growth is not None


class TestFullNewtonIncrementalAdjoint:
    NT = 4

    def _setup(self, velocity_of):
        grid = make_grid(16)
        solver = TransportSolver(grid, num_time_steps=self.NT)
        plan = solver.plan(velocity_of(grid))
        adjoint = solver.solve_adjoint(plan, smooth_scalar_field(grid, seed=50))
        return grid, solver, plan, adjoint

    def _solve(self, solver, plan, adjoint, terminal, perturbation):
        return solver.solve_incremental_adjoint(
            plan, terminal, perturbation=perturbation, adjoint_history=adjoint, gauss_newton=False
        )

    @pytest.mark.parametrize(
        "velocity_of, per_step", [(solenoidal, 1), (compressible_velocity, 2)]
    )
    def test_sweeps_per_step(self, velocity_of, per_step):
        grid, solver, plan, adjoint = self._setup(velocity_of)
        terminal = smooth_scalar_field(grid, seed=51)
        perturbation = 0.3 * smooth_vector_field(grid, seed=52)
        sweeps = sweeps_of(
            solver, lambda: self._solve(solver, plan, adjoint, terminal, perturbation)
        )
        assert sweeps == per_step * self.NT

    @pytest.mark.parametrize("velocity_of", [solenoidal, compressible_velocity])
    def test_linear_in_terminal_and_perturbation(self, velocity_of):
        grid, solver, plan, adjoint = self._setup(velocity_of)
        terminals = [smooth_scalar_field(grid, seed=seed) for seed in (53, 54)]
        perturbations = [0.3 * smooth_vector_field(grid, seed=seed) for seed in (55, 58)]
        a, b = 0.7, -1.3
        combined = self._solve(
            solver, plan, adjoint,
            a * terminals[0] + b * terminals[1],
            a * perturbations[0] + b * perturbations[1],
        )
        parts = [
            self._solve(solver, plan, adjoint, terminals[k], perturbations[k]) for k in (0, 1)
        ]
        np.testing.assert_allclose(combined, a * parts[0] + b * parts[1], rtol=0, atol=1e-11)

    def test_compressible_step_is_the_closed_form(self):
        """``I_X[nu] phi + I_X[g_old] psi + dt/2 g_new`` with the spectral source."""
        grid, solver, plan, adjoint = self._setup(compressible_velocity)
        terminal = smooth_scalar_field(grid, seed=56)
        perturbation = 0.3 * smooth_vector_field(grid, seed=57)
        history = self._solve(solver, plan, adjoint, terminal, perturbation)
        sources = solver.operators.divergence_many(adjoint[:, None] * perturbation[None])
        dt, stepper = plan.dt, plan.backward_stepper
        psi = 0.5 * dt * (1.0 + dt * plan.divergence)
        def at_departure(field):
            return stepper.interpolator.interpolate_planned(field, stepper.departure_plan)

        for j in range(self.NT, 0, -1):
            expected = (
                at_departure(history[j]) * stepper.growth
                + at_departure(sources[j]) * psi
                + 0.5 * dt * sources[j - 1]
            )
            np.testing.assert_allclose(history[j - 1], expected, rtol=0, atol=1e-13)


@pytest.mark.parametrize("gauss_newton", [True, False])
@pytest.mark.parametrize("incompressible", [False, True])
class TestDerivativeChecks:
    """The finite-difference checks of ``tests/core/test_problem.py``, same
    tolerances, over both Hessian variants and both constraint settings."""

    @staticmethod
    def _problem(incompressible, gauss_newton, beta):
        synthetic = synthetic_registration_problem(12, num_time_steps=4)
        return RegistrationProblem(
            grid=synthetic.grid,
            reference=synthetic.reference,
            template=synthetic.template,
            beta=beta,
            num_time_steps=4,
            incompressible=incompressible,
            gauss_newton=gauss_newton,
        )

    def test_gradient_matches_finite_differences(self, incompressible, gauss_newton):
        problem = self._problem(incompressible, gauss_newton, beta=1e-2)
        grid = problem.grid
        v = problem.project(0.3 * smooth_vector_field(grid, seed=2))
        iterate = problem.linearize(v)
        direction = iterate.gradient
        eps = 1e-4
        plus = problem.evaluate_objective(v + eps * direction).total
        minus = problem.evaluate_objective(v - eps * direction).total
        assert grid.inner(iterate.gradient, direction) == pytest.approx(
            (plus - minus) / (2 * eps), rel=5e-2
        )

    def test_hessian_matches_gradient_difference(self, incompressible, gauss_newton):
        problem = self._problem(incompressible, gauss_newton, beta=1e-1)
        grid = problem.grid
        v = problem.project(0.2 * smooth_vector_field(grid, seed=17))
        d = problem.project(0.2 * smooth_vector_field(grid, seed=18))
        hv = problem.hessian_matvec(problem.linearize(v), d)
        eps = 1e-3
        fd = (
            problem.linearize(v + eps * d).gradient - problem.linearize(v - eps * d).gradient
        ) / (2 * eps)
        assert grid.norm(hv - fd) / grid.norm(fd) < 0.15
