"""The accepted line-search trial becomes the next iterate as it stands.

``RegistrationProblem.evaluate_objective(..., keep_trial=True)`` (what
``trial_objective`` — the line search's callable — does, on the projected
trial) parks ``(velocity, its half-spectra, plan, state history)`` in the
problem's one trial slot; ``linearize`` of a content-equal velocity adopts
it instead of transforming, planning and transporting a second time.  Pinned
here: the adopted iterate is the one a fresh ``linearize`` builds, the slot
holds one trial at most and none after a rejection, and anything else takes
the normal path.  Planning is observed through ``TransportSolver.plan``
calls and plan identity — nothing per-velocity goes through the plan pool.

"Is the one": bitwise for a compressible problem, whose trial spectrum is
``forward(trial)`` — exactly what a fresh ``linearize`` computes.  An
incompressible trial keeps the spectrum it was projected in,
``P^ forward(trial)``, and its velocity is the inverse transform of that; a
fresh ``linearize`` transforms the projected field again and gets the same
spectrum to round-off only.  The velocities are still bitwise equal; what is
planned from the spectrum (departure points, hence histories and gradient)
agrees to ``1e-13`` of its size.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.core.optim.gauss_newton import GaussNewtonKrylov, SolverOptions
from repro.core.optim.gradient_descent import GradientDescent
from repro.core.optim.line_search import ArmijoLineSearch
from repro.core.preconditioner import SpectralPreconditioner
from repro.core.problem import RegistrationProblem
from repro.data.synthetic import synthetic_registration_problem
from repro.transport.solvers import TransportSolver

from tests.fixtures import smooth_velocity_field

VARIANTS = [
    pytest.param(dict(gauss_newton=True, incompressible=False), id="gn"),
    pytest.param(dict(gauss_newton=False, incompressible=False), id="newton"),
    pytest.param(dict(gauss_newton=True, incompressible=True), id="gn-incompressible"),
]


def make_problem(**kwargs) -> RegistrationProblem:
    incompressible = kwargs.get("incompressible", False)
    synthetic = synthetic_registration_problem(12, incompressible=incompressible)
    return RegistrationProblem(
        grid=synthetic.grid, reference=synthetic.reference, template=synthetic.template, **kwargs
    )


@pytest.fixture()
def plans(monkeypatch):
    """Every velocity ``TransportSolver.plan`` is called for, in order."""
    planned = []
    original = TransportSolver.plan

    def recording_plan(self, velocity, spectrum=None):
        planned.append(np.array(velocity))
        return original(self, velocity, spectrum=spectrum)

    monkeypatch.setattr(TransportSolver, "plan", recording_plan)
    return planned


def handoff_rtol(problem) -> float:
    """0 (bitwise) for compressible problems, round-off for projected trials."""
    return 1e-13 if problem.incompressible else 0.0


def assert_same_iterate(actual, expected, rtol=0.0):
    np.testing.assert_array_equal(actual.velocity, expected.velocity)
    for name in ("state_history", "adjoint_history", "gradient"):
        reference = getattr(expected, name)
        np.testing.assert_allclose(
            getattr(actual, name), reference, rtol=0, atol=rtol * np.abs(reference).max()
        )
    for part in ("distance", "regularization"):
        assert getattr(actual.objective, part) == pytest.approx(
            getattr(expected.objective, part), rel=rtol, abs=0
        )
    assert actual.plan.is_divergence_free == expected.plan.is_divergence_free


@pytest.mark.parametrize("kwargs", VARIANTS)
class TestAdoptedIterate:
    def test_bitwise_equal_to_a_fresh_linearize(self, kwargs, plans):
        problem = make_problem(**kwargs)
        trial = problem.project(smooth_velocity_field(problem.grid, seed=5, amplitude=0.2))
        value = problem.trial_objective(trial)
        assert problem.trial_velocity is not None
        trial_plan = problem._trial[2]
        planned = len(plans)
        interpolator = problem.transport.interpolator
        swept = interpolator.points_interpolated
        adopted = problem.linearize(problem.trial_velocity)
        assert len(plans) == planned and adopted.plan is trial_plan
        adopted_sweeps = (interpolator.points_interpolated - swept) / problem.grid.num_points
        assert problem.trial_velocity is None  # consumed

        fresh_problem = make_problem(**kwargs)
        fresh = fresh_problem.linearize(problem.project(trial))
        assert_same_iterate(adopted, fresh, handoff_rtol(problem))
        assert value == pytest.approx(fresh.objective.total, rel=handoff_rtol(problem), abs=0)
        # the state equation was not solved again: only the adjoint gathered
        fresh_sweeps = (
            fresh_problem.transport.interpolator.points_interpolated / problem.grid.num_points
        )
        assert adopted_sweeps == fresh_sweeps - problem.num_time_steps
        # ... one sweep per step, plus the growth factor's when div v != 0
        assert adopted_sweeps == problem.num_time_steps + (
            0 if adopted.plan.is_divergence_free else 1
        )

    def test_different_velocity_takes_the_normal_path(self, kwargs, plans):
        problem = make_problem(**kwargs)
        problem.trial_objective(smooth_velocity_field(problem.grid, seed=5, amplitude=0.2))
        trial_plan = problem._trial[2]
        other = problem.project(smooth_velocity_field(problem.grid, seed=6, amplitude=0.1))
        planned = len(plans)
        iterate = problem.linearize(other)
        assert len(plans) == planned + 1 and iterate.plan is not trial_plan
        np.testing.assert_array_equal(plans[-1], other)
        assert problem.trial_velocity is None  # a stale trial does not outlive an iterate
        assert_same_iterate(iterate, make_problem(**kwargs).linearize(other))


class TestTrialSlot:
    def test_standalone_objective_keeps_nothing(self):
        problem = make_problem()
        velocity = smooth_velocity_field(problem.grid, seed=5, amplitude=0.2)
        kept = problem.evaluate_objective(velocity, keep_trial=True)
        assert problem.evaluate_objective(velocity) == kept  # same steps, same bits
        assert problem.trial_velocity is velocity  # ... and the slot is left alone
        assert make_problem().evaluate_objective(velocity) == kept
        fresh = make_problem()
        fresh.evaluate_objective(velocity)
        assert fresh.trial_velocity is None

    def test_rejected_trial_leaves_no_slot_and_no_extra_operator(self, plan_pool):
        """One slot: the next trial replaces (releases) a rejected one, and a
        search that gives up releases the last; each trial starts by releasing
        every resident operator, so the interpolator holds only the last
        trial's forward one — history-free evaluations of the same trials,
        which release nothing, leave two — and the pool holds nothing."""
        problem = make_problem()
        first = smooth_velocity_field(problem.grid, seed=5, amplitude=0.2)
        second = 0.5 * first
        problem.trial_objective(first)
        first_plan = weakref.ref(problem._trial[2])
        problem.trial_objective(second)
        np.testing.assert_array_equal(problem.trial_velocity, second)
        gc.collect()
        assert first_plan() is None  # the rejected trial's plan died with it
        problem.release_trial()
        assert problem.trial_velocity is None
        kept = problem.transport.interpolator.resident_operators

        plain = make_problem()
        plain.evaluate_objective(first)
        plain.evaluate_objective(second)
        assert kept == 1
        assert plain.transport.interpolator.resident_operators == 2
        assert plan_pool.stats.entries == 0

    def test_failed_line_search_releases_the_trial(self):
        problem = make_problem()
        options = SolverOptions(
            max_newton_iterations=2,
            # a step this long never decreases J, and one evaluation is all it gets
            line_search=ArmijoLineSearch(initial_step=1e3, max_evaluations=1),
        )
        for driver in (GaussNewtonKrylov, GradientDescent):
            result = driver(problem, options).solve()
            assert result.termination_reason == "line_search_failure"
            assert problem.trial_velocity is None
            np.testing.assert_array_equal(result.velocity, 0.0)

    def test_backtracked_acceptance_hands_over_the_second_trial(self, plans):
        problem = make_problem(incompressible=True)
        iterate = problem.linearize(problem.zero_velocity())
        direction = problem.operators.fft.inverse_vector(
            SpectralPreconditioner(problem.regularizer)(-iterate.gradient_spectrum)
        )
        trials = []

        def objective(velocity):
            trials.append(velocity)
            return problem.trial_objective(velocity)

        # the first step overshoots: J goes up, the search halves it
        step = 1.0
        while problem.evaluate_objective(
            problem.project(step * direction)
        ).total < iterate.objective.total:
            step *= 4.0
        search = ArmijoLineSearch(initial_step=step)
        ls = search.search(
            objective, problem.grid, iterate.velocity, iterate.objective.total,
            iterate.gradient, direction,
        )
        assert ls.success and ls.evaluations >= 2
        accepted = problem.project(trials[-1])
        np.testing.assert_array_equal(problem.trial_velocity, accepted)
        np.testing.assert_array_equal(accepted, problem.project(ls.step_length * direction))
        trial_plan, planned = problem._trial[2], len(plans)
        adopted = problem.linearize(problem.trial_velocity)
        assert len(plans) == planned and adopted.plan is trial_plan
        assert_same_iterate(
            adopted, make_problem(incompressible=True).linearize(accepted), handoff_rtol(problem)
        )


class TestDrivers:
    @pytest.mark.parametrize("driver", [GaussNewtonKrylov, GradientDescent])
    @pytest.mark.parametrize("kwargs", VARIANTS)
    def test_solve_never_plans_an_accepted_trial_again(self, driver, kwargs, plans, plan_pool):
        problem = make_problem(**kwargs)
        options = SolverOptions(max_newton_iterations=3, max_krylov_iterations=5)
        planned = len(plans)
        result = driver(problem, options).solve()
        assert result.num_iterations == 3
        trials = sum(record.line_search_evaluations for record in result.iterations)
        assert len(plans) - planned == 1 + trials  # the initial guess, then each trial
        assert plan_pool.stats.entries == 0
        assert problem.trial_velocity is None
        fresh = make_problem(**kwargs).linearize(result.velocity)
        assert_same_iterate(result.final_iterate, fresh, handoff_rtol(problem))

    def test_incompressible_solve_plans_each_velocity_once(self, plans, monkeypatch):
        """One ``TransportSolver.plan`` per planned velocity — the projected
        trial is not re-planned by ``linearize`` — and every iterate is
        divergence-free."""
        problem = make_problem(incompressible=True)
        before = len(plans)  # the synthetic reference planned one
        iterates = []
        linearize = problem.linearize

        def recording_linearize(velocity):
            iterates.append(linearize(velocity))
            return iterates[-1]

        monkeypatch.setattr(problem, "linearize", recording_linearize)
        result = GaussNewtonKrylov(
            problem, SolverOptions(max_newton_iterations=4, max_krylov_iterations=8)
        ).solve()
        trials = sum(record.line_search_evaluations for record in result.iterations)
        planned = 1 + trials  # the initial guess, then one velocity per trial
        assert len(plans) - before == planned
        assert len(iterates) == 1 + result.num_iterations
        grid, operators = problem.grid, problem.operators
        for iterate in iterates:
            divergence = grid.norm(operators.divergence(iterate.velocity))
            assert divergence <= 1e-10 * max(grid.norm(iterate.velocity), 1e-300)
            assert iterate.plan.is_divergence_free
