"""A ``beta``-continuation level starts from the previous level's live iterate.

Each level of :class:`BetaContinuation` warm-starts from the velocity the
previous level ended on, which is still the problem's live iterate: its
first ``linearize`` reuses that iterate's plan, state, adjoint and gradient
stack and recomputes only what ``beta`` changes.  Pinned here: a level
transition plans nothing and gathers nothing before its first PCG solve; a
whole run is bitwise the run whose live slot is cleared between levels; and
an incompressible warm start — re-projected, so no longer bitwise the live
velocity — takes the normal path.
"""

import numpy as np
import pytest

from repro.core.optim import gauss_newton
from repro.core.optim.continuation import BetaContinuation
from repro.core.optim.gauss_newton import GaussNewtonKrylov, SolverOptions
from repro.core.problem import RegistrationProblem
from repro.data.synthetic import synthetic_registration_problem
from repro.transport.solvers import TransportSolver

OPTIONS = SolverOptions(gradient_tolerance=1e-2, max_newton_iterations=4, max_krylov_iterations=8)


def make_problem(incompressible: bool = False) -> RegistrationProblem:
    synthetic = synthetic_registration_problem(12, incompressible=incompressible)
    return RegistrationProblem(
        grid=synthetic.grid,
        reference=synthetic.reference,
        template=synthetic.template,
        incompressible=incompressible,
    )


def run_continuation(problem: RegistrationProblem, target_beta: float = 1e-3):
    return BetaContinuation(
        problem, OPTIONS, initial_beta=1e-1, target_beta=target_beta, reduction=0.1
    ).run()


@pytest.fixture()
def level_starts(monkeypatch):
    """Per level: (plans, gathered points) at its start and at its first PCG solve."""
    counts = {"plans": 0}
    levels = []
    problems = []
    original_plan = TransportSolver.plan
    original_solve = GaussNewtonKrylov.solve
    original_pcg = gauss_newton.pcg

    def snapshot():
        return counts["plans"], problems[-1].transport.interpolator.points_interpolated

    def counting_plan(self, velocity, spectrum=None):
        counts["plans"] += 1
        return original_plan(self, velocity, spectrum=spectrum)

    def recording_solve(self, initial_velocity=None):
        problems.append(self.problem)
        levels.append({"start": snapshot(), "first_pcg": None})
        return original_solve(self, initial_velocity)

    def recording_pcg(*args, **kwargs):
        if levels[-1]["first_pcg"] is None:
            levels[-1]["first_pcg"] = snapshot()
        return original_pcg(*args, **kwargs)

    monkeypatch.setattr(TransportSolver, "plan", counting_plan)
    monkeypatch.setattr(GaussNewtonKrylov, "solve", recording_solve)
    monkeypatch.setattr(gauss_newton, "pcg", recording_pcg)
    return levels


def cleared_between_levels(problem: RegistrationProblem) -> RegistrationProblem:
    """*problem* with its per-velocity slots released at every level change."""
    set_beta = problem.set_beta

    def release_then_set_beta(beta):
        problem.release()
        set_beta(beta)

    problem.set_beta = release_then_set_beta
    return problem


class TestLevelTransition:
    def test_no_plan_and_no_sweep_before_the_first_pcg_solve(self, level_starts):
        result = run_continuation(make_problem())
        assert result.num_levels == 3
        assert all(level["first_pcg"] is not None for level in level_starts)
        for level in level_starts[1:]:
            assert level["first_pcg"] == level["start"]
        # the first level plans (v = 0, then its trials) like any solve
        assert level_starts[0]["first_pcg"][0] > level_starts[0]["start"][0]

    def test_a_cleared_slot_plans_and_sweeps_again(self, level_starts):
        run_continuation(cleared_between_levels(make_problem()))
        for level in level_starts[1:]:
            (plans, points), (start_plans, start_points) = level["first_pcg"], level["start"]
            assert plans == start_plans + 1 and points > start_points

    def test_bitwise_equal_to_a_run_with_the_slot_cleared(self):
        handed = run_continuation(make_problem())
        cleared = run_continuation(cleared_between_levels(make_problem()))
        np.testing.assert_array_equal(handed.velocity, cleared.velocity)
        assert handed.final_beta == cleared.final_beta
        assert [
            (step.result.num_iterations, step.result.total_hessian_matvecs)
            for step in handed.steps
        ] == [
            (step.result.num_iterations, step.result.total_hessian_matvecs)
            for step in cleared.steps
        ]
        for ours, theirs in zip(handed.steps, cleared.steps):
            np.testing.assert_array_equal(ours.result.velocity, theirs.result.velocity)
            assert ours.det_grad_min == theirs.det_grad_min

    def test_the_run_releases_the_problem(self):
        problem = make_problem()
        result = run_continuation(problem, target_beta=1e-2)
        assert problem.transport.interpolator.resident_operators == 0
        assert problem.trial_velocity is None
        # a later linearize at the final velocity plans afresh, same bits
        final = result.steps[-1].result.final_iterate
        again = problem.linearize(result.velocity)
        assert again.plan is not final.plan
        np.testing.assert_array_equal(again.gradient_spectrum, final.gradient_spectrum)


class TestIncompressibleWarmStart:
    def test_a_reprojected_start_takes_the_normal_path(self, level_starts):
        problem = make_problem(incompressible=True)
        result = run_continuation(problem, target_beta=1e-2)
        assert result.num_levels == 2
        ended = result.steps[0].result.velocity
        # GaussNewtonKrylov projects its initial velocity: not bitwise the live one
        assert not np.array_equal(problem.project(ended.copy()), ended)
        second = level_starts[1]
        assert second["first_pcg"] is not None
        assert second["first_pcg"][0] == second["start"][0] + 1  # planned again
        assert second["first_pcg"][1] > second["start"][1]  # and transported
