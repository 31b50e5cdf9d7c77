"""One iterate alive at a time: every per-iterate array ends at its last reader.

A solve keeps the state and adjoint histories of its current iterate in
memory (Sec. III-B2 of the paper), and nothing else of the kind: the previous
iterate is gone before the next one is built, a Gauss-Newton mat-vec keeps
one level of the incremental state, a stepper keeps no velocity, and a
``beta``-continuation keeps only its last level's iterate.  A finished
``register()`` keeps its answer, not its solver: no iterate, no gradient
stack, no plan.  Pinned with weak references, so the tests are deterministic
and read no memory counter.
"""

import gc
import weakref

import numpy as np
import pytest

from repro import register
from repro.core import gradients
from repro.core.optim.continuation import BetaContinuation
from repro.core.optim.gauss_newton import GaussNewtonKrylov, SolverOptions
from repro.core.problem import RegistrationProblem
from repro.data.synthetic import (
    sinusoidal_template,
    synthetic_registration_problem,
    synthetic_velocity,
)
from repro.spectral.grid import Grid
from repro.transport.semi_lagrangian import SemiLagrangianStepper, cfl_number
from repro.transport.solvers import TransportSolver

OPTIONS = SolverOptions(gradient_tolerance=1e-3, max_newton_iterations=5)


def make_problem(gauss_newton: bool = True) -> RegistrationProblem:
    synthetic = synthetic_registration_problem(12)
    return RegistrationProblem(
        grid=synthetic.grid,
        reference=synthetic.reference,
        template=synthetic.template,
        gauss_newton=gauss_newton,
    )


def alive(refs):
    return [ref for ref in refs if ref() is not None]


@pytest.fixture()
def lifetimes(monkeypatch):
    """Weak references to every iterate and gradient stack a solve makes.

    Records, at every gradient-stack build, mat-vec and line-search trial,
    how many earlier iterates and stacks were still alive.
    """
    record = {"iterates": [], "stacks": [], "at_build": [], "elsewhere": []}
    linearize = RegistrationProblem.linearize
    build = gradients.build_gradient_stack
    matvec = RegistrationProblem.hessian_matvec
    trial = RegistrationProblem.trial_objective

    def census():
        return len(alive(record["iterates"])), len(alive(record["stacks"]))

    def recording_linearize(self, velocity):
        iterate = linearize(self, velocity)
        record["iterates"].append(weakref.ref(iterate))
        return iterate

    def recording_build(operators, state_history):
        record["at_build"].append(census())
        stack = build(operators, state_history)
        record["stacks"].append(weakref.ref(stack))
        return stack

    def recording_matvec(self, iterate, direction):
        record["elsewhere"].append(census())
        return matvec(self, iterate, direction)

    def recording_trial(self, velocity):
        record["elsewhere"].append(census())
        return trial(self, velocity)

    monkeypatch.setattr(RegistrationProblem, "linearize", recording_linearize)
    monkeypatch.setattr(gradients, "build_gradient_stack", recording_build)
    monkeypatch.setattr(RegistrationProblem, "hessian_matvec", recording_matvec)
    monkeypatch.setattr(RegistrationProblem, "trial_objective", recording_trial)
    return record


class TestOneIterateAlive:
    @pytest.mark.parametrize("gauss_newton", [True, False], ids=["gauss_newton", "full_newton"])
    def test_the_previous_iterate_is_dead_when_the_next_stack_is_built(
        self, lifetimes, gauss_newton
    ):
        problem = make_problem(gauss_newton)
        result = GaussNewtonKrylov(problem, OPTIONS).solve()
        assert result.num_iterations >= 3
        # one build per iterate, and none of them saw an earlier iterate or stack
        assert len(lifetimes["at_build"]) == len(lifetimes["iterates"]) == len(
            lifetimes["stacks"]
        )
        assert lifetimes["at_build"] == [(0, 0)] * len(lifetimes["at_build"])

    def test_at_most_one_gradient_stack_is_alive_across_a_solve(self, lifetimes):
        result = GaussNewtonKrylov(make_problem(), OPTIONS).solve()
        assert result.total_hessian_matvecs > 0
        assert lifetimes["elsewhere"]
        assert all(iterates == stacks == 1 for iterates, stacks in lifetimes["elsewhere"])
        # the result holds the last iterate and its stack; nothing else is left
        gc.collect()
        assert len(alive(lifetimes["iterates"])) == len(alive(lifetimes["stacks"])) == 1
        assert alive(lifetimes["iterates"])[0]() is result.final_iterate


class TestAFinishedResultKeepsItsAnswer:
    @pytest.fixture()
    def finished(self, lifetimes):
        synthetic = synthetic_registration_problem(12)
        result = register(synthetic.template, synthetic.reference, options=OPTIONS)
        gc.collect()
        return result

    def test_no_iterate_or_gradient_stack_outlives_register(self, lifetimes, finished):
        assert finished.num_newton_iterations >= 3
        assert lifetimes["iterates"] and lifetimes["stacks"]
        assert alive(lifetimes["iterates"]) == alive(lifetimes["stacks"]) == []
        assert finished.optimization.final_iterate is None

    def test_the_deformed_template_owns_its_data(self, finished):
        template = finished.deformed_template
        assert template.flags.owndata and template.base is None
        assert template.shape == finished.problem.grid.shape

    def test_the_deformation_map_drops_its_plan(self, finished):
        deformation = finished.deformation
        assert deformation.plan is None
        # map, determinant and warp read the cached displacement
        displacement = deformation.displacement()
        assert deformation.map().shape == displacement.shape
        assert deformation.determinant().min() == finished.det_grad_stats["min"]
        assert deformation.plan is None


class TestIncrementalStateFinalLevel:
    @pytest.mark.parametrize("cached", [True, False], ids=["cached", "lazy"])
    def test_the_final_level_is_bitwise_the_histories_last(self, cached):
        grid = Grid((12, 12, 12))
        transport = TransportSolver(grid, num_time_steps=4)
        plan = transport.plan(0.5 * synthetic_velocity(grid))
        state = transport.solve_state(plan, sinusoidal_template(grid))
        direction = np.random.default_rng(3).standard_normal((3, *grid.shape))
        stack = gradients.build_gradient_stack(transport.operators, state) if cached else None
        source = None if stack is None else gradients.CachedStateGradients(stack)
        before = transport.interpolator.points_interpolated
        history = transport.solve_incremental_state(plan, direction, state, source)
        between = transport.interpolator.points_interpolated
        final = transport.solve_incremental_state(
            plan, direction, state, source, keep_history=False
        )
        assert final.shape == grid.shape
        np.testing.assert_array_equal(final, history[-1])
        # the same steps: the same sweeps
        assert transport.interpolator.points_interpolated - between == between - before


class TestContinuationKeepsTheLastIterate:
    def test_earlier_levels_hold_no_iterate(self, lifetimes):
        problem = make_problem()
        result = BetaContinuation(
            problem,
            SolverOptions(gradient_tolerance=1e-2, max_newton_iterations=4),
            initial_beta=1e-1,
            target_beta=1e-3,
            reduction=0.1,
            det_grad_bound=0.0,
        ).run()
        assert result.num_levels == 3
        *earlier, last = result.steps
        for step in earlier:
            assert step.result.final_iterate is None
            # what an earlier level reports stays
            assert step.result.velocity.shape == (3, *problem.grid.shape)
            assert step.result.iterations and np.isfinite(step.det_grad_min)
            assert step.result.final_gradient_norm == step.result.iterations[-1].gradient_norm
        assert last.result.final_iterate is not None
        assert last.result.final_gradient_norm == last.result.final_iterate.gradient_norm
        np.testing.assert_array_equal(last.result.final_iterate.velocity, result.velocity)
        gc.collect()
        assert [ref() for ref in alive(lifetimes["iterates"])] == [last.result.final_iterate]

    def test_a_rejected_last_level_keeps_its_own_iterate(self, lifetimes):
        # at 12^3 the levels reach min det(grad y1) of about 0.55, 0.22, 0.12:
        # a bound of 0.3 accepts the first level and rejects the second
        problem = make_problem()
        result = BetaContinuation(
            problem,
            SolverOptions(gradient_tolerance=1e-2, max_newton_iterations=4),
            initial_beta=1e-1,
            target_beta=1e-3,
            reduction=0.1,
            det_grad_bound=0.3,
        ).run()
        accepted, rejected = result.steps
        assert accepted.accepted and not rejected.accepted
        assert result.velocity is accepted.result.velocity
        assert result.final_beta == accepted.beta
        # the run's answer holds no iterate; the one kept is the rejected level's
        assert accepted.result.final_iterate is None
        kept = rejected.result.final_iterate
        np.testing.assert_array_equal(kept.velocity, rejected.result.velocity)
        assert not np.array_equal(kept.velocity, result.velocity)
        gc.collect()
        assert [ref() for ref in alive(lifetimes["iterates"])] == [kept]


class TestStepperKeepsNoVelocity:
    def test_no_velocity_array_after_planning(self):
        grid = Grid((12, 12, 12))
        velocity = 0.5 * synthetic_velocity(grid)
        dropped = weakref.ref(velocity)
        stepper = SemiLagrangianStepper(grid, velocity, 0.25)
        del velocity
        gc.collect()
        assert dropped() is None
        assert not hasattr(stepper, "velocity")
        held = [*vars(stepper).values(), *vars(stepper.departure_plan).values()]
        assert not [a for a in held if isinstance(a, np.ndarray) and a.shape == (3, *grid.shape)]

    def test_a_plans_steppers_hold_no_velocity(self):
        grid = Grid((12, 12, 12))
        plan = TransportSolver(grid).plan(0.5 * synthetic_velocity(grid))
        for stepper in (plan.forward_stepper, plan.backward_stepper):
            assert not hasattr(stepper, "velocity")
            assert stepper.nbytes == sum(
                a.nbytes for a in (stepper.departure_plan, stepper.growth) if a is not None
            )

    @pytest.mark.parametrize("nt", [1, 2, 4, 8, 16])
    def test_cfl_number_is_unchanged(self, nt):
        # the inputs of benchmarks/bench_ablation_timestepping.py
        grid = Grid((32, 32, 32))
        velocity = synthetic_velocity(grid)
        dt = 1.0 / nt
        vmax = np.max(np.abs(velocity.reshape(3, -1)), axis=1)
        expected = float(np.max(vmax * dt / np.asarray(grid.spacing)))
        assert cfl_number(grid, velocity, dt) == expected
        # the backward direction of a plan reads the same speeds
        assert cfl_number(grid, -velocity, dt) == expected
