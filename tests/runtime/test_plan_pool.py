"""Tests for the shared plan pool (repro.runtime.plan_pool)."""

import numpy as np
import pytest

from repro.core.gradients import gradient_cache_decision_log
from repro.core.optim.continuation import BetaContinuation
from repro.core.optim.gauss_newton import SolverOptions
from repro.core.problem import RegistrationProblem
from repro.core.registration import register
from repro.data.synthetic import synthetic_registration_problem
from repro.runtime.plan_pool import (
    DEFAULT_POOL_BYTES,
    POOL_BYTES_ENV_VAR,
    PlanPool,
    PoolStats,
    array_fingerprint,
    configure_plan_pool,
    get_plan_pool,
    reset_plan_pool,
)
from repro.spectral.grid import Grid
from repro.transport.interpolation import PeriodicInterpolator
from repro.transport.semi_lagrangian import SemiLagrangianStepper
from repro.transport.solvers import TransportSolver

from tests.fixtures import smooth_velocity_field


class _Sized:
    def __init__(self, nbytes):
        self.nbytes = nbytes


class TestPlanPoolCore:
    def test_hit_miss_counters(self):
        pool = PlanPool(max_bytes=1000)
        builds = []
        value = pool.get("a", lambda: builds.append(1) or _Sized(10))
        assert pool.get("a", lambda: builds.append(1) or _Sized(10)) is value
        assert len(builds) == 1
        assert pool.stats.hits == 1
        assert pool.stats.misses == 1

    def test_byte_accounting_matches_stored_nbytes(self):
        """The pool's running total is exactly the sum of stored plan nbytes."""
        pool = PlanPool(max_bytes=10**9)
        rng = np.random.default_rng(0)
        plans = []
        for seed in range(4):
            plan = pool.get(
                ("payload", seed),
                lambda n=100 + seed: rng.uniform(0, 8, size=(3, n)),
            )
            plans.append(plan)
        assert pool.current_bytes == sum(plan.nbytes for plan in plans)
        assert pool.stats.entries == 4

    def test_lru_eviction_order(self):
        pool = PlanPool(max_bytes=25)
        pool.get("a", lambda: _Sized(10))
        pool.get("b", lambda: _Sized(10))
        pool.get("c", lambda: _Sized(10))  # exceeds 25 -> evict "a" (LRU)
        assert pool.keys() == ("b", "c")
        assert pool.stats.evictions == 1
        assert pool.current_bytes == 20

    def test_recently_used_entry_survives_eviction(self):
        pool = PlanPool(max_bytes=25)
        pool.get("a", lambda: _Sized(10))
        pool.get("b", lambda: _Sized(10))
        pool.get("a", lambda: _Sized(10))  # touch "a" -> "b" becomes LRU
        pool.get("c", lambda: _Sized(10))
        assert pool.keys() == ("a", "c")

    def test_oversize_entry_is_returned_but_not_stored(self):
        pool = PlanPool(max_bytes=25)
        pool.get("small", lambda: _Sized(10))
        big = pool.get("big", lambda: _Sized(100))
        assert big.nbytes == 100
        assert pool.keys() == ("small",)  # the contents survive the oversize build
        assert pool.stats.oversize_rejections == 1
        assert pool.current_bytes == 10

    def test_zero_budget_disables_caching(self):
        pool = PlanPool(max_bytes=0)
        builds = []
        pool.get("a", lambda: builds.append(1) or _Sized(10))
        pool.get("a", lambda: builds.append(1) or _Sized(10))
        assert len(builds) == 2
        assert pool.stats.misses == 2
        assert pool.current_bytes == 0

    def test_env_var_sets_default_budget(self, monkeypatch):
        monkeypatch.setenv(POOL_BYTES_ENV_VAR, "12345")
        assert PlanPool().max_bytes == 12345
        monkeypatch.delenv(POOL_BYTES_ENV_VAR)
        assert PlanPool().max_bytes == DEFAULT_POOL_BYTES

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            PlanPool(max_bytes=-1)

    @pytest.mark.parametrize("budget", [2.5, True, "10"])
    def test_a_budget_that_is_not_an_integer_is_a_named_type_error(self, budget):
        before = get_plan_pool().max_bytes
        for set_budget in (PlanPool, get_plan_pool().set_max_bytes, configure_plan_pool):
            with pytest.raises(TypeError, match="max_bytes must be an integer"):
                set_budget(budget)
        assert get_plan_pool().max_bytes == before

    def test_configure_refuses_a_negative_budget_by_name(self):
        before = get_plan_pool().max_bytes
        with pytest.raises(ValueError, match="max_bytes must be non-negative, got -1"):
            configure_plan_pool(-1)
        assert get_plan_pool().max_bytes == before
        assert configure_plan_pool(np.int64(7)).max_bytes == 7

    def test_configure_shrink_evicts_to_fit(self, plan_pool):
        pool = get_plan_pool()
        configure_plan_pool(100)
        pool.get("a", lambda: _Sized(40))
        pool.get("b", lambda: _Sized(40))
        configure_plan_pool(50)
        assert pool.current_bytes <= 50
        assert pool.keys() == ("b",)
        configure_plan_pool(None)  # back to the environment default

    def test_reset_drops_entries_and_zeroes_stats(self, plan_pool):
        plan_pool.get(("a", 1), lambda: _Sized(10))
        plan_pool.get(("a", 1), lambda: _Sized(10))
        reset_plan_pool()
        assert plan_pool.keys() == ()
        assert plan_pool.stats == PoolStats()

    def test_array_fingerprint_content_sensitivity(self):
        a = np.arange(12, dtype=np.float64)
        assert array_fingerprint(a) == array_fingerprint(a.copy())
        assert array_fingerprint(a) != array_fingerprint(a + 1e-16)
        assert array_fingerprint(a) != array_fingerprint(a.astype(np.float32))
        assert array_fingerprint(a) != array_fingerprint(a.reshape(3, 4))


class TestPlansOwnTheirData:
    """Per-velocity planning data belongs to its stepper / plan: no pool entry."""

    def test_steppers_plan_independently_and_pool_nothing(self, plan_pool):
        grid = Grid((12, 12, 12))
        velocity = smooth_velocity_field(grid, seed=101, amplitude=0.4)
        first = SemiLagrangianStepper(grid, velocity, dt=0.25)
        second = SemiLagrangianStepper(grid, velocity, dt=0.25)
        plans = (first.departure_plan, second.departure_plan)
        assert plans[0] is not plans[1]
        np.testing.assert_array_equal(plans[0].coordinates, plans[1].coordinates)
        field = np.random.default_rng(0).standard_normal(grid.shape)
        np.testing.assert_array_equal(first.step(field), second.step(field))
        assert plan_pool.stats == PoolStats()

    def test_velocity_sign_and_dt_change_the_points(self, plan_pool):
        grid = Grid((12, 12, 12))
        velocity = smooth_velocity_field(grid, seed=102, amplitude=0.4)
        base = SemiLagrangianStepper(grid, velocity, dt=0.25)
        for other in (
            SemiLagrangianStepper(grid, -velocity, dt=0.25),  # backward direction
            SemiLagrangianStepper(grid, velocity, dt=0.5),
        ):
            assert not np.array_equal(
                other.departure_plan.coordinates, base.departure_plan.coordinates
            )
        assert plan_pool.stats.entries == 0

    def test_transport_solver_plan_owns_its_data(self, plan_pool):
        grid = Grid((12, 12, 12))
        solver = TransportSolver(grid, num_time_steps=4)
        velocity = smooth_velocity_field(grid, seed=103, amplitude=0.4)
        first, second = solver.plan(velocity), solver.plan(velocity)
        for forward, again in (
            (first.forward_stepper, second.forward_stepper),
            (first.backward_stepper, second.backward_stepper),
        ):
            assert again.departure_plan is not forward.departure_plan
            np.testing.assert_array_equal(
                again.departure_plan.coordinates, forward.departure_plan.coordinates
            )
        points = grid.num_points * 3 * 8  # one (3, N) float64 array
        # the wrapped coordinates of each direction's plan, and div v
        assert first.nbytes == 2 * points + grid.num_points * 8
        assert plan_pool.stats.entries == 0

    def test_linearize_adopts_the_line_search_plan(self, plan_pool):
        """A kept trial + linearize of the same velocity plan and transport once."""
        synthetic = synthetic_registration_problem(12)
        problem = RegistrationProblem(
            grid=synthetic.grid,
            reference=synthetic.reference,
            template=synthetic.template,
        )
        velocity = smooth_velocity_field(synthetic.grid, seed=104, amplitude=0.2)
        problem.evaluate_objective(velocity, keep_trial=True)
        trial_plan = problem._trial[2]
        swept = problem.transport.interpolator.points_interpolated
        iterate = problem.linearize(velocity.copy())  # equal by content, not identity
        # the trial's TransportPlan is adopted ...
        assert iterate.plan is trial_plan
        # ... and zero state sweeps: only the adjoint (nt steps + its growth factor) gathers
        assert not iterate.plan.is_divergence_free
        sweeps = (problem.transport.interpolator.points_interpolated - swept) / (
            synthetic.grid.num_points
        )
        assert sweeps == problem.num_time_steps + 1
        # the forward and backward operators of the iterate are resident
        assert problem.transport.interpolator.resident_operators == 2
        assert plan_pool.stats.entries == 0


class TestRegistrationLeavesNoEntry:
    def test_a_registration_leaves_the_pool_untouched(self, plan_pool):
        """Only what crosses solves is pooled; a registration is self-contained."""
        synthetic = synthetic_registration_problem(8)
        result = register(
            synthetic.template, synthetic.reference,
            options=SolverOptions(max_newton_iterations=2),
        )
        assert result.num_newton_iterations >= 1
        stats = plan_pool.stats
        assert stats.hits == stats.misses == stats.entries == 0
        assert stats == PoolStats()


class TestPerLevelOwnership:
    """Continuation runs: every level plans its own velocities and releases them."""

    def _options(self):
        return SolverOptions(
            gradient_tolerance=1e-2, max_newton_iterations=3, max_krylov_iterations=6
        )

    def _problem(self, synthetic):
        return RegistrationProblem(
            grid=synthetic.grid, reference=synthetic.reference, template=synthetic.template
        )

    def _run(self, synthetic, problem=None):
        return BetaContinuation(
            problem or self._problem(synthetic),
            self._options(),
            initial_beta=1e-1,
            target_beta=1e-2,
            reduction=0.1,
        ).run()

    def test_continuation_run_touches_no_pool(self, plan_pool):
        result = self._run(synthetic_registration_problem(16))
        assert result.num_levels == 2
        trials = sum(
            record.line_search_evaluations
            for step in result.steps
            for record in step.result.iterations
        )
        assert trials > 0
        assert plan_pool.stats == PoolStats()

    def test_continuation_plans_each_velocity_once(self, plan_pool, monkeypatch):
        """No velocity content is planned twice: trials hand their plans on."""
        planned = []
        original = TransportSolver.plan

        def recording_plan(self, velocity, spectrum=None):
            planned.append((self.grid.shape, array_fingerprint(velocity)))
            return original(self, velocity, spectrum=spectrum)

        synthetic = synthetic_registration_problem(16)
        monkeypatch.setattr(TransportSolver, "plan", recording_plan)
        result = self._run(synthetic)
        assert len(planned) == len(set(planned))
        assert {shape for shape, _ in planned} == {(16, 16, 16)}
        # the initial velocity, then one plan per line-search trial; a level
        # change re-linearizes the live iterate and plans nothing
        assert len(planned) == 1 + sum(
            record.line_search_evaluations
            for step in result.steps
            for record in step.result.iterations
        )

    def test_every_level_releases_its_operators(self, plan_pool):
        synthetic = synthetic_registration_problem(16)
        problem = self._problem(synthetic)
        result = self._run(synthetic, problem)
        assert result.num_levels == 2
        # every level gathers through the problem's one interpolator (only
        # the last level keeps its final iterate, and so a plan to ask)
        interpolator = problem.transport.interpolator
        assert result.steps[-1].result.final_iterate.plan.forward_stepper.interpolator is (
            interpolator
        )
        assert interpolator.resident_operators == 0

    # half of either budget is below the 12^3 operator pair (2 x 394 kB); the
    # gradient stack (207 kB) misses the first and fits the second
    @pytest.mark.parametrize(
        "budget,gradients", [(100_000, "uncached"), (1_000_000, "cached")]
    )
    def test_tiny_budget_keeps_solves_correct(self, plan_pool, monkeypatch, budget, gradients):
        """A budget below one operator pair makes every gather transient: same bits."""
        synthetic = synthetic_registration_problem(12)
        result_default = self._run(synthetic)
        resolved = []
        original = PeriodicInterpolator._resident_operator

        def recording(self, plan):
            resolved.append(original(self, plan))
            return resolved[-1]

        monkeypatch.setattr(PeriodicInterpolator, "_resident_operator", recording)
        gradient_cache_decision_log().reset()
        configure_plan_pool(budget)
        result_small = self._run(synthetic)
        assert resolved and not any(resolved)  # never resident
        assert set(gradient_cache_decision_log().counts()) == {gradients}
        np.testing.assert_array_equal(result_small.velocity, result_default.velocity)
