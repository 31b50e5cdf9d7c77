"""Regression tests pinning the paper's kernel complexity model (Sec. III-C4).

The paper counts ``8*nt`` 3D FFTs and ``4*nt`` interpolation sweeps per
Gauss-Newton Hessian matvec.

**FFTs.**  In this implementation one "paper FFT" is a forward/inverse pair,
and the exact per-matvec transform count for the Gauss-Newton path in the
paper's *uncached* cost model (``REPRO_PLAN_POOL_BYTES=0``: no budget for
the per-iterate gradient stack) is

    transforms(nt) = 8*(nt + 1) + 6

(``4*(nt+1)`` for the incremental-state source gradients, ``4*(nt+1)`` for
the body-force integrand gradients — both trapezoid rules visit ``nt + 1``
time levels — plus ``6`` to leave and re-enter Fourier space around the two
transport solves), i.e. ``4*nt + 7`` pairs, which sits inside the paper's
``8*nt`` budget for every ``nt >= 2``.  The mat-vec is measured as the
Krylov solver applies it, to a half-spectrum: ``beta A``, the Leray
projection and the preconditioner are diagonal there and cost no transform,
so the count is the same with and without the incompressibility constraint.
A real ``(3, N1, N2, N3)`` argument adds its own forward transform and the
result's inverse (``+ 6``).

With the per-iterate gradient cache (:mod:`repro.core.gradients`, the
default), all ``8*(nt+1)`` state-gradient transforms amortize into the
``linearize`` call, so a **warm matvec performs zero spectral-gradient
FFTs** — only the inverse of the direction and the forward of the body
force remain:

    transforms_warm(nt) = 6                      (independent of nt)

**Interpolations.**  One "sweep" is an interpolation of all grid points at
the cached departure points.  The incremental state performs 1 sweep per
time step (its source is given on the grid, so the transported field and
the source are merged before the gather — the interpolant is linear); so
does the incremental adjoint (its ``div v`` source is the plan's growth
factor, a multiplication after the gather), for every velocity:

    sweeps(nt) = 2*nt          (general and divergence-free velocities;
                                the paper counts 4*nt)

The interpolation cost is identical cached and uncached — the cache only
touches spectral work.

**Planning.**  The departure points of both characteristic directions come
from one spectral expansion of the flow (two Jacobians of the velocity,
the first from the velocity's own half-spectra), so planning a new velocity
interpolates nothing:

    linearize(new v):  2*nt + 1 sweeps (state, adjoint, growth factor),
                       3 (v^) + 22 (plan: 21 + div v) + 4*(nt+1) (gradient
                       stack) + 3 (b -> b^) transforms; the iterate keeps
                       g^, its ``gradient`` field is 3 more on demand
    line-search trial: 3 (v^; + 3 to project it when incompressible) + 22
    adopted trial:     4*(nt+1) + 3
    live iterate:      3 (b -> b^), no sweep (a continuation level's start)
    v = 0:             no plan, no operator, no sweep, no transform

These tests pin all three numbers exactly so any refactor of the spectral or
interpolation layers (batching, plan caching) that changes the amount of
kernel work is caught immediately, and they assert the counts are identical
for every gather kernel — counting lives in the frontends.
"""

import numpy as np
import pytest

from repro.core.optim.pcg import pcg
from repro.core.preconditioner import SpectralPreconditioner
from repro.core.problem import RegistrationProblem
from repro.data.synthetic import solenoidal_velocity, synthetic_registration_problem
from repro.observability import get_metrics_registry
from repro.runtime.plan_pool import (
    PoolStats,
    configure_plan_pool,
    get_plan_pool,
    reset_plan_pool,
)


def warm_transforms_per_matvec() -> int:
    """Transform count of a warm cached Gauss-Newton matvec: p^ -> p, b~ -> b~^."""
    return 6


def exact_transforms_per_matvec(nt: int) -> int:
    """Analytic transform count of one *uncached* Gauss-Newton Hessian matvec."""
    return 8 * (nt + 1) + 6


def exact_interpolation_sweeps_per_matvec(nt: int) -> int:
    """Analytic interpolation-sweep count of one Gauss-Newton Hessian matvec."""
    return 2 * nt


def _budget_gradient_stack(cached: bool) -> None:
    """The default budget caches the gradient stack; a zero budget forces lazy levels."""
    configure_plan_pool(None if cached else 0)


def _build_problem(nt: int, incompressible=False):
    synthetic = synthetic_registration_problem(8, num_time_steps=nt)
    return RegistrationProblem(
        grid=synthetic.grid,
        reference=synthetic.reference,
        template=synthetic.template,
        num_time_steps=nt,
        incompressible=incompressible,
    )


def _generic_velocity(problem) -> np.ndarray:
    """A smooth velocity with ``div v != 0`` (exercises the source branch)."""
    x1, x2, x3 = problem.grid.coordinates()
    return 0.1 * np.stack(
        [np.sin(x1) * np.cos(x2), np.cos(x2) * np.sin(x3), np.sin(x3) * np.cos(x1)],
        axis=0,
    )


def _measure_matvec_work(
    nt: int,
    gradient_cache: bool = True,
    incompressible: bool = False,
    real_argument: bool = False,
):
    _budget_gradient_stack(gradient_cache)
    problem = _build_problem(nt, incompressible)
    velocity = problem.project(_generic_velocity(problem))
    iterate = problem.linearize(velocity)
    assert iterate.plan.is_divergence_free is incompressible
    assert iterate.state_gradients.cached is gradient_cache
    direction = 0.1 * np.random.default_rng(0).standard_normal((3, *problem.grid.shape))
    if not real_argument:  # what the Krylov solver hands over
        direction = problem.operators.fft.forward_vector(direction)
    before = problem.work_counters()
    problem.hessian_matvec(iterate, direction)
    delta = problem.work_counters() - before
    return delta.fft_transforms, delta.interpolation_sweeps(problem.grid.num_points)


class TestPaperComplexityModel:
    @pytest.mark.parametrize("incompressible", [False, True])
    @pytest.mark.parametrize("nt", [2, 4])
    def test_exact_warm_transform_count(self, nt, incompressible):
        """A warm cached matvec performs zero spectral-gradient FFTs."""
        transforms, _ = _measure_matvec_work(nt, incompressible=incompressible)
        assert transforms == warm_transforms_per_matvec()

    @pytest.mark.parametrize("incompressible", [False, True])
    def test_real_argument_pays_for_its_own_round_trip(self, incompressible):
        transforms, _ = _measure_matvec_work(
            4, incompressible=incompressible, real_argument=True
        )
        assert transforms == warm_transforms_per_matvec() + 6

    @pytest.mark.parametrize("incompressible", [False, True])
    def test_a_krylov_iteration_costs_one_matvec(self, incompressible):
        """Preconditioner, projection and inner products add no transform."""
        problem = _build_problem(4, incompressible=incompressible)
        iterate = problem.linearize(problem.project(_generic_velocity(problem)))
        before = problem.work_counters()
        result = pcg(
            problem.hessian_operator(iterate),
            -iterate.gradient_spectrum,
            problem.operators.fft,
            SpectralPreconditioner(problem.regularizer),
            rel_tol=1e-12,
            max_iterations=3,
        )
        delta = problem.work_counters() - before
        assert result.iterations == 3
        assert delta.fft_transforms == 3 * warm_transforms_per_matvec()

    @pytest.mark.parametrize("incompressible", [False, True])
    @pytest.mark.parametrize("nt", [2, 4])
    def test_exact_uncached_transform_count(self, nt, incompressible):
        """The paper-mode pin: a zero budget (no stack) restores ``8(nt+1)+6``."""
        transforms, _ = _measure_matvec_work(
            nt, gradient_cache=False, incompressible=incompressible
        )
        assert transforms == exact_transforms_per_matvec(nt)

    @pytest.mark.parametrize("nt", [2, 4])
    def test_linearize_cost_is_cache_invariant(self, nt):
        """Building the cache costs exactly the gradients it replaces.

        ``linearize`` needs every state-gradient level for the body force
        anyway, so materializing the stack adds zero transforms — the cache
        is pure amortization, never a cold-path tax.
        """
        counts = {}
        for cached in (True, False):
            reset_plan_pool()  # both arms plan the velocity (21 transforms)
            _budget_gradient_stack(cached)
            problem = _build_problem(nt)
            velocity = _generic_velocity(problem)
            before = problem.work_counters()
            problem.linearize(velocity)
            counts[cached] = (problem.work_counters() - before).fft_transforms
        assert counts[True] == counts[False]

    @pytest.mark.parametrize("nt", [2, 4, 8])
    def test_within_paper_budget(self, nt):
        """``4*nt + 7`` forward/inverse pairs fit the paper's ``8*nt`` FFTs."""
        pairs = exact_transforms_per_matvec(nt) / 2
        assert pairs <= 8 * nt
        assert warm_transforms_per_matvec() < exact_transforms_per_matvec(nt)


class TestInterpolationSweeps:
    """Pin the ``2*nt`` interpolation sweeps per Hessian matvec (paper: ``4*nt``)."""

    @pytest.mark.parametrize("nt", [2, 4])
    @pytest.mark.parametrize("gradient_cache", [True, False])
    def test_exact_sweep_count_general_velocity(self, nt, gradient_cache):
        _, sweeps = _measure_matvec_work(nt, gradient_cache=gradient_cache)
        assert sweeps == exact_interpolation_sweeps_per_matvec(nt)

    @pytest.mark.parametrize("nt", [2, 4, 8])
    def test_within_paper_budget(self, nt):
        """The matvec never exceeds the paper's ``4*nt`` sweeps."""
        assert exact_interpolation_sweeps_per_matvec(nt) <= 4 * nt

    def test_divergence_free_velocity_saves_a_sweep_per_step(self):
        """The same ``2*nt`` as a general velocity (the name predates the growth factor)."""
        nt = 4
        problem = _build_problem(nt)
        iterate = problem.linearize(solenoidal_velocity(problem.grid, 0.1))
        assert iterate.plan.is_divergence_free
        direction = 0.1 * np.random.default_rng(1).standard_normal(
            (3, *problem.grid.shape)
        )
        before = problem.work_counters()
        problem.hessian_matvec(iterate, direction)
        delta = problem.work_counters() - before
        sweeps = delta.interpolation_sweeps(problem.grid.num_points)
        assert sweeps == exact_interpolation_sweeps_per_matvec(nt)


class TestPlanningCost:
    """What planning a velocity costs: 21 transforms, no interpolation."""

    @pytest.mark.parametrize("nt", [2, 4])
    def test_linearize_of_a_new_velocity(self, nt):
        problem = _build_problem(nt)
        velocity = _generic_velocity(problem)
        before = problem.work_counters()
        problem.linearize(velocity)
        cold = problem.work_counters() - before
        assert cold.interpolation_sweeps(problem.grid.num_points) == 2 * nt + 1
        # v^, the plan (expansion + div v), the gradient stack, b -> b^
        assert cold.fft_transforms == 3 + 22 + 4 * (nt + 1) + 3
        # planning alone: v^ and the plan, no interpolation
        before = problem.work_counters()
        problem.transport.plan(velocity, spectrum=problem.operators.fft.forward_vector(velocity))
        planning = problem.work_counters() - before
        assert (planning.fft_transforms, planning.interpolated_points) == (3 + 22, 0)

    @pytest.mark.parametrize("gradient_cache", [True, False])
    def test_relinearizing_the_live_iterate(self, gradient_cache):
        """A continuation level's first linearize: only what beta changes."""
        nt = 4
        _budget_gradient_stack(gradient_cache)
        problem = _build_problem(nt)
        velocity = _generic_velocity(problem)
        problem.linearize(velocity)
        problem.set_beta(0.1 * problem.beta)
        before = problem.work_counters()
        problem.linearize(velocity.copy())
        warm = problem.work_counters() - before
        assert warm.interpolated_points == 0
        # b -> b^; the lazy source recomputes the body force's gradients
        assert warm.fft_transforms == 3 + (0 if gradient_cache else 4 * (nt + 1))

    @pytest.mark.parametrize("incompressible", [False, True])
    def test_trial_and_its_adoption(self, incompressible):
        nt = 4
        problem = _build_problem(nt, incompressible=incompressible)
        velocity = _generic_velocity(problem)
        before = problem.work_counters()
        problem.trial_objective(velocity)
        trial = problem.work_counters() - before
        assert trial.fft_transforms == 3 + (3 if incompressible else 0) + 22
        before = problem.work_counters()
        iterate = problem.linearize(problem.trial_velocity)
        adopted = problem.work_counters() - before
        assert adopted.fft_transforms == 4 * (nt + 1) + 3
        before = problem.work_counters()
        iterate.gradient  # the field, on demand
        assert (problem.work_counters() - before).fft_transforms == 3

    def test_zero_velocity_plans_and_gathers_nothing(self):
        problem = _build_problem(4)
        reset_plan_pool()  # the synthetic problem planned its generating velocity

        def operator_builds():
            series = get_metrics_registry().collect().get("interp.operator_builds", {})
            return sum(series.values())

        builds = operator_builds()
        before = problem.work_counters()
        assert problem.transport.plan(problem.zero_velocity()).is_divergence_free
        assert (problem.work_counters() - before).fft_transforms == 0
        iterate = problem.linearize(problem.zero_velocity())
        direction = 0.1 * np.random.default_rng(2).standard_normal((3, *problem.grid.shape))
        problem.hessian_matvec(iterate, direction)
        delta = problem.work_counters() - before
        assert delta.interpolated_points == 0
        # v^ of zeros, the gradient stack, b -> b^; then one mat-vec
        assert delta.fft_transforms == (3 + 4 * 5 + 3) + 12
        assert operator_builds() == builds
        assert get_plan_pool().stats == PoolStats()
        assert iterate.plan.backward_stepper is iterate.plan.forward_stepper
