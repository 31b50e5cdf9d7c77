"""The Newton-Krylov driver on problems with known answers.

:class:`~repro.core.optim.gauss_newton.GaussNewtonKrylov` sees a problem only
through :class:`~repro.core.optim.protocol.NewtonProblem`, so the unmodified
driver runs on a few lines of NumPy around objective, gradient and
Hessian-vector callbacks — ``scipy.optimize.rosen``, a linear least-squares
problem, a function with negative curvature at its start, one that is
infinite everywhere but its start — where a registration's exact answer is
unknown.
"""

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import pytest
from scipy.optimize import rosen, rosen_der, rosen_hess_prod

from repro.core.optim.gauss_newton import GaussNewtonKrylov, SolverOptions
from repro.core.optim.gradient_descent import GradientDescent
from repro.core.optim.line_search import ArmijoLineSearch
from repro.runtime.cancellation import CancelToken, SolveCancelled


class Euclidean:
    """R^n with the dot product: both of the problem's spaces."""

    @staticmethod
    def inner(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.dot(a, b))

    @staticmethod
    def norm(a: np.ndarray) -> float:
        return float(np.linalg.norm(a))


@dataclass
class Parts:
    distance: float
    regularization: float = 0.0

    @property
    def total(self) -> float:
        return self.distance + self.regularization


@dataclass
class Point:
    velocity: np.ndarray
    objective: Parts
    gradient_spectrum: np.ndarray
    gradient_norm: float

    @property
    def gradient(self) -> np.ndarray:
        return self.gradient_spectrum


class CallbackProblem:
    """A :class:`NewtonProblem` from callbacks, with the identity preconditioner.

    Counts its callback evaluations; *precondition* replaces the identity.
    """

    krylov_space = point_space = Euclidean()

    def __init__(
        self,
        objective: Callable[[np.ndarray], float],
        gradient: Callable[[np.ndarray], np.ndarray],
        hessian_vector_product: Callable[[np.ndarray, np.ndarray], np.ndarray],
        size: int = 2,
        precondition: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> None:
        self.objective = objective
        self.gradient = gradient
        self.hvp = hessian_vector_product
        self.size = size
        self.precondition = precondition or (lambda r: r.copy())
        self.trial_velocity: Optional[np.ndarray] = None
        self.linearized = []
        self.trials = []
        self.matvecs = 0

    def start(self, initial):
        return np.zeros(self.size) if initial is None else np.array(initial, dtype=float)

    def linearize(self, point):
        self.linearized.append(point.copy())
        g = np.asarray(self.gradient(point), dtype=float)
        return Point(point, Parts(float(self.objective(point))), g, Euclidean.norm(g))

    def hessian_operator(self, iterate):
        def apply(p):
            self.matvecs += 1
            return np.asarray(self.hvp(iterate.velocity, p), dtype=float)

        return apply

    def preconditioner(self):
        return self.precondition

    def as_point(self, step):
        return step

    def trial_objective(self, point):
        self.trials.append(point.copy())
        self.trial_velocity = point.copy()
        return float(self.objective(point))

    def release_trial(self):
        self.trial_velocity = None


def rosenbrock() -> CallbackProblem:
    return CallbackProblem(rosen, rosen_der, rosen_hess_prod)


def least_squares(J: np.ndarray) -> CallbackProblem:
    """``J(x) = sum((J x - 1)^2)``: Hessian ``2 J^T J``, minimum at ``J^{-1} 1``."""
    return CallbackProblem(
        lambda x: float(np.sum((J @ x - 1.0) ** 2)),
        lambda x: 2.0 * (J @ x - 1.0) @ J,
        lambda x, v: 2.0 * (J @ v) @ J,
        size=J.shape[1],
    )


#: abopt's two 4x4 Jacobians: Hessians diag(2, 8, 2, 2) and diag(2, 18, 8, 320000)
JACOBIANS = {
    "permutation": np.array([[0, 0, 0, 1], [0, 0, 2, 0], [0, 1, 0, 0], [1, 0, 0, 0]], float),
    "ill_conditioned": np.array(
        [[0, 0, 0, 1], [0, 0, 2, 0], [0, 3, 0, 0], [400, 0, 0, 0]], float
    ),
}


def double_well() -> CallbackProblem:
    """``x0^4 - x0^2 + x1^2``: concave along ``x0`` near the origin, minima at
    ``x0 = +-1/sqrt(2)``."""
    return CallbackProblem(
        lambda x: x[0] ** 4 - x[0] ** 2 + x[1] ** 2,
        lambda x: np.array([4 * x[0] ** 3 - 2 * x[0], 2 * x[1]]),
        lambda x, v: np.array([(12 * x[0] ** 2 - 2) * v[0], 2 * v[1]]),
    )


def infinite_off_start() -> CallbackProblem:
    """A quadratic bowl that is ``inf`` everywhere but at the origin."""
    return CallbackProblem(
        lambda x: 1.0 if not np.any(x) else np.inf,
        lambda x: x - 1.0,
        lambda x, v: v,
    )


def tight(**overrides) -> SolverOptions:
    options = dict(gradient_tolerance=1e-10, absolute_gradient_tolerance=0.0)
    options.update(overrides)
    return SolverOptions(**options)


class TestRosenbrock:
    def test_newton_from_the_origin_reaches_the_minimum(self):
        problem = rosenbrock()
        result = GaussNewtonKrylov(problem, tight()).solve()
        assert result.converged and result.termination_reason == "gradient_tolerance"
        np.testing.assert_allclose(result.velocity, 1.0, rtol=1e-4)
        assert result.total_hessian_matvecs == result.total_pcg_iterations == problem.matvecs

    def test_newton_beats_gradient_descent(self):
        """Within the iterations Newton needs, steepest descent is still far off."""
        newton = GaussNewtonKrylov(rosenbrock(), tight()).solve()
        descent = GradientDescent(
            rosenbrock(), tight(max_newton_iterations=newton.num_iterations)
        ).solve()
        assert not descent.converged
        assert np.linalg.norm(descent.velocity - 1.0) > 1e3 * np.linalg.norm(
            newton.velocity - 1.0
        )

    def test_warm_start_is_the_first_point(self):
        """From the classic ``(-1.2, 1)`` PCG meets negative curvature on
        the way, keeps its partial step, and the solve still converges."""
        problem = rosenbrock()
        result = GaussNewtonKrylov(problem, tight(max_newton_iterations=100)).solve([-1.2, 1.0])
        assert result.converged
        assert any(record.negative_curvature for record in result.iterations)
        np.testing.assert_array_equal(problem.linearized[0], [-1.2, 1.0])
        np.testing.assert_allclose(result.velocity, 1.0, rtol=1e-4)

    def test_preconditioner_is_built_once_per_solve(self):
        builds = []
        problem = rosenbrock()
        problem.preconditioner = lambda: builds.append(1) or (lambda r: r.copy())
        GaussNewtonKrylov(problem, tight()).solve()
        assert builds == [1]


class TestLeastSquares:
    @pytest.mark.parametrize("name", sorted(JACOBIANS))
    def test_exact_krylov_solve_converges_in_one_newton_step(self, name):
        """``forcing_max = 0`` gives PCG the floor tolerance ``1e-12``: it
        solves the quadratic's Newton system to rounding, in at most as many
        mat-vecs as unknowns plus one (not on until the residual is exactly
        0), the unit step lands on the minimum and the next gradient test
        stops."""
        J = JACOBIANS[name]
        problem = least_squares(J)
        result = GaussNewtonKrylov(problem, SolverOptions(forcing_max=0.0)).solve()
        assert result.converged
        (record,) = result.iterations
        assert record.forcing_term == 1e-12
        assert record.hessian_matvecs <= 5
        assert record.step_length == 1.0 and record.line_search_evaluations == 1
        assert not record.gradient_fallback
        np.testing.assert_allclose(result.velocity, np.linalg.solve(J, np.ones(4)), rtol=1e-8)

    @pytest.mark.parametrize("name", sorted(JACOBIANS))
    def test_forcing_term_bounds_the_krylov_residual(self, name):
        """The default forcing (``sqrt`` of the relative gradient, capped at
        0.5) stops PCG early: at most as many mat-vecs as unknowns."""
        problem = least_squares(JACOBIANS[name])
        result = GaussNewtonKrylov(problem, tight()).solve()
        assert result.converged
        for record in result.iterations:
            assert 1 <= record.pcg_iterations == record.hessian_matvecs <= 4
        assert result.iterations[0].forcing_term == 0.5

    def test_gradient_descent_converges_on_the_well_conditioned_problem(self):
        result = GradientDescent(
            least_squares(JACOBIANS["permutation"]), tight(max_newton_iterations=200)
        ).solve()
        assert result.converged
        assert result.total_hessian_matvecs == 0
        assert all(record.gradient_fallback for record in result.iterations)
        np.testing.assert_allclose(
            result.velocity, np.linalg.solve(JACOBIANS["permutation"], np.ones(4)), rtol=1e-8
        )

    def test_the_preconditioner_is_the_fallback_metric(self):
        """Gradient descent preconditioned with the exact inverse Hessian is
        Newton's method: one step to the minimum of a quadratic."""
        J = JACOBIANS["ill_conditioned"]
        hessian = 2.0 * J.T @ J
        problem = least_squares(J)
        problem.precondition = lambda r: np.linalg.solve(hessian, r)
        result = GradientDescent(problem, tight()).solve()
        assert result.converged and result.num_iterations == 1
        np.testing.assert_allclose(result.velocity, np.linalg.solve(J, np.ones(4)), rtol=1e-10)


class TestNegativeCurvature:
    def test_flags_fall_back_then_converge(self):
        problem = double_well()
        result = GaussNewtonKrylov(problem, tight()).solve([0.1, 0.0])
        assert result.converged
        first, second = result.iterations[:2]
        for record in (first, second):
            assert record.negative_curvature and record.gradient_fallback
            assert record.pcg_iterations == record.hessian_matvecs == 1
        assert not any(r.negative_curvature for r in result.iterations[2:])
        np.testing.assert_allclose(result.velocity, [1 / np.sqrt(2), 0.0], rtol=1e-8)

    def test_fallback_direction_is_the_preconditioned_negative_gradient(self):
        problem = double_well()
        seen = []

        class Recording(ArmijoLineSearch):
            def search(self, *args, direction, **kwargs):
                seen.append(direction.copy())
                return super().search(*args, direction=direction, **kwargs)

        problem.precondition = lambda r: 0.5 * r
        GaussNewtonKrylov(
            problem, tight(max_newton_iterations=1, line_search=Recording())
        ).solve([0.1, 0.0])
        (direction,) = seen  # PCG's zero step is never searched
        gradient = problem.gradient(np.array([0.1, 0.0]))
        np.testing.assert_array_equal(direction, -0.5 * gradient)


class TestLineSearchFailure:
    @pytest.mark.parametrize("driver", [GaussNewtonKrylov, GradientDescent])
    def test_infinite_objective_ends_the_solve_after_one_record(self, driver):
        problem = infinite_off_start()
        result = driver(problem, tight()).solve()
        assert result.termination_reason == "line_search_failure"
        assert not result.converged
        (record,) = result.iterations
        assert record.gradient_fallback and record.step_length == 0.0
        assert record.line_search_evaluations == ArmijoLineSearch().max_evaluations
        np.testing.assert_array_equal(result.velocity, 0.0)
        assert problem.trial_velocity is None
        # the Newton step and the fallback were each searched to the end
        searches = 2 if driver is GaussNewtonKrylov else 1
        assert len(problem.trials) == searches * ArmijoLineSearch().max_evaluations
        assert len(problem.linearized) == 1


class TestStops:
    @pytest.mark.parametrize("driver", [GaussNewtonKrylov, GradientDescent])
    def test_wall_clock_budget(self, driver):
        problem = rosenbrock()
        linearize = problem.linearize

        def slow(point):
            time.sleep(0.02)
            return linearize(point)

        problem.linearize = slow
        result = driver(problem, tight(max_wall_clock_seconds=0.01)).solve()
        assert result.termination_reason == "wall_clock_budget"
        assert not result.converged and result.iterations == []
        np.testing.assert_array_equal(result.velocity, 0.0)

    @pytest.mark.parametrize("driver", [GaussNewtonKrylov, GradientDescent])
    def test_cancel_token_stops_at_the_next_safe_point(self, driver):
        token = CancelToken()
        problem = rosenbrock()
        objective = problem.trial_objective

        def cancelling(point):
            token.cancel()
            return objective(point)

        problem.trial_objective = cancelling
        with pytest.raises(SolveCancelled, match="registration solve"):
            driver(problem, tight(cancel_token=token)).solve()
        # the search that latched the token finished; no Newton step followed
        assert len(problem.linearized) == 2

    def test_cancel_token_stops_the_krylov_solve(self):
        token = CancelToken()
        problem = least_squares(JACOBIANS["ill_conditioned"])
        hessian_operator = problem.hessian_operator

        def cancelling(iterate):
            apply = hessian_operator(iterate)
            return lambda p: token.cancel() or apply(p)

        problem.hessian_operator = cancelling
        with pytest.raises(SolveCancelled, match="pcg solve"):
            GaussNewtonKrylov(problem, SolverOptions(forcing_max=0.0, cancel_token=token)).solve()
        assert problem.matvecs == 1

    def test_zero_newton_iterations_linearizes_once(self):
        problem = rosenbrock()
        result = GaussNewtonKrylov(problem, tight(max_newton_iterations=0)).solve()
        assert result.termination_reason == "max_iterations"
        assert result.iterations == [] and len(problem.linearized) == 1
