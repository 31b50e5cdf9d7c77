"""Tests for the optimization building blocks: PCG, line search, preconditioner,
and the Newton driver's one fallback (the gradient step)."""

import numpy as np
import pytest

from repro.core.optim.gauss_newton import GaussNewtonKrylov, SolverOptions
from repro.core.optim.gradient_descent import GradientDescent
from repro.core.optim.line_search import ArmijoLineSearch
from repro.core.optim.pcg import pcg
from repro.core.preconditioner import SpectralPreconditioner
from repro.core.problem import RegistrationProblem
from repro.core.regularization import H1Regularization
from repro.data.synthetic import synthetic_registration_problem
from repro.runtime.cancellation import CancelToken, SolveCancelled
from repro.spectral.grid import Grid
from repro.spectral.operators import SpectralOperators

from tests.fixtures import smooth_vector_field


@pytest.fixture(scope="module")
def grid():
    return Grid((8, 8, 8))


@pytest.fixture(scope="module")
def ops(grid):
    return SpectralOperators(grid)


def spd_operator(grid, ops, alpha=1.0):
    """A simple SPD operator on velocity fields: alpha*I - laplacian."""

    def apply(v):
        return alpha * v - ops.vector_laplacian(v)

    return apply


class TestPCG:
    def test_solves_spd_system(self, grid, ops):
        matvec = spd_operator(grid, ops)
        rhs = 0.5 * smooth_vector_field(grid, seed=1)
        result = pcg(matvec, rhs, grid, rel_tol=1e-10, max_iterations=200)
        assert result.converged
        np.testing.assert_allclose(matvec(result.solution), rhs, atol=1e-7)

    def test_zero_rhs_returns_zero(self, grid, ops):
        result = pcg(spd_operator(grid, ops), grid.zeros_vector(), grid)
        assert result.iterations == 0
        assert result.converged
        np.testing.assert_array_equal(result.solution, 0.0)

    def test_respects_relative_tolerance(self, grid, ops):
        matvec = spd_operator(grid, ops)
        rhs = smooth_vector_field(grid, seed=2)
        loose = pcg(matvec, rhs, grid, rel_tol=1e-1, max_iterations=100)
        tight = pcg(matvec, rhs, grid, rel_tol=1e-8, max_iterations=100)
        assert loose.iterations <= tight.iterations
        assert loose.residual_norms[-1] <= 1e-1 * loose.residual_norms[0]

    def test_max_iterations_cap(self, grid, ops):
        matvec = spd_operator(grid, ops)
        rhs = smooth_vector_field(grid, seed=3)
        result = pcg(matvec, rhs, grid, rel_tol=1e-14, max_iterations=2)
        assert result.iterations == 2
        assert not result.converged

    def test_negative_curvature_at_first_iteration_returns_zero(self, grid):
        """No substitute step: the driver owns the one fallback."""
        result = pcg(lambda v: -v, smooth_vector_field(grid, seed=4), grid, rel_tol=1e-8)
        assert result.negative_curvature
        assert result.iterations == 1 and not result.converged
        np.testing.assert_array_equal(result.solution, 0.0)

    def test_negative_curvature_later_keeps_the_iterate(self, grid, ops):
        """SPD on the first search direction, indefinite afterwards."""
        spd = spd_operator(grid, ops)
        calls = []

        def matvec(v):
            calls.append(1)
            return spd(v) if len(calls) == 1 else -v

        result = pcg(matvec, smooth_vector_field(grid, seed=4), grid, rel_tol=1e-12)
        assert result.negative_curvature and result.iterations == 2
        assert np.any(result.solution)

    def test_preconditioner_reduces_iterations(self, grid, ops):
        # ill-conditioned operator: biharmonic plus small identity
        def matvec(v):
            return 1e-3 * v + ops.vector_biharmonic(v)

        def preconditioner(r):
            sym = ops.symbols.k4.copy()
            sym = 1.0 / (1e-3 + sym)
            return ops.apply_vector_symbol(r, sym)

        rhs = smooth_vector_field(grid, seed=5)
        plain = pcg(matvec, rhs, grid, rel_tol=1e-8, max_iterations=300)
        prec = pcg(matvec, rhs, grid, preconditioner=preconditioner, rel_tol=1e-8, max_iterations=300)
        assert prec.iterations < plain.iterations

    @pytest.mark.parametrize("outcome", ["converged", "capped", "negative_curvature"])
    def test_iterations_are_the_matvecs_applied(self, grid, ops, outcome):
        """PCG starts from zero, so the Newton driver's one mat-vec count is
        PCG's iteration count, however the solve ends."""
        spd = spd_operator(grid, ops)
        applied = []

        def matvec(v):
            applied.append(1)
            return -v if outcome == "negative_curvature" and len(applied) == 2 else spd(v)

        rel_tol, cap = {"converged": (1e-1, 300), "capped": (1e-14, 2)}.get(
            outcome, (1e-14, 300)
        )
        result = pcg(matvec, smooth_vector_field(grid, seed=6), grid, rel_tol=rel_tol,
                     max_iterations=cap)
        assert result.converged is (outcome == "converged")
        assert result.negative_curvature is (outcome == "negative_curvature")
        assert result.iterations == len(applied) >= 1

    def test_invalid_arguments(self, grid, ops):
        with pytest.raises(ValueError):
            pcg(spd_operator(grid, ops), grid.zeros_vector(), grid, rel_tol=-1.0)
        with pytest.raises(ValueError):
            pcg(spd_operator(grid, ops), grid.zeros_vector(), grid, max_iterations=0)

    def test_precancelled_token_stops_before_first_matvec(self, grid, ops):
        """The Krylov safe point fires before any Hessian application."""
        applications = []

        def counting_matvec(v):
            applications.append(1)
            return spd_operator(grid, ops)(v)

        token = CancelToken()
        token.cancel()
        with pytest.raises(SolveCancelled, match="pcg solve"):
            pcg(
                counting_matvec,
                smooth_vector_field(grid, seed=5),
                grid,
                rel_tol=1e-12,
                cancel_token=token,
            )
        assert applications == []

    def test_cancellation_mid_krylov_solve(self, grid, ops):
        """A token cancelled during the solve stops at the next iteration.

        This is the satellite guarantee: a long Krylov solve (up to
        ``max_iterations`` mat-vecs, each two transport solves) honors the
        token promptly instead of deferring to the outer Newton loop.
        """
        token = CancelToken()
        applications = []

        def cancelling_matvec(v):
            applications.append(1)
            if len(applications) == 3:
                token.cancel()
            return spd_operator(grid, ops)(v)

        with pytest.raises(SolveCancelled, match="pcg solve"):
            pcg(
                cancelling_matvec,
                smooth_vector_field(grid, seed=6),
                grid,
                rel_tol=1e-14,
                max_iterations=100,
                cancel_token=token,
            )
        # exactly the mat-vec that latched the token, and not one more
        assert len(applications) == 3

    def test_none_token_is_a_no_op(self, grid, ops):
        result = pcg(
            spd_operator(grid, ops),
            smooth_vector_field(grid, seed=7),
            grid,
            rel_tol=1e-8,
            cancel_token=None,
        )
        assert result.converged


class TestArmijoLineSearch:
    @staticmethod
    def quadratic(grid):
        center = 0.3 * np.ones((3, *grid.shape))

        def objective(v):
            return float(0.5 * grid.inner(v - center, v - center))

        return objective, center

    def test_accepts_full_newton_step(self, grid):
        objective, center = self.quadratic(grid)
        v = grid.zeros_vector()
        gradient = v - center
        direction = -gradient
        ls = ArmijoLineSearch()
        result = ls.search(objective, grid, v, objective(v), gradient, direction)
        assert result.success
        assert result.step_length == pytest.approx(1.0)
        assert result.objective < objective(v)

    def test_backtracks_on_too_long_direction(self, grid):
        objective, center = self.quadratic(grid)
        v = grid.zeros_vector()
        gradient = v - center
        direction = -20.0 * gradient  # overshoots badly
        result = ArmijoLineSearch().search(objective, grid, v, objective(v), gradient, direction)
        assert result.success
        assert result.step_length < 1.0

    @pytest.mark.parametrize("kind", ["ascent", "orthogonal"])
    def test_non_descent_direction_fails_without_evaluating(self, grid, kind):
        objective, center = self.quadratic(grid)
        v = grid.zeros_vector()
        gradient = v - center
        if kind == "ascent":
            direction = gradient
        else:  # <g, d> == 0 exactly: the two live in different components
            gradient, direction = np.zeros((2, 3, *grid.shape))
            gradient[1] = 1.0
            direction[0] = 1.0
        evaluations = []

        def counting(x):
            evaluations.append(1)
            return objective(x)

        result = ArmijoLineSearch().search(counting, grid, v, objective(v), gradient, direction)
        assert not result.success
        assert result.evaluations == 0 and evaluations == []
        assert result.step_length == 0.0 and result.objective == objective(v)

    def test_failure_after_max_evaluations(self, grid):
        v = grid.zeros_vector()
        gradient = -np.ones((3, *grid.shape))
        direction = np.ones((3, *grid.shape))
        # objective that never decreases
        result = ArmijoLineSearch(max_evaluations=5).search(
            lambda x: 1.0 + float(np.sum(x**2)), grid, v, 1.0, gradient, direction
        )
        assert not result.success
        assert result.step_length == 0.0
        assert result.evaluations == 5

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ArmijoLineSearch(contraction=1.5)
        with pytest.raises(ValueError):
            ArmijoLineSearch(max_evaluations=0)
        with pytest.raises(ValueError):
            ArmijoLineSearch(c1=-1.0)

    @pytest.mark.parametrize(
        "name, value",
        [("c1", "1e-4"), ("contraction", "0.5"), ("max_evaluations", 2.5),
         ("max_evaluations", True), ("initial_step", True)],
    )
    def test_mistyped_parameter_is_a_type_error_naming_it(self, name, value):
        with pytest.raises(TypeError, match=name):
            ArmijoLineSearch(**{name: value})


def precondition(prec, ops, v):
    """``M^{-1} v`` as a field: the preconditioner multiplies half-spectra."""
    return ops.fft.inverse_vector(prec(ops.fft.forward_vector(v)))


class TestSpectralPreconditioner:
    def test_returns_a_new_array(self, ops):
        reg = H1Regularization(ops, 1e-2)
        v = ops.fft.forward_vector(smooth_vector_field(ops.grid, seed=7))
        out = SpectralPreconditioner(reg)(v)
        assert out.shape == v.shape
        assert out is not v

    @pytest.mark.parametrize("variant", ["none", "inverse_regularization", "shifted"])
    def test_variant_is_not_an_option(self, ops, variant):
        """One preconditioner: PCG's ``preconditioner=None`` is the identity."""
        with pytest.raises(TypeError):
            SpectralPreconditioner(H1Regularization(ops, 1e-2), variant)
        with pytest.raises(TypeError, match="'preconditioner'"):
            SolverOptions(preconditioner=variant)

    def test_inverse_regularization_inverts_operator(self, ops):
        reg = H1Regularization(ops, 0.5)
        prec = SpectralPreconditioner(reg)
        v = smooth_vector_field(ops.grid, seed=9)
        v -= v.mean(axis=(1, 2, 3), keepdims=True)
        np.testing.assert_allclose(
            precondition(prec, ops, 0.5 * reg.apply_operator(v)), v, atol=1e-8
        )

    def test_preconditioner_is_spd(self, ops):
        reg = H1Regularization(ops, 1e-2)
        prec = SpectralPreconditioner(reg)
        a = smooth_vector_field(ops.grid, seed=10)
        b = smooth_vector_field(ops.grid, seed=11)
        assert ops.grid.inner(precondition(prec, ops, a), b) == pytest.approx(
            ops.grid.inner(a, precondition(prec, ops, b)), rel=1e-9
        )
        assert ops.grid.inner(precondition(prec, ops, a), a) > 0.0


class RecordingSearch(ArmijoLineSearch):
    """An Armijo search that keeps a copy of every direction it is given."""

    def __post_init__(self):
        super().__post_init__()
        self.directions = []

    def search(self, *args, direction, **kwargs):
        self.directions.append(direction.copy())
        return super().search(*args, direction=direction, **kwargs)


@pytest.fixture()
def problem():
    synthetic = synthetic_registration_problem(8)
    return RegistrationProblem(
        grid=synthetic.grid,
        reference=synthetic.reference,
        template=synthetic.template,
        beta=1e-2,
    )


def indefinite_hessian(monkeypatch, problem):
    """Every Hessian application returns ``-p``: negative curvature at once."""
    monkeypatch.setattr(problem, "hessian_operator", lambda iterate: lambda p: -p)


class TestGradientStepFallback:
    def test_zero_pcg_step_is_the_former_pcg_substitute_bitwise(self, problem, monkeypatch):
        """PCG used to return ``z = M^{-1} rhs`` on immediate negative
        curvature; it returns zero now, and the driver's gradient step is
        those bits, transformed back."""
        iterate = problem.linearize(problem.zero_velocity())
        preconditioner = problem.preconditioner()
        rhs = -iterate.gradient_spectrum
        result = pcg(lambda p: -p, rhs, problem.operators.fft, preconditioner=preconditioner)
        assert result.negative_curvature and result.iterations == 1
        np.testing.assert_array_equal(result.solution, 0.0)
        substitute = problem.operators.fft.inverse_vector(preconditioner(rhs.copy()))

        indefinite_hessian(monkeypatch, problem)
        search = RecordingSearch()
        options = SolverOptions(max_newton_iterations=1, line_search=search)
        solved = GaussNewtonKrylov(problem, options).solve()
        assert len(search.directions) == 1
        assert search.directions[0].tobytes() == substitute.tobytes()
        (record,) = solved.iterations
        assert record.pcg_iterations == 1 and record.step_length > 0.0
        assert record.negative_curvature and record.gradient_fallback

    @pytest.mark.parametrize("indefinite", [False, True])
    def test_records_carry_the_pcg_flag_and_the_fallback(
        self, problem, monkeypatch, indefinite
    ):
        """PCG's negative-curvature flag and the fallback reach the record
        and its JSON-ready row."""
        if indefinite:
            indefinite_hessian(monkeypatch, problem)
        result = GaussNewtonKrylov(problem, SolverOptions(max_newton_iterations=1)).solve()
        (record,) = result.iterations
        assert record.negative_curvature is indefinite
        assert record.gradient_fallback is indefinite
        (row,) = result.convergence_table()
        assert row["negative_curvature"] is row["gradient_fallback"] is indefinite

    @pytest.mark.parametrize("driver", ["gauss_newton_zero_step", "gradient_descent"])
    def test_failed_gradient_step_search_stops_after_one_search(
        self, problem, monkeypatch, driver
    ):
        """The gradient step is searched once; its failure is recorded."""
        if driver == "gauss_newton_zero_step":
            indefinite_hessian(monkeypatch, problem)
        # a step this long never decreases J, and one evaluation is all it gets
        search = RecordingSearch(initial_step=1e3, max_evaluations=1)
        options = SolverOptions(max_newton_iterations=3, line_search=search)
        solver = (GaussNewtonKrylov if driver.startswith("gauss") else GradientDescent)
        result = solver(problem, options).solve()
        assert result.termination_reason == "line_search_failure"
        assert len(search.directions) == 1
        (record,) = result.iterations
        assert record.iteration == 0
        assert record.step_length == 0.0 and record.line_search_evaluations == 1
        assert record.objective == result.final_iterate.objective.total
        assert record.relative_gradient_norm == 1.0
        np.testing.assert_array_equal(result.velocity, 0.0)
        assert problem.trial_velocity is None

    def test_failed_pcg_step_search_retries_the_gradient_step_once(self, problem):
        search = RecordingSearch(initial_step=1e3, max_evaluations=1)
        options = SolverOptions(max_newton_iterations=3, line_search=search)
        result = GaussNewtonKrylov(problem, options).solve()
        assert result.termination_reason == "line_search_failure"
        newton, gradient = search.directions
        assert not np.array_equal(newton, gradient)
        (record,) = result.iterations
        assert record.pcg_iterations >= 1 and record.line_search_evaluations == 1
        assert record.gradient_fallback and not record.negative_curvature

    def test_gradient_descent_records_no_krylov_work(self, problem):
        result = GradientDescent(problem, SolverOptions(max_newton_iterations=2)).solve()
        assert result.num_iterations == 2
        assert result.total_hessian_matvecs == result.total_pcg_iterations == 0
        for record in result.iterations:
            assert record.forcing_term == 0.0
            assert record.pcg_iterations == record.hessian_matvecs == 0
            assert record.gradient_fallback and not record.negative_curvature
