"""The velocity-space algebra applied in Fourier space is the real-space algebra.

``beta A``, the Leray projection ``P`` and the preconditioner are diagonal in
Fourier space; the reduced gradient, the Hessian mat-vec and the Krylov solve
apply them to ``rfftn`` half-spectra and measure with Parseval sums
(``FourierTransform.inner``).  Pinned here, as identities rather than as
tolerances on a solve:

* the gradient, the objective and a real-argument mat-vec equal the formulas
  that apply each operator as its own forward + inverse round trip on a field
  (test-local copies below) to ``1e-12``,
* a real argument is exactly ``inverse(H(forward(d)))``,
* the bilinear form ``<H p, q>`` reads the same in both spaces, is symmetric
  where the discretization is (``v = 0``: no interpolation) and positive,
* PCG on half-spectra takes the steps PCG on fields takes.
"""

import numpy as np
import pytest

from repro.core.optim.pcg import pcg
from repro.core.preconditioner import SpectralPreconditioner
from repro.core.problem import RegistrationProblem
from repro.data.synthetic import synthetic_registration_problem

from tests.fixtures import smooth_vector_field

VARIANTS = [
    pytest.param(dict(incompressible=False, gauss_newton=True), id="gn"),
    pytest.param(dict(incompressible=False, gauss_newton=False), id="newton"),
    pytest.param(dict(incompressible=True, gauss_newton=True), id="gn-incompressible"),
    pytest.param(dict(incompressible=True, gauss_newton=False), id="newton-incompressible"),
]


def make_problem(n=12, **kwargs) -> RegistrationProblem:
    synthetic = synthetic_registration_problem(n, incompressible=kwargs["incompressible"])
    return RegistrationProblem(
        grid=synthetic.grid, reference=synthetic.reference, template=synthetic.template, **kwargs
    )


def direction(problem, seed) -> np.ndarray:
    return problem.project(0.1 * smooth_vector_field(problem.grid, seed=seed))


# --------------------------------------------------------------------------- #
# the formulas this PR replaced: every operator its own round trip on a field
# --------------------------------------------------------------------------- #
def round_trip_project(problem, field):
    return problem.operators.leray_project(field) if problem.incompressible else field


def round_trip_reduced(problem, velocity, body_force):
    """``P(beta A v + P b)``: the shape of the gradient and of the mat-vec."""
    regularization = problem.beta * problem.regularizer.apply_operator(velocity)
    reduced = regularization + round_trip_project(problem, body_force)
    return round_trip_project(problem, reduced)


def round_trip_matvec(problem, iterate, field):
    field = round_trip_project(problem, field)
    return round_trip_reduced(problem, field, problem._body_force_tilde(iterate, field))


def relative_error(grid, actual, expected) -> float:
    return grid.norm(actual - expected) / grid.norm(expected)


@pytest.mark.parametrize("kwargs", VARIANTS)
class TestSameNumbersAsTheRoundTrips:
    def test_gradient_and_objective(self, kwargs):
        problem = make_problem(16, **kwargs)
        grid = problem.grid
        iterate = problem.linearize(direction(problem, seed=3))
        body_force = problem._body_force(
            iterate.state_history, iterate.adjoint_history, iterate.state_gradients
        )
        expected = round_trip_reduced(problem, iterate.velocity, body_force)
        assert relative_error(grid, iterate.gradient, expected) < 1e-12
        assert iterate.gradient_norm == pytest.approx(grid.norm(expected), rel=1e-12)
        applied = problem.regularizer.apply_operator(iterate.velocity)
        energy = 0.5 * problem.beta * grid.inner(applied, iterate.velocity)
        assert iterate.objective.regularization == pytest.approx(energy, rel=1e-12)

    def test_real_argument_matvec(self, kwargs):
        problem = make_problem(16, **kwargs)
        fft = problem.operators.fft
        iterate = problem.linearize(direction(problem, seed=4))
        # not projected: the mat-vec projects its argument itself
        field = 0.1 * smooth_vector_field(problem.grid, seed=5)
        applied = problem.hessian_matvec(iterate, field)
        spectral = problem.hessian_matvec(iterate, fft.forward_vector(field))
        assert np.iscomplexobj(spectral) and not np.iscomplexobj(applied)
        np.testing.assert_array_equal(applied, fft.inverse_vector(spectral))
        expected = round_trip_matvec(problem, iterate, field)
        assert relative_error(problem.grid, applied, expected) < 1e-12

    def test_matvec_leaves_its_argument_alone(self, kwargs):
        problem = make_problem(**kwargs)
        iterate = problem.linearize(problem.zero_velocity())
        spectrum = problem.operators.fft.forward_vector(
            0.1 * smooth_vector_field(problem.grid, seed=6)
        )
        kept = spectrum.copy()
        problem.hessian_matvec(iterate, spectrum)
        np.testing.assert_array_equal(spectrum, kept)


@pytest.mark.parametrize("kwargs", VARIANTS)
class TestBilinearForm:
    def forms(self, problem, iterate, seeds):
        """``<H p, q>`` and ``<p, H q>``, each read in both spaces."""
        grid, fft = problem.grid, problem.operators.fft
        p, q = (direction(problem, seed) for seed in seeds)
        p_hat, q_hat = fft.forward_vector(p), fft.forward_vector(q)
        hp_hat = problem.hessian_matvec(iterate, p_hat)
        hq_hat = problem.hessian_matvec(iterate, q_hat)
        spectral = fft.inner(hp_hat, q_hat), fft.inner(p_hat, hq_hat)
        real = (
            grid.inner(fft.inverse_vector(hp_hat), q),
            grid.inner(p, fft.inverse_vector(hq_hat)),
        )
        scale = fft.norm(hp_hat) * fft.norm(q_hat)
        return spectral, real, scale

    def test_reads_the_same_in_both_spaces(self, kwargs):
        problem = make_problem(**kwargs)
        iterate = problem.linearize(direction(problem, seed=7))
        spectral, real, scale = self.forms(problem, iterate, seeds=(8, 9))
        assert abs(spectral[0] - real[0]) <= 1e-12 * scale
        assert abs(spectral[1] - real[1]) <= 1e-12 * scale

    def test_symmetric_where_the_discretization_is(self, kwargs):
        """At ``v = 0`` nothing is interpolated: the Hessian is ``beta A`` plus
        a quadrature of pointwise products, symmetric to round-off — through
        the projection, the symbol multiply and the Parseval sums."""
        problem = make_problem(**kwargs)
        iterate = problem.linearize(problem.zero_velocity())
        (hp_q, p_hq), _, scale = self.forms(problem, iterate, seeds=(10, 11))
        assert abs(hp_q - p_hq) <= 1e-10 * scale

    def test_positive(self, kwargs):
        problem = make_problem(**kwargs)
        fft = problem.operators.fft
        iterate = problem.linearize(problem.zero_velocity())
        for seed in (12, 13, 14):
            p_hat = fft.forward_vector(direction(problem, seed))
            assert fft.inner(problem.hessian_matvec(iterate, p_hat), p_hat) > 0.0


@pytest.mark.parametrize("incompressible", [False, True])
def test_pcg_on_half_spectra_takes_the_steps_of_pcg_on_fields(incompressible):
    problem = make_problem(incompressible=incompressible, gauss_newton=True)
    grid, fft = problem.grid, problem.operators.fft
    iterate = problem.linearize(direction(problem, seed=15))
    preconditioner = SpectralPreconditioner(problem.regularizer)
    options = dict(rel_tol=1e-6, max_iterations=12)

    on_spectra = pcg(
        problem.hessian_operator(iterate),
        -iterate.gradient_spectrum,
        fft,
        preconditioner,
        **options,
    )
    on_fields = pcg(
        problem.hessian_operator(iterate),
        -iterate.gradient,
        grid,
        lambda r: fft.inverse_vector(preconditioner(fft.forward_vector(r))),
        **options,
    )
    assert on_spectra.iterations == on_fields.iterations >= 3
    np.testing.assert_allclose(on_spectra.residual_norms, on_fields.residual_norms, rtol=1e-10)
    step = fft.inverse_vector(on_spectra.solution)
    assert relative_error(grid, step, on_fields.solution) < 1e-10
