"""Table V — sensitivity of the solver to the regularization weight beta.

The paper fixes four Newton iterations on the brain pair and reports the
number of Hessian mat-vecs and the time to solution for
beta in {1e-1, 1e-3, 1e-5}: 43 -> 217 -> 1689 mat-vecs, a 35x increase in
time.  This exposes the beta-dependence of the spectral preconditioner
(which is mesh independent but *not* beta independent).

Reproduced here on the brain phantom (NIREP substitute) at reduced
resolution in two forms:

* the **conditioning experiment** (asserted): PCG iterations needed to solve
  the first Newton system to a fixed relative tolerance grow monotonically
  as beta decreases — the mechanism behind Table V;
* the **full-solve table** (reported): four Newton iterations with the
  paper's inexact forcing, printed next to the paper's reference numbers.
  At this tiny resolution the absolute counts are far from the paper's, and
  the Eisenstat-Walker forcing partially masks the conditioning, so this
  part is recorded for comparison rather than asserted.
"""

from repro.analysis.experiments import reproduce_beta_sensitivity
from repro.analysis.reporting import format_rows
from repro.core.optim.pcg import pcg
from repro.core.preconditioner import SpectralPreconditioner
from repro.core.problem import RegistrationProblem
from repro.data.brain import brain_registration_pair

BETAS = (1e-1, 1e-3, 1e-5)


def _pcg_iterations_for_beta(pair, beta: float) -> int:
    """PCG iterations for the first Newton system at fixed relative tolerance."""
    problem = RegistrationProblem(
        grid=pair.grid, reference=pair.reference, template=pair.template, beta=beta
    )
    iterate = problem.linearize(problem.zero_velocity())
    preconditioner = SpectralPreconditioner(problem.regularizer)
    result = pcg(
        problem.hessian_operator(iterate),
        -iterate.gradient_spectrum,
        problem.operators.fft,
        preconditioner,
        rel_tol=1e-2,
        max_iterations=300,
    )
    return result.iterations


def test_table5_preconditioner_beta_dependence(benchmark, record_text, record_json):
    pair = brain_registration_pair(base_resolution=16, seed=42)
    iterations = benchmark.pedantic(
        lambda: {beta: _pcg_iterations_for_beta(pair, beta) for beta in BETAS},
        rounds=1,
        iterations=1,
    )
    rows = [
        {"beta": beta, "pcg_iterations_first_newton_system": its}
        for beta, its in iterations.items()
    ]
    record_text(
        "table5_preconditioner_beta_dependence",
        format_rows(
            rows,
            title=(
                "Table V mechanism: PCG iterations (fixed 1e-2 tolerance) vs beta "
                "(brain phantom, first Newton system)"
            ),
        ),
    )
    record_json("table5_preconditioner_beta_dependence", {"rows": rows})
    its = [iterations[beta] for beta in BETAS]
    # the Krylov work grows monotonically as beta decreases (paper: 43 -> 1689)
    assert its[0] < its[1] < its[2]
    assert its[2] >= 2 * its[0]


def test_table5_full_solve_report(benchmark, record_text, record_json):
    rows = benchmark.pedantic(
        lambda: reproduce_beta_sensitivity(
            resolution=16,
            betas=BETAS,
            num_newton_iterations=4,
            max_krylov_iterations=60,
        ),
        rounds=1,
        iterations=1,
    )
    record_text(
        "table5_beta_sensitivity",
        format_rows(
            rows,
            title=(
                "Table V: full solves, 4 Newton iterations, measured on the brain "
                "phantom (paper reference columns attached)"
            ),
        ),
    )
    record_json("table5_beta_sensitivity", {"rows": rows})
    for row in rows:
        assert row["hessian_matvecs"] > 0
        assert row["relative_residual"] < 1.0
