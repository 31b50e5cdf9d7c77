"""Ablation — spectral preconditioner on vs off.

The paper preconditions the PCG solve with the inverse of the regularization
operator and credits it with mesh-independent Krylov convergence
("This preconditioner delivers mesh-independence — but not
beta-independence", Sec. III-A).  The ablation solves the *same* Newton
system (first Gauss-Newton step of the synthetic problem, fixed 1e-2
relative tolerance) with and without the preconditioner across a sweep of
mesh sizes and compares the PCG iteration counts:

* preconditioned counts stay (nearly) constant with the mesh size,
* unpreconditioned counts are larger and grow as the mesh is refined.
"""

from repro.analysis.reporting import format_rows
from repro.core.optim.pcg import pcg
from repro.core.problem import RegistrationProblem
from repro.data.synthetic import synthetic_registration_problem

RESOLUTIONS = (8, 12, 16, 24)


def _pcg_iterations(resolution: int, preconditioned: bool, beta: float = 1e-2) -> int:
    synthetic = synthetic_registration_problem(resolution)
    problem = RegistrationProblem(
        grid=synthetic.grid,
        reference=synthetic.reference,
        template=synthetic.template,
        beta=beta,
    )
    iterate = problem.linearize(problem.start(None))
    result = pcg(
        problem.hessian_operator(iterate),
        -iterate.gradient_spectrum,
        problem.krylov_space,
        problem.preconditioner() if preconditioned else None,
        rel_tol=1e-2,
        max_iterations=200,
    )
    return result.iterations


def test_ablation_preconditioner_mesh_independence(benchmark, record_text, record_json):
    def sweep():
        rows = []
        for resolution in RESOLUTIONS:
            rows.append(
                {
                    "resolution": resolution,
                    "pcg_iterations_preconditioned": _pcg_iterations(resolution, True),
                    "pcg_iterations_unpreconditioned": _pcg_iterations(resolution, False),
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record_text(
        "ablation_preconditioner",
        format_rows(
            rows,
            title=(
                "Ablation: PCG iterations for one Newton system, preconditioned vs "
                "unpreconditioned, across mesh sizes"
            ),
        ),
    )
    record_json("ablation_preconditioner", {"rows": rows})
    prec = [r["pcg_iterations_preconditioned"] for r in rows]
    none = [r["pcg_iterations_unpreconditioned"] for r in rows]
    # at every resolution the preconditioner does not lose to the identity
    assert all(p <= n for p, n in zip(prec, none))
    # mesh independence: the preconditioned count varies by at most a few
    # iterations across a 3x mesh refinement ...
    assert max(prec) - min(prec) <= 3
    # ... while the unpreconditioned count grows with the mesh
    assert none[-1] > none[0]
    assert none[-1] > prec[-1]
