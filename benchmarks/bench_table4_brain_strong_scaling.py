"""Table IV — strong scaling on the brain images (runs #25-#29).

The paper registers the NIREP na01/na02 pair (256 x 300 x 256) with
beta = 1e-2 and two Newton iterations, from 1 task to 256 tasks on
Maverick, and reports a two-orders-of-magnitude reduction in wall-clock
time.  Here the algorithmic work is measured on the brain-phantom pair
(the NIREP substitute, see README.md, "Substitutions") at reduced
resolution and the paper-scale rows come from the calibrated performance
model.
"""

from repro.analysis.experiments import reproduce_scaling_table
from repro.analysis.paper_tables import TABLE_IV
from repro.analysis.reporting import format_breakdown_table, format_rows
from repro.core.optim.gauss_newton import SolverOptions
from repro.core.registration import RegistrationSolver
from repro.data.brain import brain_registration_pair


def test_table4_rows(benchmark, record_text, record_json, measured_synthetic_counts):
    counts = measured_synthetic_counts

    def build():
        return reproduce_scaling_table(
            "IV",
            num_newton_iterations=2,
            num_hessian_matvecs=max(counts["hessian_matvecs"], 1),
        )

    entries = benchmark.pedantic(build, rounds=1, iterations=1)
    record_text(
        "table4_brain_strong_scaling",
        format_breakdown_table(
            entries, title="Table IV (brain, 256x300x256, Maverick): paper vs model"
        ),
    )
    record_json("table4_brain_strong_scaling", {"entries": entries})
    assert len(entries) == 2 * len(TABLE_IV)
    model = [e for e in entries if e["source"] == "model"]
    # the paper's headline: going from 1 task to 256 tasks cuts the wall-clock
    # time by about two orders of magnitude
    speedup = model[0]["time_to_solution"] / model[-1]["time_to_solution"]
    assert speedup > 30.0


def test_table4_brain_phantom_registration_measured(benchmark, record_text, record_json):
    """Measured registration of the multi-subject brain phantom (2 GN iterations,
    beta = 1e-2, the setup of the paper's scalability runs)."""
    pair = brain_registration_pair(base_resolution=24, seed=42)

    def run():
        options = SolverOptions(
            gradient_tolerance=1e-2, max_newton_iterations=2, max_krylov_iterations=50
        )
        solver = RegistrationSolver(beta=1e-2, options=options)
        return solver.run(pair.template, pair.reference, grid=pair.grid)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    summary = result.summary()
    summary["grid"] = "x".join(map(str, pair.grid.shape))
    record_text(
        "table4_brain_measured",
        format_rows([summary], title="Brain-phantom registration, 2 GN iterations (measured)"),
    )
    record_json("table4_brain_measured", {"summary": summary})
    assert summary["residual_after"] < summary["residual_before"]
    assert summary["det_grad_min"] > 0.0
