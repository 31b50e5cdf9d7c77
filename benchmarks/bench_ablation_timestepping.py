"""Ablation — number of semi-Lagrangian time steps (unconditional stability).

The paper uses only ``nt = 4`` time steps because the semi-Lagrangian scheme
is unconditionally stable; a CFL-limited scheme would need hundreds of steps
(and would make storing the time history impossible).  This ablation checks
that (i) the transported solution changes only mildly when ``nt`` is
increased beyond 4 (so ``nt = 4`` is adequate), and (ii) the CFL number of
the paper's setup is indeed well above the explicit-stability limit, i.e.
the scheme is operated in a regime where CFL-limited stepping would be far
more expensive.
"""

from repro.analysis.reporting import format_rows
from repro.data.synthetic import sinusoidal_template, synthetic_velocity
from repro.spectral.grid import Grid
from repro.transport.semi_lagrangian import cfl_number
from repro.transport.solvers import TransportSolver


def test_ablation_time_steps(benchmark, record_text, record_json):
    grid = Grid((32, 32, 32))
    template = sinusoidal_template(grid)
    velocity = synthetic_velocity(grid)

    def sweep():
        reference_solver = TransportSolver(grid, num_time_steps=32)
        reference = reference_solver.solve_state(reference_solver.plan(velocity), template)[-1]
        rows = []
        for nt in (1, 2, 4, 8, 16):
            solver = TransportSolver(grid, num_time_steps=nt)
            result = solver.solve_state(solver.plan(velocity), template)[-1]
            error = grid.norm(result - reference) / grid.norm(reference)
            cfl = cfl_number(grid, velocity, 1.0 / nt)
            rows.append({"nt": nt, "error_vs_nt32": error, "cfl_number": cfl})
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record_text(
        "ablation_timestepping",
        format_rows(rows, title="Ablation: semi-Lagrangian accuracy vs number of time steps"),
    )
    record_json("ablation_timestepping", {"rows": rows})
    errors = {row["nt"]: row["error_vs_nt32"] for row in rows}
    cfls = {row["nt"]: row["cfl_number"] for row in rows}
    # the error decreases monotonically with nt and is already small at nt = 4
    assert errors[1] > errors[4] > errors[16]
    assert errors[4] < 0.05
    # the paper's nt = 4 operates far beyond the explicit CFL limit (CFL <= 1)
    assert cfls[4] > 1.0
