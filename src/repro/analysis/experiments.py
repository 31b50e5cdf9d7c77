"""Experiment drivers that regenerate the paper's tables and figures.

Each driver returns plain data (lists of dictionaries) so it can be used
from the benchmark harness, the examples, or interactively.  Two kinds of
reproduction are combined (see README.md, "Substitutions"):

* **measured** — the actual Python solver is run at laptop-scale resolution
  (the algorithmic quantities the paper reports — Newton iterations,
  Hessian mat-vecs, residual reduction, positivity of ``det grad y`` — are
  resolution-independent claims and are measured for real);
* **modeled** — wall-clock rows for the paper's node counts are projected
  with the calibrated performance model of
  :mod:`repro.parallel.performance` (a laptop cannot time 1024-task runs).

Every returned entry carries a ``source`` field (``"paper"``, ``"model"``
or ``"measured"``) so reports remain unambiguous about what was measured
and what was projected.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.paper_tables import TABLE_V, PaperRun, paper_table
from repro.core.optim.gauss_newton import SolverOptions
from repro.core.registration import RegistrationSolver
from repro.data.brain import brain_registration_pair
from repro.data.synthetic import synthetic_registration_problem
from repro.parallel.machines import get_machine
from repro.parallel.performance import RegistrationCostModel


# --------------------------------------------------------------------------- #
# Tables I-IV: scaling studies (paper rows + model projections)
# --------------------------------------------------------------------------- #
def _model_entry(run: PaperRun, num_time_steps: int, num_newton: int, num_matvecs: int) -> Dict[str, object]:
    model = RegistrationCostModel(
        grid_shape=run.grid,
        num_tasks=run.tasks,
        machine=get_machine(run.machine),
        num_time_steps=num_time_steps,
        num_newton_iterations=num_newton,
        num_hessian_matvecs=num_matvecs,
    )
    breakdown = model.breakdown()
    return {
        "label": f"run #{run.run_id}",
        "grid": "x".join(str(n) for n in run.grid),
        "tasks": run.tasks,
        "source": "model",
        **{k: v for k, v in breakdown.as_dict().items() if k not in ("num_tasks", "num_nodes")},
    }


def _paper_entry(run: PaperRun) -> Dict[str, object]:
    return {
        "label": f"run #{run.run_id}",
        "grid": "x".join(str(n) for n in run.grid),
        "tasks": run.tasks,
        "source": "paper",
        "time_to_solution": run.time_to_solution,
        "fft_communication": run.fft_communication,
        "fft_execution": run.fft_execution,
        "interp_communication": run.interp_communication,
        "interp_execution": run.interp_execution,
    }


def reproduce_scaling_table(
    table: str,
    num_time_steps: int = 4,
    num_newton_iterations: int = 2,
    num_hessian_matvecs: int = 2,
) -> List[Dict[str, object]]:
    """Paper rows and model projections for scaling Table ``"I"``-``"IV"``.

    The iteration counts default to the paper's scalability setup (two
    Gauss-Newton iterations); pass the counts measured by
    :func:`measure_solver_iterations` to tie the projection to an actual
    solve of the same problem at reduced resolution.
    """
    entries: List[Dict[str, object]] = []
    for run in paper_table(table):
        entries.append(_paper_entry(run))
        entries.append(
            _model_entry(run, num_time_steps, num_newton_iterations, num_hessian_matvecs)
        )
    return entries


def measure_solver_iterations(
    resolution: int = 32,
    beta: float = 1e-2,
    incompressible: bool = False,
    num_newton_iterations: int = 2,
    num_time_steps: int = 4,
) -> Dict[str, object]:
    """Run the real solver on the synthetic problem (scaled down) and count work.

    The paper's scalability runs fix the number of Newton iterations to two;
    this helper measures how many Hessian mat-vecs the inexact solver needs
    in that setting so the performance model projects the same amount of
    algorithmic work.
    """
    problem = synthetic_registration_problem(
        resolution, num_time_steps=num_time_steps, incompressible=incompressible
    )
    options = SolverOptions(
        gradient_tolerance=1e-2,
        max_newton_iterations=num_newton_iterations,
        max_krylov_iterations=50,
    )
    solver = RegistrationSolver(
        beta=beta,
        incompressible=incompressible,
        num_time_steps=num_time_steps,
        options=options,
    )
    result = solver.run(problem.template, problem.reference, grid=problem.grid)
    return {
        "resolution": resolution,
        "newton_iterations": result.num_newton_iterations,
        "hessian_matvecs": result.num_hessian_matvecs,
        "relative_residual": result.relative_residual,
        "det_grad_min": result.det_grad_stats["min"],
        "time_to_solution": result.elapsed_seconds,
        "source": "measured",
    }


# --------------------------------------------------------------------------- #
# Table V: sensitivity to the regularization weight beta
# --------------------------------------------------------------------------- #
def reproduce_beta_sensitivity(
    resolution: int = 24,
    betas: Sequence[float] = (1e-1, 1e-3, 1e-5),
    num_newton_iterations: int = 4,
    max_krylov_iterations: int = 100,
    seed: int = 42,
) -> List[Dict[str, object]]:
    """Measured analogue of Table V on the brain-phantom pair.

    The paper fixes four Newton iterations and reports how the number of
    Hessian mat-vecs (and hence the time to solution) grows as ``beta``
    decreases, exposing the ``beta``-dependence of the preconditioner.  The
    same experiment is run here at reduced resolution; the *growth factors*
    are the reproduced quantity.
    """
    pair = brain_registration_pair(base_resolution=resolution, seed=seed)
    rows: List[Dict[str, object]] = []
    baseline_time: Optional[float] = None
    baseline_matvecs: Optional[int] = None
    for beta in betas:
        options = SolverOptions(
            gradient_tolerance=1e-12,  # run the fixed iteration budget, as in the paper
            absolute_gradient_tolerance=1e-30,
            max_newton_iterations=num_newton_iterations,
            max_krylov_iterations=max_krylov_iterations,
        )
        solver = RegistrationSolver(beta=beta, options=options)
        start = time.perf_counter()
        result = solver.run(pair.template, pair.reference, grid=pair.grid)
        elapsed = time.perf_counter() - start
        if baseline_time is None:
            baseline_time = elapsed
            baseline_matvecs = max(result.num_hessian_matvecs, 1)
        paper_row = TABLE_V.get(beta)
        rows.append(
            {
                "beta": beta,
                "source": "measured",
                "hessian_matvecs": result.num_hessian_matvecs,
                "time_to_solution": elapsed,
                "relative_time": elapsed / baseline_time,
                "relative_matvecs": result.num_hessian_matvecs / baseline_matvecs,
                "relative_residual": result.relative_residual,
                "paper_matvecs": paper_row[0] if paper_row else None,
                "paper_time": paper_row[1] if paper_row else None,
                "paper_relative_time": paper_row[2] if paper_row else None,
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# Figures 5-7: synthetic problem and brain registration
# --------------------------------------------------------------------------- #
def reproduce_synthetic_problem(
    resolution: int = 32,
    beta: float = 1e-2,
    incompressible: bool = False,
    max_newton_iterations: int = 10,
) -> Dict[str, object]:
    """Regenerate the synthetic experiment of Fig. 5 and report its metrics."""
    problem = synthetic_registration_problem(resolution, incompressible=incompressible)
    options = SolverOptions(
        gradient_tolerance=1e-2,
        max_newton_iterations=max_newton_iterations,
        max_krylov_iterations=50,
    )
    solver = RegistrationSolver(beta=beta, incompressible=incompressible, options=options)
    result = solver.run(problem.template, problem.reference, grid=problem.grid)
    summary = result.summary()
    summary.update(
        {
            "resolution": resolution,
            "incompressible": incompressible,
            "beta": beta,
            "source": "measured",
        }
    )
    return summary


def reproduce_brain_registration(
    resolution: int = 32,
    beta: float = 1e-3,
    gradient_tolerance: float = 1e-2,
    max_newton_iterations: int = 25,
    seed: int = 42,
    slices: Sequence[float] = (0.45, 0.5, 0.6),
) -> Dict[str, object]:
    """Regenerate the brain registration of Figs. 6-7 on the phantom pair.

    Returns the global metrics plus per-slice residual reductions and
    ``det(grad y)`` statistics (the paper's Fig. 7 shows three axial
    slices).
    """
    pair = brain_registration_pair(base_resolution=resolution, seed=seed)
    options = SolverOptions(
        gradient_tolerance=gradient_tolerance,
        max_newton_iterations=max_newton_iterations,
        max_krylov_iterations=50,
    )
    solver = RegistrationSolver(beta=beta, options=options)
    result = solver.run(pair.template, pair.reference, grid=pair.grid)

    reference = result.problem.reference
    template = result.problem.template
    deformed = result.deformed_template
    det = result.deformation.determinant()

    slice_rows = []
    n_axial = pair.grid.shape[1]
    for fraction in slices:
        index = min(n_axial - 1, int(round(fraction * n_axial)))
        before = float(np.linalg.norm(reference[:, index, :] - template[:, index, :]))
        after = float(np.linalg.norm(reference[:, index, :] - deformed[:, index, :]))
        slice_rows.append(
            {
                "slice_index": index,
                "residual_before": before,
                "residual_after": after,
                "residual_ratio": after / max(before, 1e-30),
                "det_grad_min": float(det[:, index, :].min()),
                "det_grad_max": float(det[:, index, :].max()),
            }
        )

    summary = result.summary()
    summary.update(
        {
            "resolution": "x".join(str(n) for n in pair.grid.shape),
            "beta": beta,
            "source": "measured",
            "slices": slice_rows,
        }
    )
    return summary
