#!/usr/bin/env python
"""Multi-subject brain registration (the paper's real-world experiment).

Registers the two "subjects" of the procedural brain phantom (the offline
substitute for the NIREP na01/na02 pair, see README.md, "Substitutions"),
reproducing the setup of Sec. IV-C: gtol = 1e-2, beta continuation down to
a small regularization weight, Gauss-Newton Hessian.  Prints the per-slice
residual reduction and det(grad y1) ranges that Fig. 7 visualizes.

Run with::

    python examples/brain_registration.py [base_resolution]
"""

from __future__ import annotations

import sys

import numpy as np

from repro import SolverOptions
from repro.analysis.reporting import format_rows
from repro.core.registration import RegistrationSolver
from repro.data.brain import brain_registration_pair


def main(base_resolution: int = 32) -> None:
    print(f"Generating a multi-subject brain-phantom pair (base resolution {base_resolution}) ...")
    pair = brain_registration_pair(base_resolution=base_resolution, seed=42)
    print(f"  grid: {pair.grid.shape} (NIREP-like aspect ratio), "
          f"initial mismatch {pair.initial_residual:.4f}")

    options = SolverOptions(
        gradient_tolerance=1e-2,
        max_newton_iterations=20,
        max_krylov_iterations=50,
    )
    solver = RegistrationSolver(beta=1e-3, options=options)
    print("Registering subject B (template) onto subject A (reference) ...")
    result = solver.run(pair.template, pair.reference, grid=pair.grid)

    print()
    print(format_rows([result.summary()], title="Registration summary"))

    # per-slice report, as in Fig. 7
    reference = result.problem.reference
    template = result.problem.template
    deformed = result.deformed_template
    det = result.deformation.determinant()
    rows = []
    n_axial = pair.grid.shape[1]
    for fraction in (0.45, 0.5, 0.6):
        index = min(n_axial - 1, int(round(fraction * n_axial)))
        before = float(np.linalg.norm(reference[:, index, :] - template[:, index, :]))
        after = float(np.linalg.norm(reference[:, index, :] - deformed[:, index, :]))
        rows.append(
            {
                "axial_slice": index,
                "residual_before": before,
                "residual_after": after,
                "det_min": float(det[:, index, :].min()),
                "det_max": float(det[:, index, :].max()),
            }
        )
    print()
    print(format_rows(rows, title="Per-slice residual and det(grad y1) (cf. paper Fig. 7)"))
    print()
    if result.is_diffeomorphic:
        print("det(grad y1) is strictly positive everywhere: the map is diffeomorphic.")
    else:
        print("WARNING: the deformation map is not diffeomorphic; increase beta.")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 32)
