"""Registration quality metrics.

These are the scalar diagnostics the paper reports alongside its figures:
the (relative) residual between the reference and the (deformed) template
(Figs. 1, 5, 6, 7), and statistics of the determinant of the deformation
gradient (Fig. 7).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.spectral.grid import Grid
from repro.utils.validation import check_same_shape


def residual_norm(reference: np.ndarray, deformed_template: np.ndarray, grid: Grid) -> float:
    """L2 norm of the image mismatch ``||rho_R - rho_T(y1)||``."""
    reference = np.asarray(reference)
    deformed_template = np.asarray(deformed_template)
    check_same_shape(reference, deformed_template, "images")
    return grid.norm(reference - deformed_template)


def relative_residual(
    reference: np.ndarray,
    template: np.ndarray,
    deformed_template: np.ndarray,
    grid: Grid,
) -> float:
    """Residual after registration relative to the residual before.

    Values well below 1 indicate a successful registration; the
    rigid-vs-deformable comparison of Fig. 1 and the before/after panels of
    Figs. 5-7 are exactly this quantity shown as an image.
    """
    before = residual_norm(reference, template, grid)
    after = residual_norm(reference, deformed_template, grid)
    return after / max(before, 1e-300)


def determinant_summary(det: np.ndarray) -> Dict[str, float]:
    """Summary statistics of ``det(grad y1)`` as reported with Fig. 7."""
    det = np.asarray(det)
    return {
        "min": float(det.min()),
        "max": float(det.max()),
        "mean": float(det.mean()),
        "std": float(det.std()),
        "fraction_nonpositive": float(np.mean(det <= 0.0)),
    }
