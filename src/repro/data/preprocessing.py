"""Image pre-processing used before registration.

The paper's pipeline (Sec. III-B1): images are rescaled and smoothed
spectrally with a Gaussian whose bandwidth equals the grid spacing so that
the spectral differentiation of discontinuous intensities does not produce
excessive aliasing.
"""

from __future__ import annotations

import numpy as np

from repro.spectral.filters import gaussian_smooth
from repro.spectral.grid import Grid


def normalize_intensity(image: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Affinely rescale intensities to the unit interval ``[0, 1]``.

    A constant image is mapped to zeros (there is nothing to register).
    """
    image = np.asarray(image, dtype=np.float64)
    lo = float(image.min())
    hi = float(image.max())
    if hi - lo < eps:
        return np.zeros_like(image)
    return (image - lo) / (hi - lo)


def smooth_image(image: np.ndarray, grid: Grid, sigma_cells: float = 1.0) -> np.ndarray:
    """Spectral Gaussian smoothing with a bandwidth of *sigma_cells* cells.

    ``sigma_cells = 1`` reproduces the paper's choice of a ``2*pi/N``
    bandwidth.
    """
    if sigma_cells < 0:
        raise ValueError(f"sigma_cells must be non-negative, got {sigma_cells}")
    if sigma_cells == 0:
        return np.asarray(image, dtype=grid.dtype).copy()
    sigma = tuple(sigma_cells * h for h in grid.spacing)
    return gaussian_smooth(image, grid, sigma=sigma)
