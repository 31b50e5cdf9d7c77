"""Spectral Gaussian smoothing of input images.

The paper's pre-processing (Sec. III-B1): images have discontinuities, so
they are **smoothed spectrally with a Gaussian filter** whose bandwidth is the
grid size ``2*pi/N``.

The filter is a Fourier multiplier and therefore preserves periodicity and
commutes with the differential operators.  Filter symbols come from the
shared :mod:`repro.spectral.symbols` store and the transforms from a small
per-grid transform cache, so repeated filtering of same-sized images (the
pre-processing of every subject of a population) re-uses the symbol arrays
instead of rebuilding them per call.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

from repro.spectral.fft import FourierTransform
from repro.spectral.grid import Grid
from repro.spectral.symbols import get_symbols


@lru_cache(maxsize=64)
def _cached_transform(grid: Grid) -> FourierTransform:
    """Shared per-grid transform used by the filter.

    The filter is outside the solver's counted hot loop (its transform
    counts are not part of the ``8*nt`` complexity model), so sharing one
    frontend per grid is safe.
    """
    return FourierTransform(grid)


def _normalize_sigma(
    grid: Grid, sigma: Sequence[float] | float | None
) -> Tuple[float, float, float]:
    if sigma is None:
        sigma = grid.spacing
    if np.isscalar(sigma):
        sigma = (float(sigma),) * 3
    sigma = tuple(float(s) for s in sigma)
    if len(sigma) != 3 or any(s < 0 for s in sigma):
        raise ValueError(f"sigma must be 3 non-negative floats, got {sigma}")
    return sigma


def gaussian_symbol(grid: Grid, sigma: Sequence[float] | float | None = None) -> np.ndarray:
    """Spectral symbol ``exp(-|k sigma|^2 / 2)`` of a periodic Gaussian filter.

    Parameters
    ----------
    grid:
        Target grid.
    sigma:
        Standard deviation of the Gaussian, per dimension or scalar.  The
        default is the grid spacing (the paper smooths with a bandwidth of
        one grid cell, ``2*pi/N``).
    """
    return get_symbols(grid).gaussian(_normalize_sigma(grid, sigma))


def gaussian_smooth(
    field: np.ndarray,
    grid: Grid,
    sigma: Sequence[float] | float | None = None,
) -> np.ndarray:
    """Smooth a scalar field with the periodic spectral Gaussian filter."""
    fft = _cached_transform(grid)
    return fft.apply_symbol(np.asarray(field, dtype=grid.dtype), gaussian_symbol(grid, sigma))
