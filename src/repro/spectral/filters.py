"""Spectral filters, padding, and grid-transfer operators.

The paper's pre-processing pipeline (Sec. III-B1):

* input images are generally **not periodic**, so they are zero-padded before
  the spectral discretization is applied;
* images have discontinuities, so they are **smoothed spectrally with a
  Gaussian filter** whose bandwidth is the grid size ``2*pi/N``;
* the ``beta``-continuation and the two-level ideas referenced in the paper
  require transferring fields between grids, which the spectral basis does
  exactly for resolved modes (restriction/prolongation by spectral
  truncation/zero-filling).

All filters are Fourier multipliers and therefore preserve periodicity and
commute with the differential operators.  Filter symbols come from the
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
    """Shared per-grid transform used by the filters.

    The filters are outside the solver's counted hot loop (their transform
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


def low_pass_filter(
    field: np.ndarray,
    grid: Grid,
    cutoff_fraction: float = 2.0 / 3.0,
) -> np.ndarray:
    """Sharp spectral low-pass (classic 2/3 de-aliasing rule by default).

    Modes with ``|k_j| > cutoff_fraction * k_nyquist_j`` in any direction are
    zeroed.
    """
    if not 0.0 < cutoff_fraction <= 1.0:
        raise ValueError(f"cutoff_fraction must lie in (0, 1], got {cutoff_fraction}")
    fft = _cached_transform(grid)
    mask = get_symbols(grid).low_pass_mask(cutoff_fraction)
    return fft.apply_symbol(np.asarray(field, dtype=grid.dtype), mask)


# --------------------------------------------------------------------------- #
# zero padding of non-periodic data
# --------------------------------------------------------------------------- #
def zero_pad(field: np.ndarray, pad_width: int | Tuple[int, int, int]) -> np.ndarray:
    """Embed a (possibly non-periodic) image into a larger zero background.

    The paper zero-pads the input images so that the periodic spectral
    approximation does not produce excessive aliasing from the wrap-around
    discontinuity.  Padding is symmetric per dimension.
    """
    field = np.asarray(field)
    if field.ndim != 3:
        raise ValueError(f"expected a 3D image, got ndim={field.ndim}")
    if np.isscalar(pad_width):
        pad_width = (int(pad_width),) * 3
    pad_width = tuple(int(p) for p in pad_width)
    if any(p < 0 for p in pad_width):
        raise ValueError(f"pad widths must be non-negative, got {pad_width}")
    pads = [(p, p) for p in pad_width]
    return np.pad(field, pads, mode="constant", constant_values=0.0)


def remove_padding(field: np.ndarray, pad_width: int | Tuple[int, int, int]) -> np.ndarray:
    """Inverse of :func:`zero_pad`: crop the symmetric zero margin."""
    field = np.asarray(field)
    if np.isscalar(pad_width):
        pad_width = (int(pad_width),) * 3
    pad_width = tuple(int(p) for p in pad_width)
    slices = tuple(
        slice(p, field.shape[d] - p if p else None) for d, p in enumerate(pad_width)
    )
    return field[slices]


# --------------------------------------------------------------------------- #
# grid transfer (spectral restriction / prolongation)
# --------------------------------------------------------------------------- #
def _spectral_copy_indices(n_src: int, n_dst: int) -> Tuple[np.ndarray, np.ndarray]:
    """Matching full-spectrum FFT indices of modes present on both grids."""
    n_keep = min(n_src, n_dst)
    kmax = (n_keep - 1) // 2
    # retain modes -kmax..kmax (drop the unmatched Nyquist mode to stay real
    # and symmetric)
    freqs = list(range(0, kmax + 1)) + list(range(-kmax, 0))
    src_idx = np.array([f % n_src for f in freqs], dtype=np.intp)
    dst_idx = np.array([f % n_dst for f in freqs], dtype=np.intp)
    return src_idx, dst_idx


def _resample(field: np.ndarray, src: Grid, dst: Grid) -> np.ndarray:
    """Spectral resampling of a scalar field between two grids on one domain."""
    if not np.allclose(src.lengths, dst.lengths):
        raise ValueError("grids must cover the same physical domain")
    spectrum = np.fft.fftn(np.asarray(field, dtype=src.dtype))
    out_spectrum = np.zeros(dst.shape, dtype=complex)
    idx = [_spectral_copy_indices(src.shape[d], dst.shape[d]) for d in range(3)]
    src_idx = np.ix_(idx[0][0], idx[1][0], idx[2][0])
    dst_idx = np.ix_(idx[0][1], idx[1][1], idx[2][1])
    out_spectrum[dst_idx] = spectrum[src_idx]
    scale = dst.num_points / src.num_points
    return np.real(np.fft.ifftn(out_spectrum * scale)).astype(dst.dtype)


def restrict(field: np.ndarray, fine: Grid, coarse: Grid) -> np.ndarray:
    """Restrict a field from a fine grid to a coarse grid (spectral truncation)."""
    for n_f, n_c in zip(fine.shape, coarse.shape):
        if n_c > n_f:
            raise ValueError("coarse grid must not be finer than the fine grid")
    return _resample(field, fine, coarse)


def prolong(field: np.ndarray, coarse: Grid, fine: Grid) -> np.ndarray:
    """Prolong a field from a coarse grid to a fine grid (spectral zero fill)."""
    for n_f, n_c in zip(fine.shape, coarse.shape):
        if n_c > n_f:
            raise ValueError("fine grid must not be coarser than the coarse grid")
    return _resample(field, coarse, fine)
