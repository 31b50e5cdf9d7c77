"""Spectral (Fourier) discretization in space.

The paper discretizes every spatial operation on a regular periodic grid via
Fourier expansions (Sec. III-B1): derivatives, the Laplacian and biharmonic
regularization operators, their inverses (used by the preconditioner and by
the Leray projection), spectral Gaussian smoothing of the input images, and
zero padding of non-periodic data.  This package provides all of those
building blocks for the single-node (serial) path; the distributed
counterparts built on the pencil-decomposed FFT live in
:mod:`repro.parallel`.

The FFT engine is :mod:`numpy.fft`, called directly by
:class:`~repro.spectral.fft.FourierTransform`.  Spectral symbols are shared
per grid through the :mod:`repro.spectral.symbols` store.
"""

from repro.spectral.fft import FFTCounters, FourierTransform
from repro.spectral.filters import (
    gaussian_smooth,
    low_pass_filter,
    prolong,
    remove_padding,
    restrict,
    zero_pad,
)
from repro.spectral.grid import Grid
from repro.spectral.operators import SpectralOperators
from repro.spectral.symbols import SymbolTable, clear_symbol_cache, get_symbols

__all__ = [
    "FFTCounters",
    "FourierTransform",
    "Grid",
    "SpectralOperators",
    "SymbolTable",
    "clear_symbol_cache",
    "gaussian_smooth",
    "get_symbols",
    "low_pass_filter",
    "prolong",
    "remove_padding",
    "restrict",
    "zero_pad",
]
