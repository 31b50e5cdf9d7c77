"""Spectral (Fourier) discretization in space.

The paper discretizes every spatial operation on a regular periodic grid via
Fourier expansions (Sec. III-B1): derivatives, the Laplacian and biharmonic
regularization operators, the Leray projection, and spectral Gaussian
smoothing of the input images.  This package provides all of those
building blocks for the single-node (serial) path; the distributed
counterparts built on the pencil-decomposed FFT live in
:mod:`repro.parallel`.

The FFT engine is :mod:`numpy.fft`, called directly by
:class:`~repro.spectral.fft.FourierTransform`.  Spectral symbols are shared
per grid through the :mod:`repro.spectral.symbols` store.
"""

from repro.spectral.fft import FFTCounters, FourierTransform
from repro.spectral.filters import gaussian_smooth
from repro.spectral.grid import Grid
from repro.spectral.operators import SpectralOperators
from repro.spectral.symbols import SymbolTable, get_symbols

__all__ = [
    "FFTCounters",
    "FourierTransform",
    "Grid",
    "SpectralOperators",
    "SymbolTable",
    "gaussian_smooth",
    "get_symbols",
]
