"""Cached spectral-symbol store, keyed by grid.

Every Fourier-multiplier operator in the code base (derivatives, Laplacian,
biharmonic, the Leray projection, the Gaussian filter, the Sobolev
regularization symbols and their pseudo-inverses) is a fixed array that
depends only on the grid (and, for the parametric symbols, an order or a width).  The
seed implementation recomputed several of these per consumer; this store
computes each symbol once per grid and shares it across every
:class:`~repro.spectral.operators.SpectralOperators`, regularization and
filter instance bound to an equal grid.

:class:`~repro.spectral.grid.Grid` is a frozen, hashable dataclass, so the
store is a plain ``lru_cache`` over the grid value.  Symbols are read-only
(``writeable=False``) to keep the sharing safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Dict, Tuple

import numpy as np

from repro.spectral.grid import Grid


def _readonly(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass
class SymbolTable:
    """All spectral symbols of one grid, computed lazily and cached.

    The arrays are laid out for the half-spectrum of the real-to-complex
    transform (``real_last_axis=True``), matching
    :attr:`repro.spectral.fft.FourierTransform.spectral_shape`.
    """

    grid: Grid
    _parametric: Dict[Tuple, np.ndarray] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------ #
    # derivative / Laplacian family
    # ------------------------------------------------------------------ #
    @cached_property
    def ik(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable ``i*k_j`` first-derivative multipliers.

        Nyquist modes are zeroed (see
        :meth:`repro.spectral.grid.Grid.derivative_wavenumbers_1d`) so the
        discrete first derivatives stay skew-adjoint and ``div P v = 0``
        holds exactly after the Leray projection.
        """
        k1, k2, k3 = self.grid.wavenumber_mesh(real_last_axis=True, derivative=True)
        return (_readonly(1j * k1), _readonly(1j * k2), _readonly(1j * k3))

    @cached_property
    def minus_ksq(self) -> np.ndarray:
        """Laplacian symbol ``-|k|^2`` (negative semi-definite)."""
        return _readonly(self.grid.laplacian_symbol(real_last_axis=True))

    @cached_property
    def ksq(self) -> np.ndarray:
        return _readonly(-self.minus_ksq)

    @cached_property
    def k4(self) -> np.ndarray:
        """Biharmonic symbol ``|k|^4``."""
        return _readonly(self.ksq * self.ksq)

    @cached_property
    def derivative_ksq(self) -> np.ndarray:
        """``|k|^2`` built from the *derivative* wavenumbers (Nyquist zeroed).

        This is the denominator of the Leray projection, which must use the
        same wavenumber convention as the ``i*k`` numerators.
        """
        k1, k2, k3 = self.grid.wavenumber_mesh(real_last_axis=True, derivative=True)
        return _readonly(k1 * k1 + k2 * k2 + k3 * k3)

    @cached_property
    def inv_derivative_ksq(self) -> np.ndarray:
        """Pseudo-inverse of :attr:`derivative_ksq` (the Leray denominator)."""
        return _readonly(_pseudo_inverse(self.derivative_ksq))

    # ------------------------------------------------------------------ #
    # parametric symbols (Sobolev orders, Gaussian filter)
    # ------------------------------------------------------------------ #
    def sobolev(self, order: int) -> np.ndarray:
        """Sobolev seminorm symbol ``|k|^(2*order)`` (H1, H2, H3, ...)."""
        key = ("sobolev", int(order))
        if key not in self._parametric:
            self._parametric[key] = _readonly(self.ksq ** int(order))
        return self._parametric[key]

    def inverse_sobolev(self, order: int) -> np.ndarray:
        """Pseudo-inverse of :meth:`sobolev` (zero on the constant mode)."""
        key = ("inverse_sobolev", int(order))
        if key not in self._parametric:
            self._parametric[key] = _readonly(_pseudo_inverse(self.sobolev(order)))
        return self._parametric[key]

    def gaussian(self, sigma: Tuple[float, float, float]) -> np.ndarray:
        """Periodic Gaussian filter symbol ``exp(-|k sigma|^2 / 2)``."""
        key = ("gaussian", tuple(float(s) for s in sigma))
        if key not in self._parametric:
            k1, k2, k3 = self.grid.wavenumber_mesh(real_last_axis=True)
            exponent = (
                (k1 * key[1][0]) ** 2 + (k2 * key[1][1]) ** 2 + (k3 * key[1][2]) ** 2
            )
            self._parametric[key] = _readonly(np.exp(-0.5 * exponent))
        return self._parametric[key]


def _pseudo_inverse(symbol: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a diagonal symbol (0 maps to 0)."""
    out = np.zeros_like(symbol)
    nonzero = symbol != 0.0
    out[nonzero] = 1.0 / symbol[nonzero]
    return out


@lru_cache(maxsize=64)
def get_symbols(grid: Grid) -> SymbolTable:
    """The shared :class:`SymbolTable` of *grid* (process-wide cache)."""
    return SymbolTable(grid)
