"""Spectral differential operators on the periodic grid.

These implement every spatial operator the formulation needs (Sec. II-B and
III-B1 of the paper):

* first derivatives, gradient and divergence,
* the (vector) Laplacian ``lap`` used by the H1 regularization,
* the biharmonic operator ``lap^2`` used by the H2 regularization,
* the Leray projection ``P = I - grad lap^{-1} div`` which eliminates the
  incompressibility constraint ``div v = 0`` from the optimality system.

All operators are Fourier multipliers, hence commute, are exact for band
limited fields, and are applied in ``O(N^3 log N)`` time.  The ``lap^{-1}``
of the Leray projection is the Moore-Penrose pseudo-inverse: the constant
(zero-frequency) mode, which lies in the null space, is mapped to zero.

Two performance properties of this layer:

* every spectral symbol comes from the process-wide
  :mod:`repro.spectral.symbols` store, so grids of equal value share one set
  of symbol arrays across operators, regularizations and filters;
* every vector-field operator transforms all components in one **batched**
  FFT call (:meth:`FourierTransform.forward_vector` /
  :meth:`FourierTransform.inverse_vector`), which mirrors the paper's
  optimization of the ``grad``/``div`` operators (Sec. III-C1: avoid
  multiple 3D FFT invocations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.spectral.fft import FourierTransform
from repro.spectral.grid import Grid
from repro.spectral.symbols import SymbolTable, get_symbols
from repro.utils.validation import check_velocity_shape


@dataclass
class SpectralOperators:
    """Collection of Fourier-multiplier operators bound to one grid.

    Parameters
    ----------
    grid:
        The periodic computational grid.
    """

    grid: Grid

    def __post_init__(self) -> None:
        self.fft = FourierTransform(self.grid)
        self.symbols: SymbolTable = get_symbols(self.grid)

    # ------------------------------------------------------------------ #
    # scalar operators
    # ------------------------------------------------------------------ #
    def derivative(self, field: np.ndarray, axis: int) -> np.ndarray:
        """Partial derivative ``d field / d x_axis``."""
        if axis not in (0, 1, 2):
            raise ValueError(f"axis must be 0, 1 or 2, got {axis}")
        spectrum = self.fft.forward(field)
        spectrum = spectrum * self.symbols.ik[axis]
        return self.fft.backward(spectrum)

    def gradient(self, field: np.ndarray) -> np.ndarray:
        """Gradient of a scalar field, returned as ``(3, N1, N2, N3)``.

        A single forward transform is shared by the three derivatives and
        the three inverse transforms run as one batched call.
        """
        spectrum = self.fft.forward(field)
        ik1, ik2, ik3 = self.symbols.ik
        stacked = np.stack([ik1 * spectrum, ik2 * spectrum, ik3 * spectrum], axis=0)
        return self.fft.inverse_vector(stacked)

    def gradient_many(self, fields: np.ndarray) -> np.ndarray:
        """Gradients of a ``(B, N1, N2, N3)`` stack, returned ``(B, 3, ...)``.

        The whole stack runs through one batched forward and one batched
        inverse transform (``4 B`` scalar FFTs, exactly the per-field count
        of :meth:`gradient` — batching changes the dispatch, never the
        complexity accounting).  This is the time-axis fusion of the
        incremental solvers: all ``nt + 1`` state-gradient levels in two
        FFT calls instead of ``nt + 1`` Python-loop iterations.
        """
        fields = np.asarray(fields)
        if fields.ndim != 4 or fields.shape[1:] != self.grid.shape:
            raise ValueError(
                f"field stack has shape {fields.shape}, expected (B, {', '.join(map(str, self.grid.shape))})"
            )
        spectra = self.fft.forward_batch(fields)
        ik1, ik2, ik3 = self.symbols.ik
        stacked = np.stack([ik1 * spectra, ik2 * spectra, ik3 * spectra], axis=1)
        return self.fft.backward_batch(stacked)

    def laplacian(self, field: np.ndarray) -> np.ndarray:
        """Scalar Laplacian ``lap field``."""
        return self.fft.apply_symbol(field, self.symbols.minus_ksq)

    def biharmonic(self, field: np.ndarray) -> np.ndarray:
        """Biharmonic operator ``lap^2 field``."""
        return self.fft.apply_symbol(field, self.symbols.k4)

    def apply_scalar_symbol(self, field: np.ndarray, symbol: np.ndarray) -> np.ndarray:
        """Apply an arbitrary Fourier multiplier to a scalar field."""
        return self.fft.apply_symbol(field, symbol)

    # ------------------------------------------------------------------ #
    # vector operators (batched transforms)
    # ------------------------------------------------------------------ #
    def divergence(self, vector_field: np.ndarray) -> np.ndarray:
        """Divergence of a ``(3, N1, N2, N3)`` vector field."""
        vector_field = check_velocity_shape(vector_field, self.grid.shape)
        return self.divergence_of_spectra(self.fft.forward_vector(vector_field))

    def divergence_of_spectra(self, spectra: np.ndarray) -> np.ndarray:
        """Divergence (a real field) of the vector field with half-spectra *spectra*."""
        ik1, ik2, ik3 = self.symbols.ik
        return self.fft.backward(ik1 * spectra[0] + ik2 * spectra[1] + ik3 * spectra[2])

    def divergence_many(self, vector_fields: np.ndarray) -> np.ndarray:
        """Divergences of a ``(B, 3, N1, N2, N3)`` stack, returned ``(B, ...)``.

        One batched forward over all ``3 B`` components and one batched
        inverse over the ``B`` results (``4 B`` scalar FFTs, matching ``B``
        calls of :meth:`divergence`).  Fuses the full-Newton source loop of
        the incremental adjoint into two FFT calls.
        """
        vector_fields = np.asarray(vector_fields)
        if vector_fields.ndim != 5 or vector_fields.shape[1:] != (3, *self.grid.shape):
            raise ValueError(
                f"vector stack has shape {vector_fields.shape}, "
                f"expected (B, 3, {', '.join(map(str, self.grid.shape))})"
            )
        spectra = self.fft.forward_batch(vector_fields)
        ik1, ik2, ik3 = self.symbols.ik
        combined = ik1 * spectra[:, 0] + ik2 * spectra[:, 1] + ik3 * spectra[:, 2]
        return self.fft.backward_batch(combined)

    def vector_laplacian(self, vector_field: np.ndarray) -> np.ndarray:
        """Component-wise Laplacian of a vector field (one batched call)."""
        return self.apply_vector_symbol(vector_field, self.symbols.minus_ksq)

    def vector_biharmonic(self, vector_field: np.ndarray) -> np.ndarray:
        """Component-wise biharmonic operator on a vector field."""
        return self.apply_vector_symbol(vector_field, self.symbols.k4)

    def apply_vector_symbol(self, vector_field: np.ndarray, symbol: np.ndarray) -> np.ndarray:
        """Apply a Fourier multiplier to each component of a vector field."""
        vector_field = check_velocity_shape(vector_field, self.grid.shape)
        return self.fft.apply_symbol_vector(vector_field, symbol)

    def jacobian(self, vector_field: np.ndarray) -> np.ndarray:
        """Full Jacobian ``d v_i / d x_j`` of a vector field, shape ``(3, 3, ...)``.

        Three forward transforms (batched) feed all nine derivative spectra,
        which come back through a single batched inverse transform.
        """
        vector_field = check_velocity_shape(vector_field, self.grid.shape)
        spectra = self.fft.forward_vector(vector_field)
        ik = self.symbols.ik
        rows = np.stack(
            [
                np.stack([ik[j] * spectra[i] for j in range(3)], axis=0)
                for i in range(3)
            ],
            axis=0,
        )
        return self.fft.backward_batch(rows)

    def convective_derivative(
        self,
        velocity: np.ndarray,
        vector_field: np.ndarray,
        spectra: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``(v . grad) w`` of two ``(3, N1, N2, N3)`` fields.

        The Jacobian of ``w`` contracted with ``v`` one derivative direction
        at a time: one batched forward transform, three batched inverses of
        three fields each (12 transforms, three derivative fields live where
        :meth:`jacobian` holds nine).  A caller that already holds the
        half-spectra of ``w`` passes them as *spectra* and saves the forward.
        """
        velocity = check_velocity_shape(velocity, self.grid.shape)
        if spectra is None:
            vector_field = check_velocity_shape(vector_field, self.grid.shape)
            spectra = self.fft.forward_vector(vector_field)
        ik1, ik2, ik3 = self.symbols.ik
        out = velocity[0] * self.fft.inverse_vector(ik1 * spectra)
        out += velocity[1] * self.fft.inverse_vector(ik2 * spectra)
        out += velocity[2] * self.fft.inverse_vector(ik3 * spectra)
        return out

    # ------------------------------------------------------------------ #
    # Leray projection
    # ------------------------------------------------------------------ #
    def leray_project(self, vector_field: np.ndarray) -> np.ndarray:
        """Project a vector field onto its divergence-free part.

        Implements ``P v = v - grad lap^{-1} div v`` (the Leray operator of
        Eq. 4), applied entirely in the spectral domain:
        ``P v^ = v^ - k (k . v^) / |k|^2`` (:meth:`leray_project_spectra`).
        """
        vector_field = check_velocity_shape(vector_field, self.grid.shape)
        spectra = self.fft.forward_vector(vector_field)
        return self.fft.inverse_vector(self.leray_project_spectra(spectra, out=spectra))

    def leray_project_spectra(
        self, spectra: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """The Leray projection of a ``(3, N1, N2, N3//2+1)`` half-spectrum stack.

        Diagonal in Fourier space, so it costs no transform; *out* may be
        *spectra* itself (the projection then runs in place).
        """
        spectra = np.asarray(spectra)
        if spectra.shape != (3, *self.fft.spectral_shape):
            raise ValueError(
                f"spectra have shape {spectra.shape}, expected {(3, *self.fft.spectral_shape)}"
            )
        k = self.grid.wavenumber_mesh(real_last_axis=True, derivative=True)
        factor = k[0] * spectra[0] + k[1] * spectra[1] + k[2] * spectra[2]
        factor *= self.symbols.inv_derivative_ksq
        if out is None:
            out = np.empty_like(spectra)
        for axis in range(3):
            np.subtract(spectra[axis], k[axis] * factor, out=out[axis])
        return out

    def is_divergence_free(self, vector_field: np.ndarray, tol: float = 1e-10) -> bool:
        """Check (up to *tol*, relative) that ``div v`` vanishes."""
        div = self.divergence(vector_field)
        scale = max(self.grid.norm(vector_field), 1e-30)
        return self.grid.norm(div) <= tol * scale
