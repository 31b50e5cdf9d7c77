"""Serial Fourier-transform frontend over :mod:`numpy.fft`.

The paper's implementation uses AccFFT (built on FFTW) for its distributed
transforms; the serial, single-process transform used by the core solver here
calls :mod:`numpy.fft` (pocketfft) directly.  All fields of the problem are
real, so the transforms are real-to-complex.  AccFFT's pencil-decomposed
transform is not simulated; the analytic performance model
(:mod:`repro.parallel.performance`) charges its transposes in closed form.

The frontend also counts the number of (scalar 3D) transforms performed.
The paper's complexity model (Sec. III-C4) expresses the per-iteration cost
as a number of 3D FFTs and interpolations; counting the transforms lets the
benchmark harness verify those counts against the analytic formula ``8*nt``
FFTs per Hessian matvec.  A batched vector transform counts as three scalar
transforms.

Tracing spans (``fft.forward``/``fft.backward``) and the process-wide
``fft.transforms`` metric are emitted at the same seam: each span carries
the batch size as its ``count``, so summed span counts equal the counters
exactly no matter how the transforms were batched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.observability.metrics import get_metrics_registry
from repro.observability.trace import trace_span
from repro.spectral.grid import Grid

_fft_metric = get_metrics_registry().counter(
    "fft.transforms", "scalar 3D FFT executions by direction"
)
_FFT_FORWARD = _fft_metric.labels(direction="forward")
_FFT_BACKWARD = _fft_metric.labels(direction="backward")

#: The three trailing axes an n-d (batched) transform acts on.
SPATIAL_AXES = (-3, -2, -1)


@dataclass
class FFTCounters:
    """Number of forward/backward 3D transforms executed."""

    forward: int = 0
    backward: int = 0

    @property
    def total(self) -> int:
        return self.forward + self.backward

    def reset(self) -> None:
        self.forward = 0
        self.backward = 0


@dataclass
class FourierTransform:
    """Real-to-complex 3D FFT bound to a :class:`~repro.spectral.grid.Grid`.

    Parameters
    ----------
    grid:
        The periodic grid defining the transform size.

    Notes
    -----
    The transform is unnormalized in the forward direction and normalized in
    the backward direction (numpy's convention), which is what every spectral
    symbol in :mod:`repro.spectral.operators` assumes.
    """

    grid: Grid
    counters: FFTCounters = field(default_factory=FFTCounters)

    @property
    def spectral_shape(self) -> tuple[int, int, int]:
        """Shape of the half-spectrum array produced by :meth:`forward`."""
        n1, n2, n3 = self.grid.shape
        return (n1, n2, n3 // 2 + 1)

    # ------------------------------------------------------------------ #
    # scalar transforms
    # ------------------------------------------------------------------ #
    def forward(self, field_values: np.ndarray) -> np.ndarray:
        """Forward real-to-complex transform of a scalar field."""
        field_values = np.asarray(field_values)
        if field_values.shape != self.grid.shape:
            raise ValueError(
                f"field has shape {field_values.shape}, expected {self.grid.shape}"
            )
        self.counters.forward += 1
        _FFT_FORWARD.inc()
        with trace_span("fft.forward"):
            return np.fft.rfftn(field_values, axes=SPATIAL_AXES)

    def backward(self, spectrum: np.ndarray) -> np.ndarray:
        """Inverse transform returning a real field on the grid."""
        spectrum = np.asarray(spectrum)
        if spectrum.shape != self.spectral_shape:
            raise ValueError(
                f"spectrum has shape {spectrum.shape}, expected {self.spectral_shape}"
            )
        self.counters.backward += 1
        _FFT_BACKWARD.inc()
        with trace_span("fft.backward"):
            out = np.fft.irfftn(spectrum, s=self.grid.shape, axes=SPATIAL_AXES)
        return out.astype(self.grid.dtype, copy=False)

    # ------------------------------------------------------------------ #
    # batched transforms
    # ------------------------------------------------------------------ #
    def forward_batch(self, fields: np.ndarray) -> np.ndarray:
        """Forward transform of a ``(..., N1, N2, N3)`` stack in one call.

        All leading axes are batch dimensions of one stacked transform; the
        counter increases by the batch size (each batch entry is one scalar 3D
        FFT of the paper's complexity model).
        """
        fields = np.asarray(fields)
        if fields.ndim < 3 or fields.shape[-3:] != self.grid.shape:
            raise ValueError(
                f"batched field has shape {fields.shape}, expected "
                f"(..., {', '.join(map(str, self.grid.shape))})"
            )
        batch = int(np.prod(fields.shape[:-3], dtype=int))
        self.counters.forward += batch
        _FFT_FORWARD.inc(batch)
        with trace_span("fft.forward", count=batch, batch=batch):
            return np.fft.rfftn(fields, axes=SPATIAL_AXES)

    def backward_batch(self, spectra: np.ndarray) -> np.ndarray:
        """Inverse transform of a ``(..., N1, N2, N3//2+1)`` spectral stack."""
        spectra = np.asarray(spectra)
        if spectra.ndim < 3 or spectra.shape[-3:] != self.spectral_shape:
            raise ValueError(
                f"batched spectrum has shape {spectra.shape}, expected "
                f"(..., {', '.join(map(str, self.spectral_shape))})"
            )
        batch = int(np.prod(spectra.shape[:-3], dtype=int))
        self.counters.backward += batch
        _FFT_BACKWARD.inc(batch)
        with trace_span("fft.backward", count=batch, batch=batch):
            out = np.fft.irfftn(spectra, s=self.grid.shape, axes=SPATIAL_AXES)
        return out.astype(self.grid.dtype, copy=False)

    def forward_vector(self, vector_field: np.ndarray) -> np.ndarray:
        """Batched forward transform of a ``(3, N1, N2, N3)`` vector field.

        All three components are transformed in one stacked call
        (counted as three scalar transforms).
        """
        vector_field = np.asarray(vector_field)
        if vector_field.shape != (3, *self.grid.shape):
            raise ValueError(
                f"vector field has shape {vector_field.shape}, expected {(3, *self.grid.shape)}"
            )
        return self.forward_batch(vector_field)

    def inverse_vector(self, spectra: np.ndarray) -> np.ndarray:
        """Batched inverse transform of a ``(3, ...)`` stacked spectral field."""
        spectra = np.asarray(spectra)
        if spectra.shape != (3, *self.spectral_shape):
            raise ValueError(
                f"spectra have shape {spectra.shape}, expected {(3, *self.spectral_shape)}"
            )
        return self.backward_batch(spectra)

    # ------------------------------------------------------------------ #
    # multiplier application
    # ------------------------------------------------------------------ #
    def apply_symbol(self, field_values: np.ndarray, symbol: np.ndarray) -> np.ndarray:
        """Apply a Fourier multiplier: ``ifft(symbol * fft(field))``.

        This is the fundamental operation behind every differential operator,
        its inverse, the preconditioner and the spectral filters.
        """
        spectrum = self.forward(field_values)
        spectrum = spectrum * symbol
        return self.backward(spectrum)

    def apply_symbol_vector(self, vector_field: np.ndarray, symbol: np.ndarray) -> np.ndarray:
        """Apply one Fourier multiplier to all three components, batched."""
        spectra = self.forward_vector(vector_field)
        spectra = spectra * symbol[None]
        return self.inverse_vector(spectra)

    # ------------------------------------------------------------------ #
    # L2 algebra on half-spectra (Parseval)
    # ------------------------------------------------------------------ #
    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        """The grid's L2 inner product of two real fields given by their half-spectra.

        ``inner(forward(f), forward(g)) == grid.inner(f, g)`` to round-off,
        for scalar fields and ``(..., N1, N2, N3//2+1)`` stacks alike, with
        no transform: the omitted modes are conjugates of stored ones, so
        every plane counts twice except ``k3 = 0`` and, for even ``N3``, the
        Nyquist plane.  With :meth:`norm`, what :func:`repro.core.optim.pcg.pcg`
        needs to iterate on half-spectra, as a :class:`Grid` provides for fields.
        """
        a = np.asarray(a)
        b = np.asarray(b)
        if a.shape != b.shape or a.shape[-3:] != self.spectral_shape:
            raise ValueError(
                f"spectra must share a shape ending in {self.spectral_shape}, "
                f"got {a.shape} and {b.shape}"
            )
        total = 2.0 * np.vdot(a, b).real - np.vdot(a[..., 0], b[..., 0]).real
        if self.grid.shape[2] % 2 == 0:
            total -= np.vdot(a[..., -1], b[..., -1]).real
        return float(total * self.grid.cell_volume / self.grid.num_points)

    def norm(self, a: np.ndarray) -> float:
        """Grid L2 norm of the real field whose half-spectrum is *a*."""
        return float(np.sqrt(max(self.inner(a, a), 0.0)))

    def reset_counters(self) -> None:
        self.counters.reset()
