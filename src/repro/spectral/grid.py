"""Regular periodic Cartesian grid descriptor.

The paper works on the domain ``Omega = [0, 2*pi)^3`` with ``N1 x N2 x N3``
grid points, ``x_i = 2*pi*i/N`` and periodic boundary conditions (Sec. II and
III-B1).  :class:`Grid` centralizes the bookkeeping needed everywhere else:

* grid spacing and cell volume (used by the discretized ``L2`` inner product),
* nodal coordinate arrays,
* integer Fourier wavenumbers for the full and the real-to-complex transform,
* helper factories for scalar and vector (velocity) fields.

The implementation supports anisotropic grids (the brain data in the paper is
``256 x 300 x 256``) and, for completeness, anisotropic domain extents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Tuple

import numpy as np

from repro.utils.validation import check_shape_3d

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Grid:
    """Periodic Cartesian grid on ``[0, L1) x [0, L2) x [0, L3)``.

    Parameters
    ----------
    shape:
        Number of grid points per dimension ``(N1, N2, N3)``.
    lengths:
        Domain extent per dimension; defaults to ``2*pi`` in every direction
        as in the paper.
    dtype:
        Floating point dtype used for real-space fields.
    """

    shape: Tuple[int, int, int]
    lengths: Tuple[float, float, float] = (TWO_PI, TWO_PI, TWO_PI)
    dtype: np.dtype = field(default=np.dtype(np.float64))

    def __init__(
        self,
        shape: Iterable[int],
        lengths: Iterable[float] | None = None,
        dtype: np.dtype | type = np.float64,
    ) -> None:
        shape = check_shape_3d(tuple(shape), "shape")
        if lengths is None:
            lengths = (TWO_PI, TWO_PI, TWO_PI)
        lengths = tuple(float(length) for length in lengths)
        if len(lengths) != 3 or any(length <= 0 for length in lengths):
            raise ValueError(f"lengths must be 3 positive floats, got {lengths}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "dtype", np.dtype(dtype))

    # ------------------------------------------------------------------ #
    # basic geometry
    # ------------------------------------------------------------------ #
    @property
    def ndim(self) -> int:
        return 3

    @property
    def num_points(self) -> int:
        """Total number of grid points ``N1*N2*N3``."""
        n1, n2, n3 = self.shape
        return n1 * n2 * n3

    @property
    def spacing(self) -> Tuple[float, float, float]:
        """Grid spacing ``h_j = L_j / N_j`` per dimension."""
        return tuple(L / n for L, n in zip(self.lengths, self.shape))

    @property
    def cell_volume(self) -> float:
        """Volume of one grid cell, the quadrature weight of the L2 products."""
        h1, h2, h3 = self.spacing
        return h1 * h2 * h3

    @property
    def domain_volume(self) -> float:
        l1, l2, l3 = self.lengths
        return l1 * l2 * l3

    def is_isotropic(self) -> bool:
        """True when the grid spacing is identical in every direction."""
        h1, h2, h3 = self.spacing
        return np.isclose(h1, h2) and np.isclose(h2, h3)

    # ------------------------------------------------------------------ #
    # coordinates
    # ------------------------------------------------------------------ #
    def axis_coordinates(self, axis: int) -> np.ndarray:
        """1D nodal coordinates ``x_i = i * h`` along *axis*."""
        if axis not in (0, 1, 2):
            raise ValueError(f"axis must be 0, 1 or 2, got {axis}")
        n = self.shape[axis]
        return np.arange(n, dtype=self.dtype) * (self.lengths[axis] / n)

    def coordinates(self, sparse: bool = False) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Meshgrid of nodal coordinates (``indexing='ij'``)."""
        axes = [self.axis_coordinates(axis) for axis in range(3)]
        return tuple(np.meshgrid(*axes, indexing="ij", sparse=sparse))

    def coordinate_stack(self) -> np.ndarray:
        """Nodal coordinates stacked as an array of shape ``(3, N1, N2, N3)``."""
        x1, x2, x3 = self.coordinates()
        return np.stack([x1, x2, x3], axis=0)

    # ------------------------------------------------------------------ #
    # wavenumbers
    # ------------------------------------------------------------------ #
    def wavenumbers_1d(self, axis: int, real_axis: bool = False) -> np.ndarray:
        """Angular wavenumbers along *axis*.

        For the default ``L = 2*pi`` the returned values are integers
        ``-N/2+1 .. N/2`` in FFT ordering; for other extents they are scaled
        by ``2*pi/L``.

        Parameters
        ----------
        axis:
            Dimension index.
        real_axis:
            If True, return the (half-spectrum) wavenumbers of a
            real-to-complex transform along this axis.
        """
        n = self.shape[axis]
        scale = TWO_PI / self.lengths[axis]
        if real_axis:
            freqs = np.fft.rfftfreq(n, d=1.0 / n)
        else:
            freqs = np.fft.fftfreq(n, d=1.0 / n)
        return (freqs * scale).astype(self.dtype)

    def derivative_wavenumbers_1d(self, axis: int, real_axis: bool = False) -> np.ndarray:
        """Wavenumbers for *odd-order* (first) derivatives.

        Identical to :meth:`wavenumbers_1d` except that the Nyquist mode of
        an even-length axis is set to zero.  For real data the Nyquist
        coefficient has no well-defined odd derivative (it aliases ``+N/2``
        and ``-N/2``); keeping it non-zero breaks the skew-adjointness of the
        discrete derivative and, in particular, the exactness of the Leray
        projection (``div P v = 0``).  This is the standard convention of
        Fourier pseudo-spectral codes.
        """
        k = self.wavenumbers_1d(axis, real_axis=real_axis).copy()
        n = self.shape[axis]
        if n % 2 == 0:
            nyquist = (n // 2) * TWO_PI / self.lengths[axis]
            k[np.isclose(np.abs(k), nyquist)] = 0.0
        return k

    def wavenumber_mesh(
        self, real_last_axis: bool = True, derivative: bool = False
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable wavenumber arrays ``(k1, k2, k3)``.

        When ``real_last_axis`` is True the arrays match the layout of
        ``numpy.fft.rfftn`` output (half spectrum along the last axis).  With
        ``derivative=True`` the Nyquist modes are zeroed (see
        :meth:`derivative_wavenumbers_1d`).
        """
        if derivative:
            k1 = self.derivative_wavenumbers_1d(0)
            k2 = self.derivative_wavenumbers_1d(1)
            k3 = self.derivative_wavenumbers_1d(2, real_axis=real_last_axis)
        else:
            k1 = self.wavenumbers_1d(0)
            k2 = self.wavenumbers_1d(1)
            k3 = self.wavenumbers_1d(2, real_axis=real_last_axis)
        return (
            k1[:, None, None],
            k2[None, :, None],
            k3[None, None, :],
        )

    def laplacian_symbol(self, real_last_axis: bool = True) -> np.ndarray:
        """Spectral symbol of the (negative semi-definite) Laplacian, ``-|k|^2``."""
        k1, k2, k3 = self.wavenumber_mesh(real_last_axis=real_last_axis)
        return -(k1 * k1 + k2 * k2 + k3 * k3)

    # ------------------------------------------------------------------ #
    # field factories
    # ------------------------------------------------------------------ #
    def zeros(self) -> np.ndarray:
        """New scalar field of zeros."""
        return np.zeros(self.shape, dtype=self.dtype)

    def zeros_vector(self) -> np.ndarray:
        """New vector field (e.g. velocity) of zeros, shape ``(3, N1, N2, N3)``."""
        return np.zeros((3, *self.shape), dtype=self.dtype)

    def empty(self) -> np.ndarray:
        return np.empty(self.shape, dtype=self.dtype)

    def random_field(self, rng: np.random.Generator | None = None, amplitude: float = 1.0) -> np.ndarray:
        """Uniform random scalar field, mostly used by the test-suite."""
        rng = np.random.default_rng() if rng is None else rng
        return amplitude * rng.standard_normal(self.shape).astype(self.dtype)

    # ------------------------------------------------------------------ #
    # inner products and norms (discrete L2)
    # ------------------------------------------------------------------ #
    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        """Discrete L2 inner product ``sum(a*b) * cell_volume``.

        Works for both scalar fields and stacked vector fields.
        """
        a = np.asarray(a)
        b = np.asarray(b)
        if a.shape != b.shape:
            raise ValueError(f"fields must share a shape, got {a.shape} and {b.shape}")
        return float(np.vdot(a.ravel(), b.ravel()).real * self.cell_volume)

    def norm(self, a: np.ndarray) -> float:
        """Discrete L2 norm induced by :meth:`inner`."""
        return float(np.sqrt(max(self.inner(a, a), 0.0)))

    def mean(self, a: np.ndarray) -> float:
        """Domain average of a scalar field."""
        return float(np.mean(a))

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Grid(shape={self.shape}, lengths={tuple(round(L, 6) for L in self.lengths)})"
