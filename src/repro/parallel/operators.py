"""Distributed spectral operators built on the pencil-decomposed FFT.

These are the distributed counterparts of
:class:`repro.spectral.operators.SpectralOperators`: gradient, divergence,
Laplacian, biharmonic, and the Leray projection, each
applied to per-rank local blocks in the input (pencil) distribution.  They
are validated against the serial operators in the test-suite, which is the
correctness argument behind using the *serial* transform plus the *counted*
communication volumes for the performance reproduction (see README.md,
"Substitutions").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence

import numpy as np

from repro.parallel.comm import SimulatedCommunicator
from repro.parallel.distributed_fft import OUTPUT_DIST, DistributedFFT
from repro.parallel.pencil import PencilDecomposition
from repro.spectral.grid import Grid


@dataclass
class DistributedSpectralOperators:
    """Fourier-multiplier operators acting on pencil-distributed fields.

    Parameters
    ----------
    grid:
        Global grid (provides the wavenumbers).
    decomposition:
        Pencil decomposition of the grid.
    comm:
        Simulated communicator shared by all operators (a fresh one is
        created when omitted).
    """

    grid: Grid
    decomposition: PencilDecomposition
    comm: SimulatedCommunicator = None

    def __post_init__(self) -> None:
        if tuple(self.decomposition.global_shape) != tuple(self.grid.shape):
            raise ValueError(
                f"decomposition shape {self.decomposition.global_shape} does not match "
                f"grid shape {self.grid.shape}"
            )
        if self.comm is None:
            self.comm = SimulatedCommunicator(self.decomposition.num_tasks)
        self.fft = DistributedFFT(self.decomposition, self.comm)

    # ------------------------------------------------------------------ #
    # full-spectrum symbols (the distributed transform is complex-to-complex)
    # ------------------------------------------------------------------ #
    @cached_property
    def _k(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        k1 = self.grid.derivative_wavenumbers_1d(0)
        k2 = self.grid.derivative_wavenumbers_1d(1)
        k3 = self.grid.derivative_wavenumbers_1d(2)
        return (
            k1[:, None, None] * np.ones(self.grid.shape),
            k2[None, :, None] * np.ones(self.grid.shape),
            k3[None, None, :] * np.ones(self.grid.shape),
        )

    @cached_property
    def _laplacian_symbol(self) -> np.ndarray:
        k1 = self.grid.wavenumbers_1d(0)[:, None, None]
        k2 = self.grid.wavenumbers_1d(1)[None, :, None]
        k3 = self.grid.wavenumbers_1d(2)[None, None, :]
        return -(k1 * k1 + k2 * k2 + k3 * k3) * np.ones(self.grid.shape)

    def _local_symbol(self, symbol: np.ndarray, rank: int) -> np.ndarray:
        return symbol[self.decomposition.local_slices(rank, OUTPUT_DIST)]

    # ------------------------------------------------------------------ #
    # scalar operators
    # ------------------------------------------------------------------ #
    def derivative(self, blocks: Sequence[np.ndarray], axis: int) -> List[np.ndarray]:
        """Distributed partial derivative along *axis*."""
        if axis not in (0, 1, 2):
            raise ValueError(f"axis must be 0, 1 or 2, got {axis}")
        spectral = self.fft.forward(blocks)
        filtered = [
            block * (1j * self._local_symbol(self._k[axis], rank))
            for rank, block in enumerate(spectral)
        ]
        return [np.real(b) for b in self.fft.backward(filtered)]

    def gradient(self, blocks: Sequence[np.ndarray]) -> List[List[np.ndarray]]:
        """Distributed gradient; returns ``[component][rank]`` blocks.

        The forward transform is shared by the three components, mirroring
        the paper's optimization of the gradient operator.
        """
        spectral = self.fft.forward(blocks)
        components: List[List[np.ndarray]] = []
        for axis in range(3):
            filtered = [
                block * (1j * self._local_symbol(self._k[axis], rank))
                for rank, block in enumerate(spectral)
            ]
            components.append([np.real(b) for b in self.fft.backward(filtered)])
        return components

    def laplacian(self, blocks: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Distributed Laplacian."""
        return self.fft.apply_symbol(blocks, self._laplacian_symbol)

    def biharmonic(self, blocks: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Distributed biharmonic operator."""
        return self.fft.apply_symbol(blocks, self._laplacian_symbol**2)

    # ------------------------------------------------------------------ #
    # vector operators
    # ------------------------------------------------------------------ #
    def divergence(self, vector_blocks: Sequence[Sequence[np.ndarray]]) -> List[np.ndarray]:
        """Distributed divergence of ``[component][rank]`` blocks."""
        if len(vector_blocks) != 3:
            raise ValueError("vector_blocks must have three components")
        p = self.decomposition.num_tasks
        accum: List[np.ndarray] = [None] * p
        for axis in range(3):
            spectral = self.fft.forward(vector_blocks[axis])
            for rank in range(p):
                term = spectral[rank] * (1j * self._local_symbol(self._k[axis], rank))
                accum[rank] = term if accum[rank] is None else accum[rank] + term
        return [np.real(b) for b in self.fft.backward(accum)]

    def leray_project(
        self, vector_blocks: Sequence[Sequence[np.ndarray]]
    ) -> List[List[np.ndarray]]:
        """Distributed Leray projection of ``[component][rank]`` blocks."""
        if len(vector_blocks) != 3:
            raise ValueError("vector_blocks must have three components")
        p = self.decomposition.num_tasks
        spectra = [self.fft.forward(vector_blocks[axis]) for axis in range(3)]
        projected: List[List[np.ndarray]] = [[None] * p for _ in range(3)]
        for rank in range(p):
            k = [self._local_symbol(self._k[axis], rank) for axis in range(3)]
            ksq = k[0] ** 2 + k[1] ** 2 + k[2] ** 2
            inv = np.zeros_like(ksq)
            nonzero = ksq != 0.0
            inv[nonzero] = 1.0 / ksq[nonzero]
            dot = k[0] * spectra[0][rank] + k[1] * spectra[1][rank] + k[2] * spectra[2][rank]
            factor = dot * inv
            for axis in range(3):
                projected[axis][rank] = spectra[axis][rank] - k[axis] * factor
        return [
            [np.real(b) for b in self.fft.backward(projected[axis])] for axis in range(3)
        ]
