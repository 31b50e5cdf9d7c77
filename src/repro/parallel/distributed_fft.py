"""Distributed (pencil-decomposed) 3D FFT.

Re-implements the communication pattern of AccFFT, the library the paper
uses (Sec. III-C1 and Fig. 4): starting from the input distribution in which
axes 0 and 1 are split over the ``p1 x p2`` process grid and axis 2 is
local, the transform proceeds as

1. local 1-D FFTs along axis 2,
2. all-to-all transpose within every **row group** (``p2`` ranks) so that
   axis 1 becomes local and axis 2 becomes distributed,
3. local 1-D FFTs along axis 1,
4. all-to-all transpose within every **column group** (``p1`` ranks) so that
   axis 0 becomes local and axis 1 becomes distributed,
5. local 1-D FFTs along axis 0.

The output therefore lives in the ``(1, 2)`` distribution (axis 0 local).
The inverse transform runs the same steps in reverse.  Every transpose is an
``alltoallv`` recorded in the communication ledger; the communication volume
matches the paper's model, ``O(t_s sqrt(p) + t_w 3 N^3 / p)`` per 3D FFT.

The transform is validated against ``numpy.fft.fftn`` in the test-suite for
several grid shapes and process-grid configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.parallel.comm import SimulatedCommunicator
from repro.parallel.pencil import PencilDecomposition

#: Distribution labels: which two axes are split over (p1, p2).
INPUT_DIST: Tuple[int, int] = (0, 1)
MID_DIST: Tuple[int, int] = (0, 2)
OUTPUT_DIST: Tuple[int, int] = (1, 2)


@dataclass
class DistributedFFT:
    """Pencil-decomposed complex 3D FFT over a simulated communicator.

    Parameters
    ----------
    decomposition:
        The pencil decomposition (process grid and global shape).
    comm:
        Simulated communicator; created automatically when omitted.

    The per-pencil 1-D transforms are :func:`numpy.fft.fft` /
    :func:`numpy.fft.ifft`, the engine of the serial transform.
    """

    decomposition: PencilDecomposition
    comm: SimulatedCommunicator = None
    fft_1d_count: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.comm is None:
            self.comm = SimulatedCommunicator(self.decomposition.num_tasks)
        if self.comm.size != self.decomposition.num_tasks:
            raise ValueError(
                f"communicator size {self.comm.size} does not match the decomposition "
                f"({self.decomposition.num_tasks} tasks)"
            )

    # ------------------------------------------------------------------ #
    # transposes
    # ------------------------------------------------------------------ #
    def _transpose(
        self,
        blocks: Sequence[np.ndarray],
        from_dist: Tuple[int, int],
        to_dist: Tuple[int, int],
        within: str,
        category: str,
    ) -> List[np.ndarray]:
        """Repartition the per-rank blocks from one distribution to another.

        ``within`` selects the process-grid groups inside which the exchange
        happens (``"row"`` = fixed ``r1``, i.e. ``p2`` ranks, or ``"column"``
        = fixed ``r2``, i.e. ``p1`` ranks); ranks outside the group exchange
        nothing, which reproduces the ``sqrt(p)`` concurrent all-to-alls of
        the pencil transpose.
        """
        deco = self.decomposition
        p = deco.num_tasks
        send: List[List[np.ndarray]] = [
            [np.empty(0, dtype=complex) for _ in range(p)] for _ in range(p)
        ]
        empty = np.empty(0, dtype=complex)
        for rank in range(p):
            block = np.asarray(blocks[rank])
            my_slices = deco.local_slices(rank, from_dist)
            offsets = tuple(s.start or 0 for s in my_slices)
            r1, r2 = deco.rank_coordinates(rank)
            group = deco.row_group(r1) if within == "row" else deco.column_group(r2)
            for other in group:
                other_slices = deco.local_slices(other, to_dist)
                # intersection of my "from" block with the other's "to" block,
                # expressed in my local coordinates
                local = []
                valid = True
                for axis in range(3):
                    lo = my_slices[axis].start or 0
                    hi = my_slices[axis].stop if my_slices[axis].stop is not None else deco.global_shape[axis]
                    olo = other_slices[axis].start or 0
                    ohi = (
                        other_slices[axis].stop
                        if other_slices[axis].stop is not None
                        else deco.global_shape[axis]
                    )
                    start = max(lo, olo)
                    stop = min(hi, ohi)
                    if start >= stop:
                        valid = False
                        break
                    local.append(slice(start - offsets[axis], stop - offsets[axis]))
                send[rank][other] = block[tuple(local)].copy() if valid else empty
        received = self.comm.alltoallv(send, category=category)

        out: List[np.ndarray] = []
        for rank in range(p):
            target_shape = deco.local_shape(rank, to_dist)
            target = np.zeros(target_shape, dtype=complex)
            to_slices = deco.local_slices(rank, to_dist)
            to_offsets = tuple(s.start or 0 for s in to_slices)
            for source, chunk in enumerate(received[rank]):
                chunk = np.asarray(chunk)
                if chunk.size == 0:
                    continue
                source_slices = deco.local_slices(source, from_dist)
                local = []
                for axis in range(3):
                    lo = source_slices[axis].start or 0
                    hi = (
                        source_slices[axis].stop
                        if source_slices[axis].stop is not None
                        else deco.global_shape[axis]
                    )
                    olo = to_slices[axis].start or 0
                    ohi = (
                        to_slices[axis].stop
                        if to_slices[axis].stop is not None
                        else deco.global_shape[axis]
                    )
                    start = max(lo, olo)
                    stop = min(hi, ohi)
                    local.append(slice(start - to_offsets[axis], stop - to_offsets[axis]))
                target[tuple(local)] = chunk
            out.append(target)
        return out

    # ------------------------------------------------------------------ #
    # forward / backward transforms
    # ------------------------------------------------------------------ #
    def _fft_along(self, blocks: Sequence[np.ndarray], axis: int, inverse: bool) -> List[np.ndarray]:
        transform = np.fft.ifft if inverse else np.fft.fft
        out = []
        for block in blocks:
            self.fft_1d_count += int(np.prod(block.shape) // block.shape[axis])
            out.append(transform(np.asarray(block, dtype=complex), axis=axis))
        return out

    def forward(self, local_blocks: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Forward transform of per-rank blocks in the input distribution.

        Returns the per-rank spectral blocks in the output distribution
        (axis 0 local, axes 1 and 2 distributed).
        """
        self._check_blocks(local_blocks, INPUT_DIST)
        blocks = self._fft_along(local_blocks, axis=2, inverse=False)
        blocks = self._transpose(blocks, INPUT_DIST, MID_DIST, within="row", category="fft_transpose")
        blocks = self._fft_along(blocks, axis=1, inverse=False)
        blocks = self._transpose(blocks, MID_DIST, OUTPUT_DIST, within="column", category="fft_transpose")
        blocks = self._fft_along(blocks, axis=0, inverse=False)
        return blocks

    def backward(self, spectral_blocks: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Inverse transform from the output distribution back to the input one."""
        self._check_blocks(spectral_blocks, OUTPUT_DIST)
        blocks = self._fft_along(spectral_blocks, axis=0, inverse=True)
        blocks = self._transpose(blocks, OUTPUT_DIST, MID_DIST, within="column", category="fft_transpose")
        blocks = self._fft_along(blocks, axis=1, inverse=True)
        blocks = self._transpose(blocks, MID_DIST, INPUT_DIST, within="row", category="fft_transpose")
        blocks = self._fft_along(blocks, axis=2, inverse=True)
        return blocks

    def _check_blocks(self, blocks: Sequence[np.ndarray], dist: Tuple[int, int]) -> None:
        deco = self.decomposition
        if len(blocks) != deco.num_tasks:
            raise ValueError(f"expected {deco.num_tasks} blocks, got {len(blocks)}")
        for rank, block in enumerate(blocks):
            expected = deco.local_shape(rank, dist)
            if np.asarray(block).shape != expected:
                raise ValueError(
                    f"block of rank {rank} has shape {np.asarray(block).shape}, expected {expected}"
                )

    # ------------------------------------------------------------------ #
    # convenience: full round trip against a global array
    # ------------------------------------------------------------------ #
    def forward_global(self, global_field: np.ndarray) -> np.ndarray:
        """Scatter a global field, transform, gather the global spectrum."""
        deco = self.decomposition
        blocks = deco.scatter(np.asarray(global_field, dtype=complex), INPUT_DIST)
        spectral = self.forward(blocks)
        return deco.gather(spectral, OUTPUT_DIST)

    def backward_global(self, global_spectrum: np.ndarray) -> np.ndarray:
        """Scatter a global spectrum, inverse-transform, gather the field."""
        deco = self.decomposition
        blocks = deco.scatter(np.asarray(global_spectrum, dtype=complex), OUTPUT_DIST)
        fields = self.backward(blocks)
        return deco.gather(fields, INPUT_DIST)

    def apply_symbol(
        self, local_blocks: Sequence[np.ndarray], symbol: np.ndarray
    ) -> List[np.ndarray]:
        """Apply a Fourier multiplier given as a *global* symbol array.

        The symbol is indexed in the output distribution per rank; this is
        the distributed counterpart of
        :meth:`repro.spectral.fft.FourierTransform.apply_symbol`.
        """
        symbol = np.asarray(symbol)
        if symbol.shape != self.decomposition.global_shape:
            raise ValueError(
                f"symbol has shape {symbol.shape}, expected {self.decomposition.global_shape}"
            )
        spectral = self.forward(local_blocks)
        filtered = []
        for rank, block in enumerate(spectral):
            slices = self.decomposition.local_slices(rank, OUTPUT_DIST)
            filtered.append(block * symbol[slices])
        back = self.backward(filtered)
        return [np.real(b) for b in back]
