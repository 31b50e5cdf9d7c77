"""Pencil decomposition of the regular grid.

The paper partitions the data "using the pencil decomposition for 3D FFTs"
(Fig. 4): with ``p = p1 * p2`` MPI tasks, each task owns an
``(N1/p1) x (N2/p2) x N3`` block of the grid — the first two axes are
distributed over a two-dimensional process grid and the third axis is local.
This is the only layout here: the paper's FFT transposes it into two more,
but the pencil FFT is not simulated (README.md, "Substitutions").

:class:`PencilDecomposition` provides the index bookkeeping: block
boundaries per axis, the local slices of a rank, scatter/gather between a
global array and the per-rank blocks, and the owner lookup used by the
semi-Lagrangian scatter phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.utils.validation import check_positive_int, check_shape_3d


def split_axis(length: int, parts: int) -> List[Tuple[int, int]]:
    """Contiguous, balanced partition of ``range(length)`` into *parts* blocks.

    The first ``length % parts`` blocks get one extra element (the same
    convention as ``numpy.array_split``).
    """
    check_positive_int(parts, "parts")
    if parts > length:
        raise ValueError(f"cannot split an axis of length {length} into {parts} parts")
    base = length // parts
    remainder = length % parts
    bounds = []
    start = 0
    for block in range(parts):
        size = base + (1 if block < remainder else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


@dataclass(frozen=True)
class PencilDecomposition:
    """2D (pencil) decomposition of a 3D grid over ``p1 x p2`` tasks.

    Parameters
    ----------
    global_shape:
        Global grid shape ``(N1, N2, N3)``.
    p1, p2:
        Process-grid dimensions; the total number of ranks is ``p1 * p2``.
        Axis 0 is split over the ``p1`` direction and axis 1 over the
        ``p2`` direction (axis 2 local), exactly as in Fig. 4a of the paper.
    """

    global_shape: Tuple[int, int, int]
    p1: int
    p2: int

    def __init__(self, global_shape: Sequence[int], p1: int, p2: int) -> None:
        global_shape = check_shape_3d(global_shape, "global_shape")
        check_positive_int(p1, "p1")
        check_positive_int(p2, "p2")
        if p1 > global_shape[0]:
            raise ValueError(f"p1={p1} exceeds N1={global_shape[0]}")
        if p2 > global_shape[1]:
            raise ValueError(f"p2={p2} exceeds N2={global_shape[1]}")
        object.__setattr__(self, "global_shape", global_shape)
        object.__setattr__(self, "p1", int(p1))
        object.__setattr__(self, "p2", int(p2))

    # ------------------------------------------------------------------ #
    @classmethod
    def from_num_tasks(cls, global_shape: Sequence[int], num_tasks: int) -> "PencilDecomposition":
        """Choose a near-square ``p1 x p2`` factorization of *num_tasks*."""
        check_positive_int(num_tasks, "num_tasks")
        best = (1, num_tasks)
        for p1 in range(1, int(np.sqrt(num_tasks)) + 1):
            if num_tasks % p1 == 0:
                best = (p1, num_tasks // p1)
        p1, p2 = best
        return cls(global_shape, p1, p2)

    @property
    def num_tasks(self) -> int:
        return self.p1 * self.p2

    # ------------------------------------------------------------------ #
    # rank <-> process-grid coordinates
    # ------------------------------------------------------------------ #
    def rank_coordinates(self, rank: int) -> Tuple[int, int]:
        """Process-grid coordinates ``(r1, r2)`` of *rank* (row-major)."""
        if not 0 <= rank < self.num_tasks:
            raise ValueError(f"rank {rank} out of range for {self.num_tasks} tasks")
        return rank // self.p2, rank % self.p2

    def rank_of(self, r1: int, r2: int) -> int:
        if not (0 <= r1 < self.p1 and 0 <= r2 < self.p2):
            raise ValueError(f"process-grid coordinates ({r1}, {r2}) out of range")
        return r1 * self.p2 + r2

    # ------------------------------------------------------------------ #
    # block boundaries and local slices
    # ------------------------------------------------------------------ #
    def axis_blocks(self, axis: int, parts: int) -> List[Tuple[int, int]]:
        """Block boundaries of *axis* split into *parts* contiguous pieces."""
        return split_axis(self.global_shape[axis], parts)

    def local_slices(self, rank: int) -> Tuple[slice, slice, slice]:
        """Slices of the global array owned by *rank* (axis 2 whole)."""
        r1, r2 = self.rank_coordinates(rank)
        return (
            slice(*self.axis_blocks(0, self.p1)[r1]),
            slice(*self.axis_blocks(1, self.p2)[r2]),
            slice(None),
        )

    def local_shape(self, rank: int) -> Tuple[int, int, int]:
        s1, s2, _ = self.local_slices(rank)
        return (s1.stop - s1.start, s2.stop - s2.start, self.global_shape[2])

    # ------------------------------------------------------------------ #
    # scatter / gather between global arrays and per-rank blocks
    # ------------------------------------------------------------------ #
    def scatter(self, global_array: np.ndarray) -> List[np.ndarray]:
        """Split a global array into the per-rank local blocks (copies)."""
        global_array = np.asarray(global_array)
        if global_array.shape != self.global_shape:
            raise ValueError(
                f"array has shape {global_array.shape}, expected {self.global_shape}"
            )
        return [
            global_array[self.local_slices(rank)].copy()
            for rank in range(self.num_tasks)
        ]

    def gather(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        """Reassemble the global array from the per-rank blocks."""
        if len(blocks) != self.num_tasks:
            raise ValueError(f"expected {self.num_tasks} blocks, got {len(blocks)}")
        dtype = np.result_type(*[np.asarray(b).dtype for b in blocks])
        out = np.empty(self.global_shape, dtype=dtype)
        for rank, block in enumerate(blocks):
            slices = self.local_slices(rank)
            expected = self.local_shape(rank)
            block = np.asarray(block)
            if block.shape != expected:
                raise ValueError(
                    f"block of rank {rank} has shape {block.shape}, expected {expected}"
                )
            out[slices] = block
        return out

    # ------------------------------------------------------------------ #
    # ownership lookup (used by the semi-Lagrangian scatter phase)
    # ------------------------------------------------------------------ #
    def owner_of_indices(self, indices: np.ndarray) -> np.ndarray:
        """Rank owning each (integer, already-wrapped) grid index.

        Parameters
        ----------
        indices:
            Integer array of shape ``(3, M)`` with ``0 <= indices[d] < N_d``.
        """
        indices = np.asarray(indices)
        if indices.ndim != 2 or indices.shape[0] != 3:
            raise ValueError(f"indices must have shape (3, M), got {indices.shape}")
        bounds_1 = np.array([stop for (_, stop) in self.axis_blocks(0, self.p1)])
        bounds_2 = np.array([stop for (_, stop) in self.axis_blocks(1, self.p2)])
        r1 = np.searchsorted(bounds_1, indices[0], side="right")
        r2 = np.searchsorted(bounds_2, indices[1], side="right")
        return r1 * self.p2 + r2
