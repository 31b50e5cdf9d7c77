"""Ghost-layer (halo) exchange for pencil-decomposed fields.

"Every processor maintains a layer of ghost points, regular grid points that
belong to other processors.  The values ... at these points must be
synchronized before interpolation takes place" (Sec. III-C2).  With the
pencil decomposition each rank has four neighbours (two per distributed
axis); the corner regions are obtained by performing the exchange axis by
axis on the already-extended block, which is the standard trick the paper
alludes to ("the four corner neighbors can be combined with the messages of
the edge neighbors").

The third (non-distributed) axis is fully local, so its periodic halo is
built without communication.

Since PR 5 the exchange is **batched**: a whole ``(B, n1, n2, n3)`` stack
of fields moves through *one* exchange round
(:func:`exchange_ghost_layers_batched`) — the same number of messages as a
single field, with ``B`` times the payload per message.  The per-field
ghost exchange was the dominant distributed overhead once the scatter
plans were pooled (each transported field used to pay the full
latency-bound neighbour round), so the batched distributed
``interpolate_many`` ships every stacked field's halos together.  A single
field is the ``B = 1`` stack ``block[None]``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.observability.trace import trace_span
from repro.parallel.comm import SimulatedCommunicator
from repro.parallel.pencil import PencilDecomposition


def _periodic_pad_axis(block: np.ndarray, axis: int, width: int) -> np.ndarray:
    """Pad one axis periodically using only local data."""
    if width == 0:
        return block
    lo = np.take(block, range(block.shape[axis] - width, block.shape[axis]), axis=axis)
    hi = np.take(block, range(0, width), axis=axis)
    return np.concatenate([lo, block, hi], axis=axis)


def exchange_ghost_layers_batched(
    stacks: Sequence[np.ndarray],
    decomposition: PencilDecomposition,
    width: int,
    comm: SimulatedCommunicator,
) -> List[np.ndarray]:
    """Extend per-rank ``(B, n1, n2, n3)`` stacks by periodic ghost layers.

    One exchange round for the whole batch: every neighbour message carries
    the halo strips of all ``B`` fields stacked together, so the message
    *count* (the latency term of the machine model) is that of a single
    field while the payload scales with ``B``.  The grid axes of each stack
    are extended by ``2 * width`` points; the batch axis is untouched.

    Parameters
    ----------
    stacks:
        Per-rank field stacks, each of shape ``(B, n1, n2, n3)`` with one
        common batch size ``B``.
    decomposition:
        The pencil decomposition.
    width:
        Halo width in grid points (2 is enough for tricubic interpolation).
    comm:
        Communicator used (and charged) for the neighbour exchanges.

    Returns
    -------
    list of numpy.ndarray
        Per-rank stacks of shape ``(B, n1 + 2w, n2 + 2w, n3 + 2w)``.
    """
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    deco = decomposition
    p = deco.num_tasks
    if len(stacks) != p:
        raise ValueError(f"expected {p} block stacks, got {len(stacks)}")
    extended = [np.asarray(s).copy() for s in stacks]
    batch = None
    for rank in range(p):
        stack = extended[rank]
        if stack.ndim != 4:
            raise ValueError(
                f"stack of rank {rank} must be (B, n1, n2, n3), got shape {stack.shape}"
            )
        if batch is None:
            batch = stack.shape[0]
        elif stack.shape[0] != batch:
            raise ValueError(
                f"stack of rank {rank} has batch size {stack.shape[0]}, "
                f"expected {batch} (all ranks must ship the same batch)"
            )
        expected = deco.local_shape(rank)
        if stack.shape[1:] != expected:
            raise ValueError(
                f"stack of rank {rank} has grid shape {stack.shape[1:]}, expected {expected}"
            )

    if width == 0:
        return extended

    min_extent = min(min(deco.local_shape(rank)) for rank in range(p))
    if width > min_extent:
        raise ValueError(
            f"ghost width {width} exceeds the smallest local extent {min_extent}"
        )

    for rank in range(p):
        # grid axis 2 is not distributed: periodic locally (+1: the batch axis)
        extended[rank] = _periodic_pad_axis(extended[rank], 3, width)

    def neighbours(rank: int, direction: str) -> Tuple[int, int]:
        """Predecessor and successor of *rank* along one process-grid direction."""
        r1, r2 = deco.rank_coordinates(rank)
        if direction == "p1":
            parts = deco.p1
            prev_rank = deco.rank_of((r1 - 1) % parts, r2)
            next_rank = deco.rank_of((r1 + 1) % parts, r2)
        else:
            parts = deco.p2
            prev_rank = deco.rank_of(r1, (r2 - 1) % parts)
            next_rank = deco.rank_of(r1, (r2 + 1) % parts)
        return prev_rank, next_rank

    # exchange along the two distributed axes, one after the other so that
    # the corner halos are carried along automatically.  Two separate
    # exchanges per axis (high-strip-to-successor, low-strip-to-predecessor)
    # keep the receive side unambiguous even for periodic rings of length 2.
    with trace_span(
        "parallel.ghost_exchange", width=width, ranks=p, batch=int(batch)
    ):
        for grid_axis, direction in ((0, "p1"), (1, "p2")):
            axis = grid_axis + 1  # account for the batch axis
            high_messages = []
            low_messages = []
            for rank in range(p):
                prev_rank, next_rank = neighbours(rank, direction)
                stack = extended[rank]
                n = stack.shape[axis]
                low_strip = np.take(stack, range(0, width), axis=axis)
                high_strip = np.take(stack, range(n - width, n), axis=axis)
                # my high boundary is my successor's low halo; my low boundary
                # is my predecessor's high halo
                high_messages.append((rank, next_rank, high_strip))
                low_messages.append((rank, prev_rank, low_strip))
            inbox_low_halos = comm.exchange(high_messages, category="ghost_exchange")
            inbox_high_halos = comm.exchange(low_messages, category="ghost_exchange")

            new_stacks: List[np.ndarray] = [None] * p
            for rank in range(p):
                (_, low_halo), = inbox_low_halos[rank]
                (_, high_halo), = inbox_high_halos[rank]
                new_stacks[rank] = np.concatenate(
                    [low_halo, extended[rank], high_halo], axis=axis
                )
            extended = new_stacks
    return extended
