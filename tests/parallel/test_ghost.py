"""Isolated tests for the ghost-layer exchange (repro.parallel.ghost).

The exchange used to be exercised only indirectly through the scatter
suite; these tests pin its contract directly: correct periodic halos
(including the corner regions carried by the axis-by-axis trick),
width/periodicity edge cases, and the batched mode's ledger guarantee —
one neighbour round for a whole field stack, with per-field bits identical
to ``B = 1`` exchanges of each field — and the exact halo volume and
message count the ledger charges.
"""

import numpy as np
import pytest

from repro.parallel.comm import SimulatedCommunicator
from repro.parallel.ghost import exchange_ghost_layers_batched
from repro.parallel.pencil import PencilDecomposition

from tests.fixtures import exchange_one_field, make_grid, smooth_scalar_field

pytestmark = pytest.mark.mpi


def _setup(shape=(12, 12, 12), pgrid=(2, 3), seed=0):
    grid = make_grid(shape)
    deco = PencilDecomposition(grid.shape, *pgrid)
    comm = SimulatedCommunicator(deco.num_tasks)
    field = smooth_scalar_field(grid, seed=seed)
    blocks = deco.scatter(field)
    return field, deco, comm, blocks


class TestScalarExchange:
    @pytest.mark.parametrize("pgrid", [(2, 2), (1, 3), (3, 2), (1, 1)])
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_halos_match_the_periodically_padded_global_field(self, pgrid, width):
        """Every rank's extended block is a window of np.pad(..., wrap)."""
        field, deco, comm, blocks = _setup(pgrid=pgrid)
        extended = exchange_one_field(blocks, deco, width, comm)
        padded = np.pad(field, width, mode="wrap")
        for rank in range(deco.num_tasks):
            s1, s2, _ = deco.local_slices(rank)
            window = padded[
                s1.start : s1.stop + 2 * width,
                s2.start : s2.stop + 2 * width,
                : field.shape[2] + 2 * width,
            ]
            np.testing.assert_array_equal(extended[rank], window)

    def test_interior_is_the_original_block(self):
        field, deco, comm, blocks = _setup()
        extended = exchange_one_field(blocks, deco, 2, comm)
        for rank in range(deco.num_tasks):
            np.testing.assert_array_equal(
                extended[rank][2:-2, 2:-2, 2:-2], blocks[rank]
            )

    def test_width_zero_is_a_communication_free_copy(self):
        field, deco, comm, blocks = _setup()
        extended = exchange_one_field(blocks, deco, 0, comm)
        for rank in range(deco.num_tasks):
            np.testing.assert_array_equal(extended[rank], blocks[rank])
            assert extended[rank] is not blocks[rank]
        assert comm.ledger.bytes("ghost_exchange") == 0

    def test_periodic_ring_of_length_two_is_unambiguous(self):
        """p=2 along an axis: predecessor == successor; halos must not mix."""
        field, deco, comm, blocks = _setup(pgrid=(2, 1))
        extended = exchange_one_field(blocks, deco, 2, comm)
        padded = np.pad(field, 2, mode="wrap")
        for rank in range(deco.num_tasks):
            s1, s2, _ = deco.local_slices(rank)
            np.testing.assert_array_equal(
                extended[rank],
                padded[s1.start : s1.stop + 4, s2.start : s2.stop + 4, : field.shape[2] + 4],
            )

    def test_edge_cases_rejected(self):
        field, deco, comm, blocks = _setup()
        with pytest.raises(ValueError, match="non-negative"):
            exchange_one_field(blocks, deco, -1, comm)
        with pytest.raises(ValueError, match="exceeds the smallest local extent"):
            exchange_one_field(blocks, deco, 7, comm)  # local extent is 6/4
        with pytest.raises(ValueError, match="expected"):
            exchange_one_field(blocks[:-1], deco, 2, comm)
        bad = [np.zeros((5, 5, 5)) for _ in range(deco.num_tasks)]
        with pytest.raises(ValueError, match="grid shape"):
            exchange_one_field(bad, deco, 2, comm)
        with pytest.raises(ValueError, match=r"must be \(B, n1, n2, n3\)"):
            exchange_ghost_layers_batched(blocks, deco, 2, comm)


class TestBatchedExchange:
    def test_batched_bits_match_per_field_exchange(self):
        grid = make_grid((12, 12, 12))
        deco = PencilDecomposition(grid.shape, 2, 2)
        fields = [smooth_scalar_field(grid, seed=s) for s in range(4)]
        per_field = []
        for field in fields:
            comm = SimulatedCommunicator(deco.num_tasks)
            per_field.append(
                exchange_one_field(deco.scatter(field), deco, 2, comm)
            )
        comm = SimulatedCommunicator(deco.num_tasks)
        stacks = [
            np.stack([deco.scatter(field)[rank] for field in fields], axis=0)
            for rank in range(deco.num_tasks)
        ]
        batched = exchange_ghost_layers_batched(stacks, deco, 2, comm)
        for rank in range(deco.num_tasks):
            for b in range(4):
                np.testing.assert_array_equal(batched[rank][b], per_field[b][rank])

    @pytest.mark.parametrize("pgrid", [(1, 3), (3, 2)])
    @pytest.mark.parametrize("width", [1, 3])
    def test_every_stack_member_gets_its_own_halos(self, pgrid, width):
        """No crosstalk in the stack: member b is a window of its own wrap-pad."""
        grid = make_grid((12, 12, 12))
        deco = PencilDecomposition(grid.shape, *pgrid)
        fields = [smooth_scalar_field(grid, seed=10 + s) for s in range(3)]
        stacks = [
            np.stack([deco.scatter(field)[rank] for field in fields], axis=0)
            for rank in range(deco.num_tasks)
        ]
        comm = SimulatedCommunicator(deco.num_tasks)
        batched = exchange_ghost_layers_batched(stacks, deco, width, comm)
        for b, field in enumerate(fields):
            padded = np.pad(field, width, mode="wrap")
            for rank in range(deco.num_tasks):
                s1, s2, _ = deco.local_slices(rank)
                window = padded[
                    s1.start : s1.stop + 2 * width,
                    s2.start : s2.stop + 2 * width,
                    : field.shape[2] + 2 * width,
                ]
                np.testing.assert_array_equal(batched[rank][b], window)

    def test_one_round_for_the_whole_batch(self):
        """The latency pin: B fields cost the message count of one field."""
        grid = make_grid((12, 12, 12))
        deco = PencilDecomposition(grid.shape, 2, 3)
        field = smooth_scalar_field(grid, seed=1)
        scalar_comm = SimulatedCommunicator(deco.num_tasks)
        exchange_one_field(deco.scatter(field), deco, 2, scalar_comm)
        scalar = scalar_comm.ledger.entries["ghost_exchange"]

        batch = 5
        batched_comm = SimulatedCommunicator(deco.num_tasks)
        stacks = [
            np.repeat(block[None], batch, axis=0) for block in deco.scatter(field)
        ]
        exchange_ghost_layers_batched(stacks, deco, 2, batched_comm)
        batched = batched_comm.ledger.entries["ghost_exchange"]

        # same number of rounds and neighbour messages, B times the payload
        assert batched.calls == scalar.calls == 4  # 2 axes x 2 directions
        assert batched.messages == scalar.messages
        assert batched.bytes == batch * scalar.bytes

    def test_mismatched_batch_sizes_rejected(self):
        grid = make_grid((12, 12, 12))
        deco = PencilDecomposition(grid.shape, 2, 2)
        field = smooth_scalar_field(grid, seed=2)
        stacks = [block[None] for block in deco.scatter(field)]
        stacks[1] = np.repeat(stacks[1], 2, axis=0)
        comm = SimulatedCommunicator(deco.num_tasks)
        with pytest.raises(ValueError, match="batch"):
            exchange_ghost_layers_batched(stacks, deco, 2, comm)


class TestChargedVolume:
    @pytest.mark.parametrize("pgrid", [(2, 2), (1, 3), (2, 3), (4, 2)])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("width", [1, 2])
    def test_ledger_charges_the_closed_form_halo(self, pgrid, batch, width, rng):
        """Bytes and messages are exactly the halo strips sent to other ranks.

        Axis 2 is padded locally first; the axis-0 strips are ``w x n2 x
        (n3 + 2w)`` and the axis-1 strips, cut from the axis-0-extended
        block, ``(n1 + 2w) x w x (n3 + 2w)``, two per rank and axis, each
        of ``8 B`` bytes per point.  Along a process-grid direction of
        size 1 both neighbours are the rank itself: the communicator does
        not charge self-messages.
        """
        deco = PencilDecomposition((8, 9, 10), *pgrid)
        stacks = [
            rng.standard_normal((batch, *deco.local_shape(rank)))
            for rank in range(deco.num_tasks)
        ]
        comm = SimulatedCommunicator(deco.num_tasks)
        exchange_ghost_layers_batched(stacks, deco, width, comm)

        messages = points = 0
        for rank in range(deco.num_tasks):
            n1, n2, n3 = deco.local_shape(rank)
            if deco.p1 > 1:
                messages += 2
                points += 2 * width * n2 * (n3 + 2 * width)
            if deco.p2 > 1:
                messages += 2
                points += 2 * (n1 + 2 * width) * width * (n3 + 2 * width)
        entry = comm.ledger.entries["ghost_exchange"]
        assert entry.calls == 4
        assert entry.messages == messages
        assert entry.bytes == 8 * batch * points
