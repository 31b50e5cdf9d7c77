"""Tests for the simulated communicator, its ledger and the ghost exchange."""

import numpy as np
import pytest

from repro.parallel.comm import CommunicationLedger, SimulatedCommunicator
from repro.parallel.pencil import PencilDecomposition

from tests.fixtures import exchange_one_field

pytestmark = pytest.mark.mpi


class TestLedger:
    def test_record_and_totals(self):
        ledger = CommunicationLedger()
        ledger.record("fft", 4, 1000)
        ledger.record("fft", 2, 500)
        ledger.record("ghost", 1, 64)
        assert ledger.messages("fft") == 6
        assert ledger.bytes("fft") == 1500
        assert ledger.messages() == 7
        assert ledger.bytes() == 1564

    def test_unknown_category_is_zero(self):
        assert CommunicationLedger().bytes("nope") == 0

    def test_reset_and_summary(self):
        ledger = CommunicationLedger()
        ledger.record("x", 1, 8)
        assert "x" in ledger.summary()
        ledger.reset()
        assert ledger.summary() == {}


class TestCommunicator:
    def test_size_validation(self):
        with pytest.raises(ValueError):
            SimulatedCommunicator(0)

    def test_alltoallv_moves_data(self):
        comm = SimulatedCommunicator(3)
        send = [[np.full(2, 10 * i + j) for j in range(3)] for i in range(3)]
        recv = comm.alltoallv(send)
        for j in range(3):
            for i in range(3):
                np.testing.assert_array_equal(recv[j][i], np.full(2, 10 * i + j))
        # 6 off-diagonal messages of 2 float64 each
        assert comm.ledger.messages("alltoallv") == 6
        assert comm.ledger.bytes("alltoallv") == 6 * 16

    def test_alltoallv_validates_shape(self):
        comm = SimulatedCommunicator(2)
        with pytest.raises(ValueError):
            comm.alltoallv([[np.zeros(1)]])

    def test_exchange_routes_messages(self):
        comm = SimulatedCommunicator(2)
        inbox = comm.exchange([(0, 1, np.arange(3)), (1, 0, np.arange(2))])
        assert len(inbox[1]) == 1 and inbox[1][0][0] == 0
        assert len(inbox[0]) == 1 and inbox[0][0][0] == 1

    def test_self_and_empty_messages_are_delivered_but_not_charged(self):
        comm = SimulatedCommunicator(2)
        inbox = comm.exchange(
            [(0, 0, np.arange(4.0)), (1, 0, np.zeros(0)), (1, 0, np.arange(3.0))],
            category="p2p",
        )
        assert [source for source, _ in inbox[0]] == [0, 1, 1]
        np.testing.assert_array_equal(inbox[0][0][1], np.arange(4.0))
        assert inbox[1] == []
        assert comm.ledger.messages("p2p") == 1
        assert comm.ledger.bytes("p2p") == 3 * 8
        assert comm.ledger.entries["p2p"].calls == 1

    def test_exchange_validates_ranks(self):
        comm = SimulatedCommunicator(2)
        with pytest.raises(ValueError):
            comm.exchange([(0, 5, np.zeros(1))])


class TestGhostExchange:
    @pytest.mark.parametrize("pgrid", [(2, 2), (1, 3), (2, 3), (1, 1)])
    def test_ghost_layers_match_periodic_padding(self, pgrid, rng):
        shape = (8, 9, 10)
        deco = PencilDecomposition(shape, *pgrid)
        comm = SimulatedCommunicator(deco.num_tasks)
        data = rng.standard_normal(shape)
        blocks = deco.scatter(data)
        width = 2
        extended = exchange_one_field(blocks, deco, width, comm)
        padded = np.pad(data, width, mode="wrap")
        for rank in range(deco.num_tasks):
            slices = deco.local_slices(rank)
            lo = [s.start or 0 for s in slices]
            hi = [s.stop if s.stop is not None else shape[d] for d, s in enumerate(slices)]
            expected = padded[
                lo[0] : hi[0] + 2 * width,
                lo[1] : hi[1] + 2 * width,
                lo[2] : hi[2] + 2 * width,
            ]
            np.testing.assert_allclose(extended[rank], expected, atol=0)

    def test_zero_width_is_identity(self, rng):
        deco = PencilDecomposition((8, 8, 8), 2, 2)
        comm = SimulatedCommunicator(4)
        blocks = deco.scatter(rng.standard_normal((8, 8, 8)))
        out = exchange_one_field(blocks, deco, 0, comm)
        for a, b in zip(out, blocks):
            np.testing.assert_array_equal(a, b)

    def test_width_validation(self):
        deco = PencilDecomposition((8, 8, 8), 2, 2)
        comm = SimulatedCommunicator(4)
        blocks = deco.scatter(np.zeros((8, 8, 8)))
        with pytest.raises(ValueError):
            exchange_one_field(blocks, deco, -1, comm)
        with pytest.raises(ValueError):
            exchange_one_field(blocks, deco, 10, comm)
