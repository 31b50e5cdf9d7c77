"""Tests for the simulated communicator, the distributed FFT and ghost exchange."""

import numpy as np
import pytest

from repro.parallel.comm import CommunicationLedger, SimulatedCommunicator
from repro.parallel.distributed_fft import DistributedFFT
from repro.parallel.operators import DistributedSpectralOperators
from repro.parallel.pencil import PencilDecomposition
from repro.spectral.grid import Grid
from repro.spectral.operators import SpectralOperators

from tests.fixtures import exchange_one_field, smooth_scalar_field, smooth_vector_field

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

    def test_exchange_validates_ranks(self):
        comm = SimulatedCommunicator(2)
        with pytest.raises(ValueError):
            comm.exchange([(0, 5, np.zeros(1))])


@pytest.mark.parametrize(
    "shape, pgrid",
    [((8, 8, 8), (2, 2)), ((8, 12, 10), (2, 3)), ((9, 8, 8), (3, 2)), ((8, 8, 8), (1, 1))],
)
class TestDistributedFFT:
    def test_matches_numpy_fftn(self, shape, pgrid, rng):
        deco = PencilDecomposition(shape, *pgrid)
        dfft = DistributedFFT(deco)
        field = rng.standard_normal(shape)
        np.testing.assert_allclose(
            dfft.forward_global(field), np.fft.fftn(field), atol=1e-9
        )

    def test_round_trip(self, shape, pgrid, rng):
        deco = PencilDecomposition(shape, *pgrid)
        dfft = DistributedFFT(deco)
        field = rng.standard_normal(shape)
        back = dfft.backward_global(dfft.forward_global(field))
        np.testing.assert_allclose(back.real, field, atol=1e-10)

    def test_communication_is_recorded(self, shape, pgrid, rng):
        deco = PencilDecomposition(shape, *pgrid)
        dfft = DistributedFFT(deco)
        dfft.forward_global(rng.standard_normal(shape))
        if deco.num_tasks > 1:
            assert dfft.comm.ledger.bytes("fft_transpose") > 0
        else:
            assert dfft.comm.ledger.bytes("fft_transpose") == 0


class TestDistributedFFTValidation:
    def test_block_shape_validation(self):
        deco = PencilDecomposition((8, 8, 8), 2, 2)
        dfft = DistributedFFT(deco)
        with pytest.raises(ValueError):
            dfft.forward([np.zeros((8, 8, 8))] * 4)
        with pytest.raises(ValueError):
            dfft.forward([np.zeros((4, 4, 8))] * 3)

    def test_apply_symbol_matches_serial(self, rng):
        grid = Grid((8, 8, 8))
        deco = PencilDecomposition(grid.shape, 2, 2)
        dfft = DistributedFFT(deco)
        field = rng.standard_normal(grid.shape)
        k1 = grid.wavenumbers_1d(0)[:, None, None]
        k2 = grid.wavenumbers_1d(1)[None, :, None]
        k3 = grid.wavenumbers_1d(2)[None, None, :]
        symbol = -(k1**2 + k2**2 + k3**2)
        blocks = dfft.apply_symbol(deco.scatter(field.astype(complex)), symbol)
        serial = SpectralOperators(grid).laplacian(field)
        np.testing.assert_allclose(deco.gather(blocks), serial, atol=1e-9)


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


class TestDistributedOperators:
    @pytest.fixture(scope="class")
    def setup(self):
        grid = Grid((12, 12, 12))
        deco = PencilDecomposition(grid.shape, 2, 2)
        dist = DistributedSpectralOperators(grid, deco)
        serial = SpectralOperators(grid)
        return grid, deco, dist, serial

    def test_laplacian_matches_serial(self, setup):
        grid, deco, dist, serial = setup
        field = smooth_scalar_field(grid, seed=1)
        blocks = dist.laplacian(deco.scatter(field.astype(complex)))
        np.testing.assert_allclose(deco.gather(blocks), serial.laplacian(field), atol=1e-9)

    def test_gradient_matches_serial(self, setup):
        grid, deco, dist, serial = setup
        field = smooth_scalar_field(grid, seed=2)
        components = dist.gradient(deco.scatter(field.astype(complex)))
        serial_grad = serial.gradient(field)
        for axis in range(3):
            np.testing.assert_allclose(
                deco.gather(components[axis]), serial_grad[axis], atol=1e-9
            )

    def test_divergence_matches_serial(self, setup):
        grid, deco, dist, serial = setup
        v = smooth_vector_field(grid, seed=3)
        vector_blocks = [deco.scatter(v[axis].astype(complex)) for axis in range(3)]
        blocks = dist.divergence(vector_blocks)
        np.testing.assert_allclose(deco.gather(blocks), serial.divergence(v), atol=1e-9)

    def test_leray_matches_serial_and_is_divergence_free(self, setup):
        grid, deco, dist, serial = setup
        v = smooth_vector_field(grid, seed=4)
        vector_blocks = [deco.scatter(v[axis].astype(complex)) for axis in range(3)]
        projected = dist.leray_project(vector_blocks)
        serial_projected = serial.leray_project(v)
        gathered = np.stack([deco.gather(projected[axis]) for axis in range(3)], axis=0)
        np.testing.assert_allclose(gathered, serial_projected, atol=1e-9)
        assert serial.is_divergence_free(gathered, tol=1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DistributedSpectralOperators(Grid((8, 8, 8)), PencilDecomposition((12, 12, 12), 2, 2))
