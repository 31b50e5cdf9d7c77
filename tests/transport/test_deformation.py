"""Tests for repro.transport.deformation."""

import numpy as np
import pytest

from repro.core.metrics import determinant_summary
from repro.spectral.grid import Grid
from repro.spectral.operators import SpectralOperators
from repro.transport.deformation import DeformationMap, deformation_gradient_determinant

from tests.fixtures import smooth_scalar_field, smooth_vector_field


@pytest.fixture(scope="module")
def grid():
    return Grid((16, 16, 16))


@pytest.fixture(scope="module")
def ops(grid):
    return SpectralOperators(grid)


def solenoidal(grid, amplitude=0.5):
    x1, x2, x3 = grid.coordinates()
    return amplitude * np.stack(
        [np.sin(x2) * np.sin(x3), np.sin(x1) * np.sin(x3), np.sin(x1) * np.sin(x2)], axis=0
    )


class TestDeterminantHelper:
    def test_zero_displacement_gives_unit_determinant(self, grid, ops):
        det = deformation_gradient_determinant(grid.zeros_vector(), ops)
        np.testing.assert_allclose(det, 1.0, atol=1e-12)

    def test_small_displacement_linearization(self, grid, ops):
        # det(I + grad u) ~ 1 + div u for small u
        u = 1e-3 * smooth_vector_field(grid, seed=1)
        det = deformation_gradient_determinant(u, ops)
        div_u = ops.divergence(u)
        np.testing.assert_allclose(det - 1.0, div_u, atol=1e-5)

    def test_validates_shape(self, grid, ops):
        with pytest.raises(ValueError):
            deformation_gradient_determinant(grid.zeros(), ops)


class TestDeformationMap:
    def test_zero_velocity_is_identity_map(self, grid):
        dmap = DeformationMap(grid, grid.zeros_vector())
        np.testing.assert_allclose(dmap.displacement(), 0.0, atol=1e-12)
        np.testing.assert_allclose(dmap.map(), grid.coordinate_stack(), atol=1e-12)
        np.testing.assert_allclose(dmap.determinant(), 1.0, atol=1e-12)
        assert dmap.is_diffeomorphic()

    def test_constant_velocity_translation(self):
        grid = Grid((16, 16, 16))
        v = grid.zeros_vector()
        v[0] = 0.3
        dmap = DeformationMap(grid, v, num_time_steps=4)
        u = dmap.displacement()
        np.testing.assert_allclose(u[0], -0.3, atol=1e-6)
        np.testing.assert_allclose(u[1], 0.0, atol=1e-8)
        np.testing.assert_allclose(dmap.determinant(), 1.0, atol=1e-6)

    def test_divergence_free_velocity_preserves_volume(self, grid):
        dmap = DeformationMap(grid, solenoidal(grid, 0.5), num_time_steps=8)
        det = dmap.determinant()
        np.testing.assert_allclose(det, 1.0, atol=5e-2)
        stats = determinant_summary(det)
        assert max(stats["max"] - 1.0, 1.0 - stats["min"]) < 5e-2

    def test_smooth_velocity_yields_diffeomorphic_map(self, grid):
        dmap = DeformationMap(grid, 0.3 * smooth_vector_field(grid, seed=2), num_time_steps=4)
        assert dmap.is_diffeomorphic()
        stats = determinant_summary(dmap.determinant())
        assert stats["fraction_nonpositive"] == 0.0
        assert stats["min"] > 0.0

    def test_warp_consistent_with_state_transport(self, grid):
        # rho_T(y1(x)) must match the solution of the state equation at t=1
        from repro.transport.solvers import TransportSolver

        velocity = 0.4 * smooth_vector_field(grid, seed=3)
        rho0 = 0.5 * (1.0 + np.tanh(smooth_scalar_field(grid, seed=4)))
        transport = TransportSolver(grid, num_time_steps=8)
        transported = transport.solve_state(transport.plan(velocity), rho0)[-1]

        dmap = DeformationMap(grid, velocity, num_time_steps=8)
        warped = dmap.warp(rho0)
        error = grid.norm(warped - transported) / max(grid.norm(transported), 1e-12)
        assert error < 5e-2

    def test_warp_validates_shape(self, grid):
        dmap = DeformationMap(grid, grid.zeros_vector())
        with pytest.raises(ValueError):
            dmap.warp(np.zeros((4, 4, 4)))

    def test_velocity_shape_validated(self, grid):
        with pytest.raises(ValueError):
            DeformationMap(grid, np.zeros(grid.shape))

    def test_shared_transport_solver_is_reused(self, grid):
        """A registration hands the map its problem's solver: same bits, one
        interpolator, and the final velocity's gather operator stays warm."""
        from repro.transport.solvers import TransportSolver

        velocity = 0.3 * smooth_vector_field(grid, seed=6)
        rho0 = smooth_scalar_field(grid, seed=7)
        transport = TransportSolver(grid, num_time_steps=2)
        plan = transport.plan(velocity)
        transport.solve_state(plan, rho0)
        assert transport.interpolator.resident_operators == 1
        shared = DeformationMap(grid, velocity, transport=transport, plan=plan)
        assert shared.num_time_steps == 2 and shared.operators is transport.operators
        swept = transport.interpolator.points_interpolated
        determinant = shared.determinant()
        # two steps of a 3-field stack (each component merged with its
        # source), through the solver's interpolator and its resident operator
        assert transport.interpolator.points_interpolated - swept == 2 * 3 * grid.num_points
        assert transport.interpolator.resident_operators == 1
        standalone = DeformationMap(grid, velocity, num_time_steps=2)
        np.testing.assert_array_equal(determinant, standalone.determinant())
        np.testing.assert_array_equal(shared.warp(rho0), standalone.warp(rho0))

    def test_shared_transport_solver_must_match_the_grid(self, grid):
        from repro.transport.solvers import TransportSolver

        with pytest.raises(ValueError, match="grid"):
            DeformationMap(grid, grid.zeros_vector(), transport=TransportSolver(Grid((8, 8, 8))))

    def test_handed_plan_is_not_planned_again(self, grid, monkeypatch):
        """The owner of a velocity's plan hands it over: no expansion, no
        ``div v`` — and the same map as planning again."""
        from repro.transport.solvers import TransportSolver

        velocity = 0.3 * smooth_vector_field(grid, seed=8)
        transport = TransportSolver(grid, num_time_steps=2)
        plan = transport.plan(velocity)
        planned = []
        original = TransportSolver.plan
        monkeypatch.setattr(
            TransportSolver, "plan",
            lambda self, v, spectrum=None: planned.append(v) or original(self, v, spectrum),
        )
        transforms = transport.operators.fft.counters.total
        handed = DeformationMap(grid, velocity, transport=transport, plan=plan).displacement()
        assert planned == []
        assert transport.operators.fft.counters.total == transforms
        replanned = DeformationMap(grid, velocity, transport=transport).displacement()
        assert len(planned) == 1
        np.testing.assert_array_equal(handed, replanned)
        with pytest.raises(ValueError, match="different velocity"):
            DeformationMap(grid, 2.0 * velocity, transport=transport, plan=plan)

    def test_displacement_is_cached(self, grid):
        dmap = DeformationMap(grid, 0.2 * smooth_vector_field(grid, seed=5))
        first = dmap.displacement()
        second = dmap.displacement()
        assert first is second
