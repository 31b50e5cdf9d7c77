"""Tests for repro.transport.semi_lagrangian."""

import numpy as np
import pytest

from repro.data.synthetic import synthetic_velocity
from repro.runtime.plan_pool import get_plan_pool
from repro.spectral.grid import Grid
from repro.spectral.operators import SpectralOperators
from repro.transport.interpolation import PeriodicInterpolator
from repro.transport.semi_lagrangian import (
    SemiLagrangianStepper,
    cfl_number,
    compute_departure_points,
    flow_derivatives,
)

from tests.fixtures import make_grid, rk2_departure_points, smooth_velocity_field


def constant_velocity(grid, vector):
    v = grid.zeros_vector()
    for i in range(3):
        v[i] = vector[i]
    return v


class TestDeparturePoints:
    def test_zero_velocity_departure_is_identity(self):
        grid = Grid((8, 8, 8))
        X = compute_departure_points(grid, grid.zeros_vector(), dt=0.25)
        np.testing.assert_allclose(X, grid.coordinate_stack(), atol=1e-14)

    def test_constant_velocity_exact_shift(self):
        grid = Grid((8, 8, 8))
        v = constant_velocity(grid, (0.3, -0.2, 0.1))
        dt = 0.25
        X = compute_departure_points(grid, v, dt)
        expected = grid.coordinate_stack() - dt * v
        np.testing.assert_allclose(X, expected, atol=1e-14)

    def test_zero_dt_departure_is_identity(self):
        grid = Grid((8, 8, 8))
        rng = np.random.default_rng(0)
        v = rng.standard_normal((3, *grid.shape))
        X = compute_departure_points(grid, v, 0.0)
        np.testing.assert_allclose(X, grid.coordinate_stack(), atol=1e-14)

    def test_negative_dt_rejected(self):
        grid = Grid((8, 8, 8))
        with pytest.raises(ValueError):
            compute_departure_points(grid, grid.zeros_vector(), -0.1)

    def test_velocity_shape_validated(self):
        grid = Grid((8, 8, 8))
        with pytest.raises(ValueError):
            compute_departure_points(grid, np.zeros(grid.shape), 0.1)

    def test_fourth_order_local_accuracy_on_a_periodic_flow(self):
        # v_j = A sin(x_j) has the exact characteristics
        # tan(X_j(s) / 2) = tan(x_j / 2) exp(A s); the third-order expansion
        # leaves an O(dt^4) local error (the interpolated RK2 trace: O(dt^3)).
        grid = Grid((16, 16, 16))
        amplitude = 0.8
        x = grid.coordinate_stack()
        v = amplitude * np.sin(x)
        errors = []
        for dt in (0.2, 0.1):
            exact = 2.0 * np.arctan2(np.sin(x / 2) * np.exp(-amplitude * dt), np.cos(x / 2))
            errors.append(np.max(np.abs(compute_departure_points(grid, v, dt) - exact)))
        assert errors[0] < 5e-5
        assert errors[1] < errors[0] / 14.0

    def test_error_and_order_against_rk4_reference(self):
        """Orders, not tolerances: the paper's analytic velocity, traced by a
        substepped RK4 on the formula, is the reference for the expansion."""
        grid = Grid((32, 32, 32))
        velocity = synthetic_velocity(grid, amplitude=1.0)

        def analytic(X):
            x1, x2, x3 = X
            return np.stack(
                [np.cos(x1) * np.sin(x2), np.cos(x2) * np.sin(x1), np.cos(x1) * np.sin(x3)]
            )

        def reference(dt, substeps=32):
            X, h = grid.coordinate_stack(), -dt / substeps
            for _ in range(substeps):
                k1 = analytic(X)
                k2 = analytic(X + 0.5 * h * k1)
                k3 = analytic(X + 0.5 * h * k2)
                k4 = analytic(X + h * k3)
                X = X + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            return X

        errors = [
            np.max(np.abs(compute_departure_points(grid, velocity, dt) - reference(dt)))
            for dt in (0.25, 0.125)
        ]
        assert errors[0] <= 7.5e-4
        assert errors[1] <= errors[0] / 14.0
        # what it replaced: the interpolated RK2 trace errs by 2.6e-3 here
        rk2 = rk2_departure_points(grid, velocity, 0.25)
        assert np.max(np.abs(rk2 - reference(0.25))) > 3.0 * errors[0]

    def test_backward_points_share_the_forward_derivatives(self):
        """``a`` is even and ``b`` odd in ``v``: ``-v`` departs from ``(a, -b)``."""
        grid = Grid((16, 19, 16))
        v = smooth_velocity_field(grid, seed=5, amplitude=0.7)
        a, b = flow_derivatives(v, SpectralOperators(grid))
        np.testing.assert_array_equal(
            compute_departure_points(grid, -v, 0.25, (a, -b)),
            compute_departure_points(grid, -v, 0.25),
        )


class TestStepper:
    def test_pure_advection_constant_velocity(self):
        # advecting sin(x1) with constant velocity c for time dt gives sin(x1 - c dt)
        grid = Grid((32, 32, 32))
        c = 0.7
        v = constant_velocity(grid, (c, 0.0, 0.0))
        dt = 0.25
        stepper = SemiLagrangianStepper(grid, v, dt)
        x1 = grid.coordinates()[0]
        nu0 = np.sin(x1)
        nu1 = stepper.step(nu0)
        np.testing.assert_allclose(nu1, np.sin(x1 - c * dt), atol=5e-4)

    def test_zero_velocity_is_identity(self, rng):
        grid = Grid((8, 8, 8))
        stepper = SemiLagrangianStepper(grid, grid.zeros_vector(), 0.25)
        nu = rng.standard_normal(grid.shape)
        np.testing.assert_allclose(stepper.step(nu), nu, atol=1e-10)

    def test_zero_velocity_plans_and_gathers_nothing(self, rng):
        grid = Grid((8, 8, 8))
        interp = PeriodicInterpolator(grid)
        stepper = SemiLagrangianStepper(grid, grid.zeros_vector(), 0.5, interp)
        assert stepper.departure_plan is None
        assert get_plan_pool().stats.entries == 0
        nu, f_old, f_new = rng.standard_normal((3, *grid.shape))
        np.testing.assert_array_equal(
            stepper.step(nu, f_old, f_new), (nu + 0.25 * f_old) + 0.25 * f_new
        )
        stepped = stepper.step(nu)
        np.testing.assert_array_equal(stepped, nu)
        assert stepped is not nu
        stack = np.stack([nu, f_old])
        np.testing.assert_array_equal(stepper.step(stack), stack)
        assert interp.points_interpolated == 0

    def test_source_only_integration(self):
        # v = 0, f = 1 everywhere: nu(dt) = nu(0) + dt
        grid = Grid((8, 8, 8))
        stepper = SemiLagrangianStepper(grid, grid.zeros_vector(), 0.5)
        nu0 = grid.zeros()
        ones = np.ones(grid.shape)
        nu1 = stepper.step(nu0, source_old=ones, source_new=ones)
        np.testing.assert_allclose(nu1, 0.5, atol=1e-12)

    def test_field_shape_validated(self):
        grid = Grid((8, 8, 8))
        stepper = SemiLagrangianStepper(grid, grid.zeros_vector(), 0.1)
        with pytest.raises(ValueError):
            stepper.step(np.zeros((4, 4, 4)))

    @pytest.mark.parametrize("fields", [np.zeros((8, 8, 7)), np.zeros((2, 8, 8, 7))],
                             ids=["field", "stack"])
    @pytest.mark.parametrize("amplitude", [0.0, 0.3], ids=["zero", "nonzero"])
    def test_wrong_grid_shape_rejected_for_every_velocity(self, amplitude, fields):
        """``v = 0`` gathers nothing, yet checks the shape as ``v != 0`` does."""
        grid = Grid((8, 8, 8))
        velocity = amplitude * smooth_velocity_field(grid, seed=5)
        stepper = SemiLagrangianStepper(grid, velocity, 0.25)
        assert (stepper.departure_plan is None) == (amplitude == 0.0)
        with pytest.raises(ValueError, match="expected one field"):
            stepper.step(fields)

    def test_source_shape_validated(self):
        grid = Grid((8, 8, 8))
        stepper = SemiLagrangianStepper(grid, grid.zeros_vector(), 0.1)
        with pytest.raises(ValueError):
            stepper.step(grid.zeros(), source_old=grid.zeros(), source_new=np.zeros((4, 4, 4)))

    def test_step_without_sources_matches_manual_gather(self, rng):
        grid = Grid((8, 8, 8))
        v = 0.2 * rng.standard_normal((3, *grid.shape))
        interp = PeriodicInterpolator(grid)
        stepper = SemiLagrangianStepper(grid, v, 0.25, interpolator=interp)
        field = rng.standard_normal(grid.shape)
        np.testing.assert_allclose(
            stepper.step(field),
            interp(field, compute_departure_points(grid, v, 0.25)),
            atol=1e-14,
        )

    def test_cfl_number(self):
        grid = Grid((8, 8, 8))
        v = constant_velocity(grid, (1.0, 0.0, 0.0))
        h = grid.spacing[0]
        assert cfl_number(grid, v, dt=1.0) == pytest.approx(1.0 / h)

    def test_stability_for_large_cfl(self):
        # the scheme is unconditionally stable: a single huge time step must not blow up
        grid = Grid((16, 16, 16))
        x1 = grid.coordinates()[0]
        v = constant_velocity(grid, (5.0, 3.0, -4.0))
        stepper = SemiLagrangianStepper(grid, v, dt=1.0)
        assert cfl_number(grid, v, dt=1.0) > 1.0
        nu = np.sin(x1)
        for _ in range(5):
            nu = stepper.step(nu)
        assert np.max(np.abs(nu)) < 1.5


class TestConservation:
    def test_advection_preserves_bounds_approximately(self):
        # semi-Lagrangian with cubic interpolation has small over/undershoots
        # only, provided the velocity is smooth (use a fixed band-limited field
        # so the test does not depend on shared random state)
        grid = Grid((16, 16, 16))
        x1, x2, x3 = grid.coordinates()
        v = 0.8 * np.stack(
            [np.sin(x2) * np.cos(x3), np.sin(x3) * np.cos(x1), np.sin(x1) * np.cos(x2)],
            axis=0,
        )
        stepper = SemiLagrangianStepper(grid, v, 0.25)
        nu = 0.5 * (1 + np.sin(x1) * np.sin(x2))
        for _ in range(4):
            nu = stepper.step(nu)
        assert nu.min() > -0.1
        assert nu.max() < 1.1


@pytest.mark.parametrize("departure", ["forward", "backward"])
@pytest.mark.parametrize("shape", [(16, 19, 16), (9, 7, 11)])
class TestMergedGather:
    """Grid-given sources are merged into the transported field before the
    gather (the interpolant is linear in the field): one sweep, same scheme
    to rounding — along the velocity (the state) and against it (the
    adjoint)."""

    DT = 1.0  # nt = 1

    def _setup(self, shape, departure, batch=3):
        grid = make_grid(shape)
        interp = PeriodicInterpolator(grid)
        velocity = smooth_velocity_field(grid, seed=3, amplitude=0.4)
        if departure == "backward":
            velocity = -velocity
        stepper = SemiLagrangianStepper(grid, velocity, self.DT, interp)
        rng = np.random.default_rng(11)
        fields, old, new = rng.standard_normal((3, batch, *grid.shape))
        return grid, interp, stepper, fields, old, new

    def _two_gather(self, stepper, nu, f_old, f_new):
        """The explicit Heun update: nu and f_old interpolated separately."""
        nu_dep = stepper.interpolator.interpolate_planned(nu, stepper.departure_plan)
        f_dep = stepper.interpolator.interpolate_planned(f_old, stepper.departure_plan)
        return nu_dep + 0.5 * self.DT * (f_dep + f_new)

    def test_step_matches_two_gather_formula(self, shape, departure):
        _, _, stepper, fields, old, new = self._setup(shape, departure)
        merged = stepper.step(fields[0], source_old=old[0], source_new=new[0])
        reference = self._two_gather(stepper, fields[0], old[0], new[0])
        np.testing.assert_allclose(merged, reference, rtol=0, atol=1e-13)
        # absent sources are zero sources
        zero = np.zeros_like(new[0])
        np.testing.assert_allclose(
            stepper.step(fields[0], source_old=old[0]),
            self._two_gather(stepper, fields[0], old[0], zero),
            rtol=0,
            atol=1e-13,
        )
        np.testing.assert_array_equal(
            stepper.step(fields[0], source_new=new[0]),
            self._two_gather(stepper, fields[0], zero, new[0]),
        )

    def test_stack_step_matches_two_gather_formula(self, shape, departure):
        _, _, stepper, fields, old, new = self._setup(shape, departure)
        merged = stepper.step(fields, source_old=old, source_new=new)
        for b in range(fields.shape[0]):
            np.testing.assert_allclose(
                merged[b],
                self._two_gather(stepper, fields[b], old[b], new[b]),
                rtol=0,
                atol=1e-13,
            )

    def test_field_step_is_stack_step_bitwise(self, shape, departure):
        _, _, stepper, fields, old, new = self._setup(shape, departure)
        for sources in ({}, {"old": old}, {"new": new}, {"old": old, "new": new}):
            many = stepper.step(fields, sources.get("old"), sources.get("new"))
            for b in range(fields.shape[0]):
                one = stepper.step(
                    fields[b],
                    source_old=None if "old" not in sources else old[b],
                    source_new=None if "new" not in sources else new[b],
                )
                np.testing.assert_array_equal(one, many[b])

    def test_sweeps_per_step(self, shape, departure):
        """One sweep per field, whatever sources the step carries."""
        grid, interp, stepper, fields, old, new = self._setup(shape, departure)

        def sweeps(call):
            before = interp.points_interpolated
            call()
            return (interp.points_interpolated - before) / grid.num_points

        assert sweeps(lambda: stepper.step(fields[0])) == 1
        assert sweeps(lambda: stepper.step(fields[0], old[0], new[0])) == 1
        assert sweeps(lambda: stepper.step(fields[0], old[0])) == 1
        assert sweeps(lambda: stepper.step(fields[0], source_new=new[0])) == 1
        assert sweeps(lambda: stepper.step(fields)) == fields.shape[0]
        assert sweeps(lambda: stepper.step(fields, old, new)) == fields.shape[0]

    def test_source_shapes_validated(self, shape, departure):
        grid, _, stepper, fields, old, new = self._setup(shape, departure)
        with pytest.raises(ValueError, match="sources have shape"):
            stepper.step(fields[0], source_old=old[0, 0])  # would broadcast silently
        with pytest.raises(ValueError, match="sources have shape"):
            stepper.step(fields, source_old=old[:1])
