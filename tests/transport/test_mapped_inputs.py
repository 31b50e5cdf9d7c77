"""Gathers of memory-mapped field stacks.

:func:`repro.data.open_problem` and :func:`repro.data.memmap_npz_member`
hand the solver read-only ``np.memmap`` views, and every gather takes them
as the plain ``ndarray`` stacks they are.  This conformance suite runs the
input kinds a caller can hold — an in-memory array, a read-only array, a
mapped ``.npy`` file and a mapped member of an uncompressed ``.npz``
archive — through every layer that gathers (the stencil executor, each
engine planned and one-shot, the interpolator front end, the
semi-Lagrangian stepper and a whole registration) and pins that each
produces the bits of the in-memory stack.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.config import RegistrationConfig
from repro.core.optim.gauss_newton import SolverOptions
from repro.core.registration import register
from repro.data.io import load_problem, memmap_npz_member, open_problem, save_problem
from repro.data.synthetic import synthetic_registration_problem
from repro.transport.interpolation import PeriodicInterpolator
from repro.transport.kernels import (
    SUPPORTED_METHODS,
    build_stencil_plan,
    execute_stencil_plan,
    get_backend,
)
from repro.transport.semi_lagrangian import SemiLagrangianStepper

from tests.fixtures import (
    interp_backend_params,
    make_grid,
    random_points,
    smooth_velocity_field,
)

BACKENDS = interp_backend_params()

SHAPE = (12, 13, 14)
STACK = np.random.default_rng(7).standard_normal((2, *SHAPE))

INPUT_KINDS = ("array", "readonly", "memmap_npy", "memmap_npz")


@pytest.fixture(scope="module")
def as_input(tmp_path_factory):
    """Factory: *array* held the way input kind *kind* holds it."""
    directory = tmp_path_factory.mktemp("mapped")
    counter = itertools.count()

    def build(kind: str, array: np.ndarray = STACK) -> np.ndarray:
        if kind == "array":
            return array.copy()
        if kind == "readonly":
            frozen = array.copy()
            frozen.setflags(write=False)
            return frozen
        if kind == "memmap_npy":
            path = directory / f"stack{next(counter)}.npy"
            np.save(path, array)
            return np.load(path, mmap_mode="r")
        if kind == "memmap_npz":
            path = directory / f"stack{next(counter)}.npz"
            np.savez(path, fields=array)
            return memmap_npz_member(path, "fields")
        raise AssertionError(kind)

    return build


@pytest.fixture(scope="module")
def grid():
    return make_grid(SHAPE)


@pytest.fixture(scope="module")
def points():
    return random_points(900, seed=6)


# --------------------------------------------------------------------------- #
# the input kinds themselves
# --------------------------------------------------------------------------- #
class TestInputKinds:
    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_kind_holds_the_stack(self, kind, as_input):
        fields = as_input(kind)
        assert fields.shape == STACK.shape
        assert fields.dtype == np.float64
        assert isinstance(fields, np.memmap) == kind.startswith("memmap")
        assert fields.flags.writeable == (kind == "array")
        np.testing.assert_array_equal(np.asarray(fields), STACK)


# --------------------------------------------------------------------------- #
# the stencil executor
# --------------------------------------------------------------------------- #
class TestStencilExecutor:
    @pytest.mark.parametrize("kind", INPUT_KINDS)
    @pytest.mark.parametrize("method", SUPPORTED_METHODS)
    def test_gather_matches_resident(self, kind, method, as_input, grid, points):
        coords = PeriodicInterpolator(grid, method).to_index_coordinates(points)
        plan = build_stencil_plan(grid.shape, coords, method)
        resident = execute_stencil_plan(np.ascontiguousarray(STACK.reshape(2, -1)), plan)
        candidate = execute_stencil_plan(as_input(kind).reshape(2, -1), plan)
        np.testing.assert_array_equal(candidate, resident)


# --------------------------------------------------------------------------- #
# every engine, planned and one-shot
# --------------------------------------------------------------------------- #
class TestEngines:
    @pytest.mark.parametrize("kind", INPUT_KINDS)
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("method", SUPPORTED_METHODS)
    @pytest.mark.parametrize("planned", [True, False], ids=["planned", "one-shot"])
    def test_gather_matches_resident(
        self, kind, backend, method, planned, as_input, grid, points
    ):
        engine = get_backend(backend)
        coords = PeriodicInterpolator(grid, method).to_index_coordinates(points)
        payload = None
        if planned and engine.supports_plan(method):
            payload = engine.build_plan(SHAPE, coords, method)
        resident = engine.gather(STACK, coords, payload, method)
        candidate = engine.gather(as_input(kind), coords, payload, method)
        np.testing.assert_array_equal(candidate, resident)


# --------------------------------------------------------------------------- #
# the interpolator front end
# --------------------------------------------------------------------------- #
class TestInterpolator:
    @pytest.mark.parametrize("kind", INPUT_KINDS)
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("method", SUPPORTED_METHODS)
    def test_planned_stack_matches_resident(
        self, kind, backend, method, as_input, grid, points
    ):
        interp = PeriodicInterpolator(grid, method, backend=backend)
        plan = interp.plan(points)
        resident = interp.interpolate_many_planned(STACK, plan)
        candidate = interp.interpolate_many_planned(as_input(kind), plan)
        np.testing.assert_array_equal(candidate, resident)

    @pytest.mark.parametrize("kind", INPUT_KINDS)
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("method", SUPPORTED_METHODS)
    def test_one_shot_stack_matches_resident(
        self, kind, backend, method, as_input, grid, points
    ):
        interp = PeriodicInterpolator(grid, method, backend=backend)
        resident = interp.interpolate_many(STACK, points)
        candidate = interp.interpolate_many(as_input(kind), points)
        np.testing.assert_array_equal(candidate, resident)
        assert interp.points_interpolated == 2 * STACK.shape[0] * points.shape[1]

    @pytest.mark.parametrize("kind", INPUT_KINDS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_single_field_matches_resident(self, kind, backend, as_input, grid, points):
        interp = PeriodicInterpolator(grid, backend=backend)
        resident = interp(STACK[0], points)
        candidate = interp(as_input(kind, STACK[0]), points)
        np.testing.assert_array_equal(candidate, resident)


# --------------------------------------------------------------------------- #
# the semi-Lagrangian stepper
# --------------------------------------------------------------------------- #
class TestStepper:
    @pytest.mark.parametrize("kind", INPUT_KINDS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_step_many_matches_resident(self, kind, backend, as_input, grid):
        stepper = SemiLagrangianStepper(
            grid,
            smooth_velocity_field(grid, seed=3),
            dt=0.25,
            interpolator=PeriodicInterpolator(grid, backend=backend),
        )
        np.testing.assert_array_equal(
            stepper.step_many(as_input(kind)), stepper.step_many(STACK)
        )

    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_step_many_with_mapped_sources_matches_resident(self, kind, as_input, grid):
        stepper = SemiLagrangianStepper(grid, smooth_velocity_field(grid, seed=4), dt=0.25)
        sources_old, sources_new = 0.5 * STACK, -0.25 * STACK
        resident = stepper.step_many(STACK, sources_old, sources_new)
        candidate = stepper.step_many(
            as_input(kind), as_input(kind, sources_old), as_input(kind, sources_new)
        )
        np.testing.assert_array_equal(candidate, resident)

    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_zero_velocity_returns_a_resident_copy(self, kind, as_input, grid):
        """v = 0 gathers nothing: the step is a writable in-memory copy of
        the input, never the caller's (possibly mapped) array."""
        stepper = SemiLagrangianStepper(grid, np.zeros((3, *SHAPE)), dt=0.25)
        fields = as_input(kind)
        stepped = stepper.step_many(fields)
        assert type(stepped) is np.ndarray
        assert stepped.flags.writeable
        assert not np.shares_memory(stepped, fields)
        np.testing.assert_array_equal(stepped, STACK)
        assert stepper.interpolator.points_interpolated == 0


# --------------------------------------------------------------------------- #
# a whole registration
# --------------------------------------------------------------------------- #
class TestRegistration:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_open_problem_registers_like_load_problem(self, backend, tmp_path):
        problem = synthetic_registration_problem(8)
        path = save_problem(
            tmp_path / "problem.npz",
            problem.reference,
            problem.template,
            grid=problem.grid,
            compress=False,
        )
        results = []
        for data in (load_problem(path), open_problem(path)):
            results.append(
                register(
                    data["template"],
                    data["reference"],
                    grid=data["grid"],
                    options=SolverOptions(max_newton_iterations=1, max_krylov_iterations=3),
                    config=RegistrationConfig(interp_backend=backend),
                )
            )
        resident, mapped = results
        np.testing.assert_array_equal(mapped.velocity, resident.velocity)
        np.testing.assert_array_equal(mapped.deformed_template, resident.deformed_template)
