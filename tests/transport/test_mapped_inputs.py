"""Gathers of memory-mapped field stacks.

``numpy.load(path, mmap_mode="r")`` hands the solver a read-only
``np.memmap`` view of a ``.npy`` file, and every gather takes it as the
plain ``ndarray`` stack it is.  This conformance suite runs the input kinds
a caller can hold — an in-memory array, a read-only array and a mapped
``.npy`` file, each stored in double or single precision — through every
layer that gathers (the gather operator, periodic and on a ghosted block,
each cubic kernel planned and one-shot, the interpolator front end, the
semi-Lagrangian stepper and a whole registration) and pins that each
produces the bits of the in-memory stack.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.optim.gauss_newton import SolverOptions
from repro.core.registration import register
from repro.data.synthetic import synthetic_registration_problem
from repro.transport.interpolation import PeriodicInterpolator
from repro.transport.kernels import build_gather_operator, gather_cubic
from repro.transport.semi_lagrangian import SemiLagrangianStepper

from tests.fixtures import make_grid, random_points, smooth_velocity_field

SHAPE = (12, 13, 14)
STACK = np.random.default_rng(7).standard_normal((2, *SHAPE))

INPUT_KINDS = ("array", "readonly", "memmap_npy")

#: Stored precisions: images are often kept on disk in single precision.
DTYPES = [np.float64, np.float32]
DTYPE_IDS = ["float64", "float32"]


@pytest.fixture(params=DTYPES, ids=DTYPE_IDS)
def stack(request):
    """``STACK`` in one stored precision (the in-memory reference)."""
    return STACK.astype(request.param)


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
    def test_kind_holds_the_stack(self, kind, as_input, stack):
        fields = as_input(kind, stack)
        assert fields.shape == STACK.shape
        assert fields.dtype == stack.dtype
        assert isinstance(fields, np.memmap) == kind.startswith("memmap")
        assert fields.flags.writeable == (kind == "array")
        np.testing.assert_array_equal(np.asarray(fields), stack)


# --------------------------------------------------------------------------- #
# the gather operator: both cubic kernels, resident and one-shot
# --------------------------------------------------------------------------- #
class TestGatherOperator:
    @pytest.mark.parametrize("kind", INPUT_KINDS)
    @pytest.mark.parametrize("kernel", ["cubic_bspline", "catmull_rom"])
    @pytest.mark.parametrize("mode", ["periodic", "one-shot", "ghosted"])
    def test_gather_matches_resident(self, kind, kernel, mode, as_input, stack, grid, points):
        if mode == "ghosted":  # a ghosted block's interior: no tap leaves the block
            coords = np.random.default_rng(8).uniform(2.0, 9.0, size=(3, 900))
        else:
            coords = PeriodicInterpolator(grid).to_index_coordinates(points)
        operator = None
        if mode != "one-shot":
            operator = build_gather_operator(SHAPE, coords, kernel, wrap=mode == "periodic")
        resident = gather_cubic(stack, coords, kernel, operator)
        candidate = gather_cubic(as_input(kind, stack), coords, kernel, operator)
        np.testing.assert_array_equal(candidate, resident)


# --------------------------------------------------------------------------- #
# the interpolator front end
# --------------------------------------------------------------------------- #
class TestInterpolator:
    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_planned_stack_matches_resident(self, kind, as_input, stack, grid, points):
        interp = PeriodicInterpolator(grid)
        plan = interp.plan(points)
        resident = interp.interpolate_many_planned(stack, plan)
        candidate = interp.interpolate_many_planned(as_input(kind, stack), plan)
        np.testing.assert_array_equal(candidate, resident)

    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_one_shot_stack_matches_resident(self, kind, as_input, stack, grid, points):
        interp = PeriodicInterpolator(grid)
        resident = interp.interpolate_many(stack, points)
        candidate = interp.interpolate_many(as_input(kind, stack), points)
        np.testing.assert_array_equal(candidate, resident)
        assert interp.points_interpolated == 2 * STACK.shape[0] * points.shape[1]

    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_single_field_matches_resident(self, kind, as_input, stack, grid, points):
        interp = PeriodicInterpolator(grid)
        resident = interp(stack[0], points)
        candidate = interp(as_input(kind, stack[0]), points)
        np.testing.assert_array_equal(candidate, resident)

    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_planned_single_field_matches_resident(self, kind, as_input, stack, grid, points):
        interp = PeriodicInterpolator(grid)
        plan = interp.plan(points)
        resident = interp.interpolate_planned(stack[0], plan)
        candidate = interp.interpolate_planned(as_input(kind, stack[0]), plan)
        np.testing.assert_array_equal(candidate, resident)

    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_vector_field_matches_resident(self, kind, as_input, stack, grid, points):
        vector = np.concatenate([stack, stack[:1]])
        interp = PeriodicInterpolator(grid)
        resident = interp.interpolate_many(vector, points)
        candidate = interp.interpolate_many(as_input(kind, vector), points)
        np.testing.assert_array_equal(candidate, resident)


# --------------------------------------------------------------------------- #
# the semi-Lagrangian stepper
# --------------------------------------------------------------------------- #
class TestStepper:
    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_step_stack_matches_resident(self, kind, as_input, stack, grid):
        stepper = SemiLagrangianStepper(grid, smooth_velocity_field(grid, seed=3), dt=0.25)
        np.testing.assert_array_equal(stepper.step(as_input(kind, stack)), stepper.step(stack))

    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_step_with_mapped_sources_matches_resident(self, kind, as_input, stack, grid):
        stepper = SemiLagrangianStepper(grid, smooth_velocity_field(grid, seed=4), dt=0.25)
        field, source_old, source_new = stack[0], 0.5 * stack[1], -0.25 * stack[0]
        resident = stepper.step(field, source_old, source_new)
        candidate = stepper.step(
            as_input(kind, field), as_input(kind, source_old), as_input(kind, source_new)
        )
        np.testing.assert_array_equal(candidate, resident)

    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_step_stack_with_mapped_sources_matches_resident(self, kind, as_input, stack, grid):
        stepper = SemiLagrangianStepper(grid, smooth_velocity_field(grid, seed=4), dt=0.25)
        sources_old, sources_new = 0.5 * stack, -0.25 * stack
        resident = stepper.step(stack, sources_old, sources_new)
        candidate = stepper.step(
            as_input(kind, stack), as_input(kind, sources_old), as_input(kind, sources_new)
        )
        np.testing.assert_array_equal(candidate, resident)

    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_zero_velocity_returns_a_resident_copy(self, kind, as_input, stack, grid):
        """v = 0 gathers nothing: the step is a writable in-memory copy of
        the input, never the caller's (possibly mapped) array."""
        stepper = SemiLagrangianStepper(grid, np.zeros((3, *SHAPE)), dt=0.25)
        fields = as_input(kind, stack)
        stepped = stepper.step(fields)
        assert type(stepped) is np.ndarray
        assert stepped.flags.writeable
        assert not np.shares_memory(stepped, fields)
        np.testing.assert_array_equal(stepped, stack)
        assert stepper.interpolator.points_interpolated == 0


# --------------------------------------------------------------------------- #
# a whole registration
# --------------------------------------------------------------------------- #
class TestRegistration:
    def test_mapped_images_register_like_resident_ones(self, tmp_path):
        problem = synthetic_registration_problem(8)
        mapped = {}
        for name in ("template", "reference"):
            np.save(tmp_path / f"{name}.npy", getattr(problem, name))
            mapped[name] = np.load(tmp_path / f"{name}.npy", mmap_mode="r")
        options = SolverOptions(max_newton_iterations=1, max_krylov_iterations=3)
        resident = register(problem.template, problem.reference, grid=problem.grid, options=options)
        candidate = register(
            mapped["template"], mapped["reference"], grid=problem.grid, options=options
        )
        np.testing.assert_array_equal(candidate.velocity, resident.velocity)
        np.testing.assert_array_equal(candidate.deformed_template, resident.deformed_template)
