"""Hypothesis property tests for the stencil-plan/executor layer.

The executor contract the whole subsystem rests on: a gather's bits depend
only on the (method, coordinates, field) content — never on the executor's
chunk size or the worker count.  The oracle is a test-local materialized stencil: every
index and weight formed for all points at once.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transport.kernels import (
    SUPPORTED_METHODS,
    available_backends,
    build_stencil_plan,
    execute_stencil_plan,
    get_backend,
)

from tests.fixtures import materialized_stencil_gather

SHAPE = (8, 10, 9)

#: a ghost-extended block and the interior its full stencils stay inside
BLOCK_SHAPE = (12, 11, 13)


def _field_stack(seed: int, shape=SHAPE) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((2, *shape)).reshape(2, -1)


def _coords(seed: int, num_points: int) -> np.ndarray:
    rng = np.random.default_rng(seed + 10_000)
    scale = np.asarray(SHAPE, dtype=np.float64)[:, None]
    return rng.uniform(0.0, 1.0, size=(3, num_points)) * scale


class TestGatherBitwiseInvariance:
    @given(
        method=st.sampled_from(SUPPORTED_METHODS),
        chunk=st.integers(1, 700),
        workers=st.integers(1, 4),
        periodic=st.booleans(),
        num_points=st.integers(1, 500),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_chunk_workers_never_change_the_bits(
        self, method, chunk, workers, periodic, num_points, seed
    ):
        """The tentpole pin: every (chunk, workers, periodic/ghosted)
        combination gathers bitwise what the materialized stencil gathers."""
        if periodic:
            shape, coords = SHAPE, _coords(seed, num_points)
        else:
            shape = BLOCK_SHAPE
            coords = np.random.default_rng(seed).uniform(2.0, 8.0, size=(3, num_points))
        flat = _field_stack(seed, shape)
        reference = materialized_stencil_gather(flat, shape, coords, method, periodic)
        plan = build_stencil_plan(shape, coords, method, periodic=periodic)
        candidate = execute_stencil_plan(flat, plan, chunk=chunk, workers=workers)
        np.testing.assert_array_equal(candidate, reference)


class TestPlannedGatherInvariance:
    """Planning is invisible in the bits, on every backend."""

    @given(
        method=st.sampled_from(SUPPORTED_METHODS),
        planned=st.booleans(),
        backend=st.sampled_from(available_backends()),
        num_points=st.integers(1, 500),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_planning_never_changes_the_bits(
        self, method, planned, backend, num_points, seed
    ):
        """Random planned/one-shot x gather engine: every combination
        produces the bits of that engine's planned gather."""
        engine = get_backend(backend)
        fields = _field_stack(seed).reshape(2, *SHAPE)
        coords = _coords(seed, num_points)
        payload = None
        if engine.supports_plan(method):
            payload = engine.build_plan(SHAPE, coords, method)
        reference = engine.gather(fields, coords, payload, method)
        candidate = engine.gather(fields, coords, payload if planned else None, method)
        np.testing.assert_array_equal(candidate, reference)


class TestChunkProtocolProperties:
    @given(
        num_points=st.integers(0, 2000),
        chunk=st.integers(1, 512),
    )
    @settings(max_examples=50, deadline=None)
    def test_spans_partition_the_point_range(self, num_points, chunk):
        """iter_chunks always yields a disjoint ascending cover of [0, M)."""
        plan = build_stencil_plan(
            SHAPE, _coords(0, num_points) if num_points else np.empty((3, 0)), "linear"
        )
        spans = plan.iter_chunks(chunk)
        assert sum(hi - lo for lo, hi in spans) == num_points
        previous = 0
        for lo, hi in spans:
            assert lo == previous and hi > lo
            previous = hi
        if num_points:
            assert spans[-1][1] == num_points

    @given(num_points=st.integers(0, 60_000))
    @settings(max_examples=30, deadline=None)
    def test_plan_bytes_are_36_per_point(self, num_points):
        """nbytes of a plan is its int32 base + float64 fraction, exactly."""
        coords = np.zeros((3, num_points)) + 1.5
        plan = build_stencil_plan(SHAPE, coords, "catmull_rom")
        assert plan.nbytes == 36 * num_points
