"""Hypothesis property tests for the stencil-plan/executor layer.

The executor contract the whole subsystem rests on: a gather's bits depend
only on the (method, coordinates, field) content — never on the plan layout
(fat / lean / streaming), the executor's chunk size, or the worker count.
The PR-4 streaming layout rewrites the executor's chunk protocol, so these
sweeps pin the contract across the full randomized cross product instead of
a handful of hand-picked combinations.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transport.kernels import (
    PLAN_LAYOUTS,
    SUPPORTED_METHODS,
    STENCIL_CHUNK,
    ArrayFieldSource,
    GatherOperatorPlan,
    StreamingStencilPlan,
    available_backends,
    build_stencil_plan,
    execute_stencil_plan,
    get_backend,
)

SHAPE = (8, 10, 9)


def _field_stack(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((2, *SHAPE)).reshape(2, -1)


def _coords(seed: int, num_points: int) -> np.ndarray:
    rng = np.random.default_rng(seed + 10_000)
    scale = np.asarray(SHAPE, dtype=np.float64)[:, None]
    return rng.uniform(0.0, 1.0, size=(3, num_points)) * scale


def _payload(engine, coords: np.ndarray, method: str, layout: str):
    """The engine's planning product for *coords*, stencil plans in *layout*.

    The scipy engine's ``cubic_bspline`` plans a sparse gather operator,
    which has no stencil layouts behind it.
    """
    if not engine.supports_plan(method):
        return None
    payload = engine.build_plan(SHAPE, coords, method)
    if isinstance(payload, GatherOperatorPlan):
        return payload
    return build_stencil_plan(SHAPE, coords, method, layout=layout)


class TestGatherBitwiseInvariance:
    @given(
        layout=st.sampled_from(PLAN_LAYOUTS),
        method=st.sampled_from(SUPPORTED_METHODS),
        chunk=st.integers(1, 700),
        workers=st.integers(1, 4),
        num_points=st.integers(1, 500),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_layout_chunk_workers_never_change_the_bits(
        self, layout, method, chunk, workers, num_points, seed
    ):
        """The tentpole pin: every (layout, chunk, workers) combination
        gathers bitwise identically to the fat single-threaded reference."""
        flat = _field_stack(seed)
        coords = _coords(seed, num_points)
        reference = execute_stencil_plan(
            flat, build_stencil_plan(SHAPE, coords, method, layout="fat"), workers=1
        )
        plan = build_stencil_plan(SHAPE, coords, method, layout=layout)
        candidate = execute_stencil_plan(flat, plan, chunk=chunk, workers=workers)
        np.testing.assert_array_equal(candidate, reference)

    @given(
        layout=st.sampled_from(PLAN_LAYOUTS),
        method=st.sampled_from(SUPPORTED_METHODS),
        num_points=st.integers(1, 400),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_non_periodic_layouts_agree(self, layout, method, num_points, seed):
        """Ghost-block (scatter-path) plans obey the same layout invariance."""
        rng = np.random.default_rng(seed)
        block = rng.standard_normal((12, 11, 13))
        # interior points: the full stencil stays inside the block
        coords = rng.uniform(2.0, 8.0, size=(3, num_points))
        flat = block.reshape(1, -1)
        reference = execute_stencil_plan(
            flat, build_stencil_plan(block.shape, coords, method, periodic=False, layout="fat")
        )
        candidate = execute_stencil_plan(
            flat, build_stencil_plan(block.shape, coords, method, periodic=False, layout=layout)
        )
        np.testing.assert_array_equal(candidate, reference)


class TestTiledGatherInvariance:
    """The PR-5 pin: tiling is invisible in the bits, on every backend."""

    @given(
        layout=st.sampled_from(PLAN_LAYOUTS),
        method=st.sampled_from(SUPPORTED_METHODS),
        tiled=st.booleans(),
        backend=st.sampled_from(available_backends()),
        num_points=st.integers(1, 500),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_layout_tiling_backend_never_change_the_bits(
        self, layout, method, tiled, backend, num_points, seed
    ):
        """Random layout x tiled/resident x gather engine: every combination
        produces the bits of that engine's resident fat-plan gather."""
        engine = get_backend(backend)
        fields = _field_stack(seed).reshape(2, *SHAPE)
        coords = _coords(seed, num_points)
        reference = engine.gather(fields, coords, _payload(engine, coords, method, "fat"), method)
        payload = _payload(engine, coords, method, layout)
        candidate_fields = ArrayFieldSource(fields) if tiled else fields
        candidate = engine.gather(candidate_fields, coords, payload, method)
        np.testing.assert_array_equal(candidate, reference)

    @given(
        layout=st.sampled_from(PLAN_LAYOUTS),
        method=st.sampled_from(SUPPORTED_METHODS),
        chunk=st.integers(1, 700),
        num_points=st.integers(1, 500),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_tiled_executor_matches_resident_across_chunks(
        self, layout, method, chunk, num_points, seed
    ):
        """The executor-level sweep: tiled == resident for every layout and
        chunk size (the tile set changes with the chunking; the bits don't)."""
        flat = _field_stack(seed)
        coords = _coords(seed, num_points)
        plan = build_stencil_plan(SHAPE, coords, method, layout=layout)
        resident = execute_stencil_plan(flat, plan, chunk=chunk)
        source = ArrayFieldSource(flat.reshape(2, *SHAPE))
        tiled = execute_stencil_plan(source, plan, chunk=chunk)
        np.testing.assert_array_equal(tiled, resident)


class TestChunkProtocolProperties:
    @given(
        layout=st.sampled_from(PLAN_LAYOUTS),
        num_points=st.integers(0, 2000),
        chunk=st.integers(1, 512),
    )
    @settings(max_examples=50, deadline=None)
    def test_spans_partition_the_point_range(self, layout, num_points, chunk):
        """iter_chunks always yields a disjoint ascending cover of [0, M)."""
        plan = build_stencil_plan(
            SHAPE, _coords(0, num_points) if num_points else np.empty((3, 0)), "linear",
            layout=layout,
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
    def test_streaming_resident_bytes_capped_at_one_chunk(self, num_points):
        """nbytes of a streaming plan is min(M, chunk) scratch — never O(M)."""
        coords = np.zeros((3, num_points)) + 1.5
        plan = build_stencil_plan(SHAPE, coords, "catmull_rom", layout="streaming")
        assert isinstance(plan, StreamingStencilPlan)
        per_point = 3 * (np.dtype(np.intp).itemsize + np.dtype(np.float64).itemsize)
        assert plan.nbytes == per_point * min(num_points, STENCIL_CHUNK)
