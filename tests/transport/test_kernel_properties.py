"""Hypothesis property tests for the gather-operator layer.

The contract the whole engine rests on: a gather's bits depend only on the
(kernel, coordinates, field) content — never on the operator's block size —
and agree with a test-local materialized stencil (every index and weight
formed for all points at once) to rounding, periodic and on ghosted blocks.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from repro.transport import kernels
from repro.transport.kernels import (
    _chunk_spans,
    build_gather_operator,
    gather_cubic,
    projected_gather_operator_nbytes,
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
        kernel=st.sampled_from(("cubic_bspline", "catmull_rom")),
        block=st.integers(1, 700),
        periodic=st.booleans(),
        num_points=st.integers(1, 500),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_size_never_changes_the_bits(self, kernel, block, periodic, num_points, seed):
        """Every (block size, periodic/ghosted) combination gathers the bits
        of the default block size, within 1e-12 of the materialized stencil."""
        if periodic:
            shape, coords = SHAPE, _coords(seed, num_points)
        else:
            shape = BLOCK_SHAPE
            coords = np.random.default_rng(seed).uniform(2.0, 8.0, size=(3, num_points))
        fields = _field_stack(seed, shape).reshape(2, *shape)
        default = gather_cubic(
            fields, None, kernel, build_gather_operator(shape, coords, kernel, periodic)
        )
        before = kernels.OPERATOR_CHUNK
        kernels.OPERATOR_CHUNK = block
        try:
            operator = build_gather_operator(shape, coords, kernel, periodic)
        finally:
            kernels.OPERATOR_CHUNK = before
        candidate = gather_cubic(fields, None, kernel, operator)
        np.testing.assert_array_equal(candidate, default)
        coefficients = fields
        if kernel == "cubic_bspline":
            coefficients = np.stack(
                [ndimage.spline_filter(f, order=3, mode="grid-wrap") for f in fields]
            )
        reference = materialized_stencil_gather(
            coefficients.reshape(2, -1), shape, coords, kernel, periodic
        )
        np.testing.assert_allclose(candidate, reference, rtol=0, atol=1e-12)


class TestPlannedGatherInvariance:
    """Planning is invisible in the bits, on both cubic kernels."""

    @given(
        kernel=st.sampled_from(("cubic_bspline", "catmull_rom")),
        planned=st.booleans(),
        num_points=st.integers(1, 500),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_planning_never_changes_the_bits(self, kernel, planned, num_points, seed):
        """Random resident/one-shot x kernel: every combination produces the
        bits of that kernel's gather through its resident operator."""
        fields = _field_stack(seed).reshape(2, *SHAPE)
        coords = _coords(seed, num_points)
        operator = build_gather_operator(SHAPE, coords, kernel)
        reference = gather_cubic(fields, coords, kernel, operator)
        candidate = gather_cubic(fields, coords, kernel, operator if planned else None)
        np.testing.assert_array_equal(candidate, reference)


class TestOperatorBlockProperties:
    @given(
        num_points=st.integers(0, 2000),
        chunk=st.integers(1, 512),
    )
    @settings(max_examples=50, deadline=None)
    def test_spans_partition_the_point_range(self, num_points, chunk):
        """The operator's blocks always form a disjoint ascending cover of [0, M)."""
        spans = _chunk_spans(num_points, chunk)
        assert sum(hi - lo for lo, hi in spans) == num_points
        previous = 0
        for lo, hi in spans:
            assert lo == previous and hi > lo
            previous = hi
        if num_points:
            assert spans[-1][1] == num_points

    @given(
        num_points=st.integers(0, 20_000),
        kernel=st.sampled_from(("cubic_bspline", "catmull_rom")),
        periodic=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_operator_bytes_are_the_projected_bytes(self, num_points, kernel, periodic):
        """nbytes of an operator is what the residency rule projects, exactly."""
        coords = np.zeros((3, num_points)) + 1.5
        operator = build_gather_operator(SHAPE, coords, kernel, periodic)
        assert operator.num_points == num_points
        assert operator.nbytes == projected_gather_operator_nbytes(num_points, SHAPE)
