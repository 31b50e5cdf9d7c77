"""Pluggable interpolation-kernel backends and cached gather plans.

The paper's per-iteration cost has two dominant kernels: spectral transforms
and the off-grid tricubic interpolation of the semi-Lagrangian scheme
(roughly ``10 x 64`` flops per point, ``4*nt`` sweeps per Hessian mat-vec
in Sec. III-C2/C4; ``2*nt`` here: the semi-Lagrangian step merges a
grid-given source into the field it gathers, and the adjoint's ``div v``
source is a per-velocity growth factor).  This module applies the
architecture of :mod:`repro.spectral.backends` to that second kernel: a
small registry of interchangeable gather engines behind one protocol, plus
precomputed **gather plans** that cache the 64-weight/index stencil of a
fixed point set so that every field interpolated at the same departure
points (state, adjoint, both incremental equations, all time steps of one
velocity) reuses it — the paper's "interpolation planner".

Backends
--------
``"scipy"`` (default)
    ``cubic_bspline`` runs through the **sparse gather operator** (see
    below): :func:`scipy.ndimage.spline_filter` prefilters each field and a
    :mod:`scipy.sparse` CSR product evaluates the stencil, so the indices
    and weights of a planned point set are derived once per velocity, not
    once per field per sweep.  ``linear`` calls
    :func:`scipy.ndimage.map_coordinates` per field, and ``catmull_rom``
    uses the shared vectorized stencil executor.
``"numpy"``
    Fully vectorized stencil gather for every kernel.  ``cubic_bspline``
    uses an exact periodic B-spline prefilter (a diagonal Fourier-space
    solve) followed by the cached-stencil gather; ``catmull_rom`` and
    ``linear`` gather directly.  The executor is cache-blocked over point
    chunks.
``"numba"``
    JIT-compiled stencil executor (auto-detected; cleanly reported as
    unavailable when :mod:`numba` is not installed — install the
    ``[numba]`` extra).  Shares the stencil plans and the prefilter with the
    ``numpy`` backend.

Selection precedence (first match wins), mirroring the FFT registry:

1. an explicit backend instance or name passed to the consumer
   (e.g. ``PeriodicInterpolator(grid, backend="numpy")`` or the CLI flag
   ``--interp-backend``),
2. the ``REPRO_INTERP_BACKEND`` environment variable,
3. the ``"scipy"`` default.

Backends only gather; interpolation *counting* stays in
:class:`repro.transport.interpolation.PeriodicInterpolator`, which
guarantees exact counter parity across backends — the ``2*nt`` sweep pins
(against the paper's ``4*nt``) are backend independent by construction.

Sparse gather operator (scipy engine, ``cubic_bspline``)
--------------------------------------------------------
Per point, one 16-nonzero CSR row holds the axis-0 x axis-1 weight products
``w0[a] * w1[b]`` against the flat index of the wrapped ``(i0+a-1, i1+b-1,
i2-1)`` coefficient (:class:`GatherOperator`, ~228 bytes per point).  The
spline coefficients are filtered into a buffer padded by three wrapped
entries along axis 2, so the four axis-2 taps of a row are the same column
in four contiguous slices of the flat coefficients, each shifted by one.
The operator is applied as ``matrix @ windows`` where ``windows[n, f, c]``
is those four slices of field ``f`` copied side by side, followed by an
explicit fixed-order 4-term contraction with the axis-2 weights — all
fields of a stack share one pass over the stencil and a batched gather is
bitwise equal to scalar ones.  (Four products on the slices themselves
need no copy and win while an operator block is cache-hot; inside a solve
they re-read every block ``4 B`` times and lose, ``BENCH_18.json``.)
Planned point sets keep their operator resident in
the plan pool (tag ``gather-operator``, at most two per
:class:`~repro.transport.interpolation.PeriodicInterpolator`); one-shot
point sets — and planned ones the pool budget cannot hold — build it block
by block and keep nothing.  Resident and transient gathers run the same
blocks and are bitwise identical.

Stencil plans (``catmull_rom`` everywhere, every kernel of ``numpy``/``numba``)
-----------------------------------------------------------------------------
A :class:`StencilPlan` stores what the tensor-product stencil is derived
from — int32 base indices and float64 fractional offsets, 36 bytes per
point — and the chunked executor derives each chunk's index parts and
weights in cache.  The executor is thread-pooled through the shared runtime
(:mod:`repro.runtime.workers`, ``REPRO_INTERP_WORKERS`` /
``REPRO_WORKERS``); the worker count leaves every gather bitwise unchanged.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterator,
    Optional,
    Protocol,
    Tuple,
    Type,
    Union,
    runtime_checkable,
)

import numpy as np
from scipy import ndimage, sparse

from repro.observability.metrics import get_metrics_registry
from repro.observability.trace import trace_span
from repro.runtime.plan_pool import array_fingerprint, get_plan_pool
from repro.runtime.workers import get_executor, resolve_workers
from repro.spectral.backends import BackendUnavailableError

#: Environment variable selecting the default interpolation backend.
BACKEND_ENV_VAR = "REPRO_INTERP_BACKEND"

DEFAULT_BACKEND = "scipy"

#: Interpolation kernels every backend understands.
SUPPORTED_METHODS = ("cubic_bspline", "catmull_rom", "linear")

#: Point-chunk size of the cache-blocked stencil executor.  Chosen so that
#: every per-chunk scratch array (indices, weights, gathered values) stays
#: resident in L1/L2 cache; the tap loop then streams only the field and the
#: plan arrays through memory once per chunk.
STENCIL_CHUNK = 8192


# --------------------------------------------------------------------------- #
# per-axis kernel weights
# --------------------------------------------------------------------------- #
def catmull_rom_weights(t: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Catmull-Rom convolution weights for samples at offsets ``-1, 0, 1, 2``.

    Parameters
    ----------
    t:
        Fractional coordinate in ``[0, 1)`` relative to the base grid point.
    """
    t2 = t * t
    t3 = t2 * t
    w0 = -0.5 * t3 + t2 - 0.5 * t
    w1 = 1.5 * t3 - 2.5 * t2 + 1.0
    w2 = -1.5 * t3 + 2.0 * t2 + 0.5 * t
    w3 = 0.5 * t3 - 0.5 * t2
    return w0, w1, w2, w3


def bspline_weights(t: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Uniform cubic B-spline basis weights for samples at offsets ``-1, 0, 1, 2``.

    Evaluating these weights on *prefiltered* coefficients (see
    :func:`periodic_bspline_prefilter`) reproduces the interpolating tricubic
    B-spline of :func:`scipy.ndimage.map_coordinates` with ``order=3`` on
    periodic data.
    """
    t2 = t * t
    t3 = t2 * t
    one_minus = 1.0 - t
    w0 = one_minus * one_minus * one_minus / 6.0
    w1 = (3.0 * t3 - 6.0 * t2 + 4.0) / 6.0
    w2 = (-3.0 * t3 + 3.0 * t2 + 3.0 * t + 1.0) / 6.0
    w3 = t3 / 6.0
    return w0, w1, w2, w3


def linear_weights(t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Linear interpolation weights for samples at offsets ``0, 1``."""
    return 1.0 - t, t


#: kernel name -> (per-axis weight function, leading stencil offset)
_METHOD_STENCILS: Dict[str, Tuple[Callable, int]] = {
    "cubic_bspline": (bspline_weights, -1),
    "catmull_rom": (catmull_rom_weights, -1),
    "linear": (linear_weights, 0),
}


def periodic_bspline_prefilter(fields: np.ndarray) -> np.ndarray:
    """Exact periodic cubic B-spline prefilter of a ``(..., N1, N2, N3)`` stack.

    The interpolating B-spline coefficients ``c`` solve the separable
    convolution ``c * [1/6, 4/6, 1/6] = f`` along each axis; on a periodic
    grid that convolution is diagonal in Fourier space with per-axis symbol
    ``(4 + 2 cos(2 pi k / N)) / 6``, so the solve is one real-to-complex
    transform, a division by the separable (outer-product) symbol, and the
    inverse transform.  Matches :func:`scipy.ndimage.spline_filter` with
    ``mode="grid-wrap"`` to machine precision.
    """
    fields = np.asarray(fields, dtype=np.float64)
    n1, n2, n3 = fields.shape[-3:]

    def axis_symbol(n: int) -> np.ndarray:
        return (4.0 + 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)) / 6.0

    symbol = (
        axis_symbol(n1)[:, None, None]
        * axis_symbol(n2)[None, :, None]
        * axis_symbol(n3)[None, None, : n3 // 2 + 1]
    )
    spectrum = np.fft.rfftn(fields, axes=(-3, -2, -1)) / symbol
    return np.fft.irfftn(spectrum, s=(n1, n2, n3), axes=(-3, -2, -1))


# --------------------------------------------------------------------------- #
# stencil plans (the cached part of a gather plan)
# --------------------------------------------------------------------------- #
def _chunk_spans(num_points: int, chunk: int) -> Tuple[Tuple[int, int], ...]:
    """Disjoint, ascending ``[lo, hi)`` spans covering ``[0, num_points)``."""
    return tuple((lo, min(lo + chunk, num_points)) for lo in range(0, num_points, chunk))


@functools.lru_cache(maxsize=64)
def _wrapped_index_parts(n: int, stride: int) -> np.ndarray:
    """``((k - 1) % n) * stride`` for ``k = 0 .. n + 3``, read-only.

    Every offset a periodic stencil can reach from a base index in
    ``[0, n]`` (``np.mod`` may round a wrapped coordinate up to ``n``
    itself), already wrapped and scaled to a flat index part.
    """
    table = (np.arange(-1, n + 3) % n) * stride
    table.setflags(write=False)
    return table


def _derive_chunk_stencil(
    method: str,
    taps: int,
    shape: Tuple[int, int, int],
    periodic: bool,
    base: np.ndarray,
    frac: np.ndarray,
    strides: Optional[Tuple[int, int, int]] = None,
):
    """Materialize flat index parts and axis weights from ``(3, m)`` base/frac.

    This is *the* stencil arithmetic: the stencil plans' per-chunk rebuild
    and the gather operator's blocks both run these exact operations.
    *strides* are those of the flat array the index parts address (C order
    over *shape* unless given).
    """
    weight_fn, lead = _METHOD_STENCILS[method]
    strides = strides or (shape[1] * shape[2], shape[2], 1)
    offsets = np.arange(lead, lead + taps, dtype=base.dtype)[:, None]
    index_parts = []
    weights = []
    for d in range(3):
        reached = base[d] + offsets
        if periodic:
            # one table read per tap instead of an integer division
            index_parts.append(_wrapped_index_parts(shape[d], strides[d])[reached + 1])
        else:
            index_parts.append(reached * strides[d])
        weights.append(np.stack(weight_fn(frac[d]), axis=0))
    return tuple(index_parts), tuple(weights)


@dataclass
class StencilPlan:
    """The gather stencil of a point set: int32 base indices + float64 fractions.

    Stores only what the tensor-product stencil is *derived from* — the
    per-axis base grid index (int32) and the fractional coordinate
    (float64), 36 bytes per point.  The executor derives each chunk's flat
    index parts and axis weights inside its cache-blocked loop
    (:meth:`chunk_stencil`); that rebuild is ``O(3 taps)`` work per point
    against the ``O(taps^3)`` gather it feeds, and its operands stay
    L1/L2-resident.
    """

    method: str
    taps: int
    shape: Tuple[int, int, int]
    periodic: bool
    base: np.ndarray
    frac: np.ndarray

    @property
    def num_points(self) -> int:
        return self.base.shape[1]

    @property
    def nbytes(self) -> int:
        """Exact array payload in bytes (plan-pool accounting)."""
        return self.base.nbytes + self.frac.nbytes

    def iter_chunks(self, chunk: Optional[int] = None) -> Tuple[Tuple[int, int], ...]:
        """The executor's chunk protocol: spans to feed :meth:`chunk_stencil`."""
        return _chunk_spans(self.num_points, chunk or STENCIL_CHUNK)

    def chunk_stencil(self, lo: int, hi: int):
        """Flat index parts ``(taps, m)`` per axis and axis weights of ``[lo, hi)``.

        The flat gather index of tap ``(a, b, c)`` is ``index_parts[0][a] +
        index_parts[1][b] + index_parts[2][c]``.
        """
        return _derive_chunk_stencil(
            self.method,
            self.taps,
            self.shape,
            self.periodic,
            self.base[:, lo:hi].astype(np.intp),
            self.frac[:, lo:hi],
        )


def build_stencil_plan(
    shape: Tuple[int, int, int],
    coordinates: np.ndarray,
    method: str,
    periodic: bool = True,
) -> StencilPlan:
    """Precompute the gather stencil for fractional index *coordinates*.

    Parameters
    ----------
    shape:
        Shape of the (possibly ghost-extended) array the gather will read.
    coordinates:
        Fractional indices of shape ``(3, M)``.  With ``periodic=True`` they
        must lie in ``[0, N_d)`` per axis and the stencil wraps; with
        ``periodic=False`` the caller guarantees the full stencil lies inside
        the array (the ghosted blocks of :mod:`repro.parallel.scatter`).
    method:
        One of :data:`SUPPORTED_METHODS`.
    """
    coordinates = np.asarray(coordinates)
    weight_fn, _ = _METHOD_STENCILS[method]
    base = np.floor(coordinates).astype(np.int32)
    return StencilPlan(
        method=method,
        taps=len(weight_fn(np.zeros(1))),
        shape=tuple(int(n) for n in shape),
        periodic=periodic,
        base=base,
        frac=np.ascontiguousarray(coordinates - base),
    )


def _as_flat_float64(fields: np.ndarray) -> np.ndarray:
    """Flatten a ``(B, N1, N2, N3)`` stack to the executor's gather layout.

    The stencil executor accumulates in float64 scratch buffers, so lower
    precision inputs are upcast here (the seed kernel did the same).
    """
    return np.ascontiguousarray(fields.reshape(fields.shape[0], -1), dtype=np.float64)


def _execute_stencil_chunk(
    flat_fields: np.ndarray, plan: StencilPlan, lo: int, hi: int, out: np.ndarray
) -> None:
    """Run the tap loop of one point chunk, accumulating into ``out[:, lo:hi]``.

    All scratch arrays of the chunk stay in cache while the tap loop runs;
    chunks write disjoint output slices, so any number of chunks can execute
    concurrently (and in any order) with bitwise-deterministic results.
    """
    (i0, i1, i2), (w0, w1, w2) = plan.chunk_stencil(lo, hi)
    taps = plan.taps
    num_fields = flat_fields.shape[0]
    acc = out[:, lo:hi]
    m = hi - lo
    ib = np.empty(m, dtype=np.intp)
    gi = np.empty(m, dtype=np.intp)
    wb = np.empty(m)
    wt = np.empty(m)
    gb = np.empty(m)
    tb = np.empty(m)
    for a in range(taps):
        ia = i0[a]
        wa = w0[a]
        for b in range(taps):
            np.add(ia, i1[b], out=ib)
            np.multiply(wa, w1[b], out=wb)
            for c in range(taps):
                np.add(ib, i2[c], out=gi)
                np.multiply(wb, w2[c], out=wt)
                for f in range(num_fields):
                    np.take(flat_fields[f], gi, out=gb)
                    np.multiply(wt, gb, out=tb)
                    acc[f] += tb


def execute_stencil_plan(
    flat_fields: np.ndarray,
    plan: StencilPlan,
    chunk: Optional[int] = None,
    workers: Optional[int] = None,
) -> np.ndarray:
    """Gather a ``(B, num_grid_points)`` stack through a stencil plan.

    Cache-blocked over point chunks: all scratch arrays of one chunk stay in
    cache while the tap loop runs, so each batched gather streams the plan
    arrays exactly once and reads the field with the locality of the
    (grid-ordered) departure points.  One index computation serves every
    field of the batch — the batching win of ``interpolate_many``.

    The plan feeds this loop through its chunk protocol —
    ``plan.iter_chunks(chunk)`` yields the spans, ``plan.chunk_stencil(lo,
    hi)`` derives that chunk's index parts and weights from the stored
    ``base``/``frac``.

    The chunks are embarrassingly parallel (disjoint output slices) and are
    dispatched to the shared runtime thread pool when *workers* — resolved
    through :func:`repro.runtime.workers.resolve_workers` under the
    ``REPRO_INTERP_WORKERS`` / ``REPRO_WORKERS`` policy — exceeds one.  The
    result is bitwise independent of the worker count and the chunk size.
    """
    num_fields = flat_fields.shape[0]
    out = np.zeros((num_fields, plan.num_points))
    spans = plan.iter_chunks(chunk)
    if workers is None:
        workers = resolve_workers("interp")
    # one aggregated span per plan execution — never per chunk, which
    # would swamp the recorder at thousands of chunks per gather
    with trace_span(
        "stencil.execute",
        num_points=plan.num_points,
        fields=num_fields,
        chunks=len(spans),
        workers=workers,
    ):
        if workers > 1 and len(spans) > 1:
            executor = get_executor(workers)
            list(
                executor.map(
                    lambda span: _execute_stencil_chunk(flat_fields, plan, span[0], span[1], out),
                    spans,
                )
            )
        else:
            for lo, hi in spans:
                _execute_stencil_chunk(flat_fields, plan, lo, hi, out)
    return out


# --------------------------------------------------------------------------- #
# sparse gather operator (scipy engine, cubic_bspline)
# --------------------------------------------------------------------------- #
#: Plan-pool tag of resident gather operators (the leading key element).
GATHER_OPERATOR_TAG = "gather-operator"

#: Points per operator block.  A block is the unit of building and applying:
#: its build scratch and its ``(m, 4 B)`` product stay under a few MB
#: whatever the grid size, and a one-shot gather never holds more than one
#: block.  Gather time is flat from 2k to 64k points per block (32^3, 64^3);
#: peak RSS of a 32^3 solve grows by 7 MB from 4k to 32k.
OPERATOR_CHUNK = 8192

#: Gather operators one interpolator keeps resident: the forward and the
#: backward characteristics of the live velocity, which is what a
#: ``TransportPlan`` structurally has.  Anything older is a dead iterate's.
RESIDENT_OPERATORS = 2

_OPERATOR_BUILDS = get_metrics_registry().counter(
    "interp.operator_builds", "gather operators built (resident or block-transient)"
).labels()
_OPERATOR_HITS = get_metrics_registry().counter(
    "interp.operator_hits", "planned gathers served by a resident gather operator"
).labels()


@dataclass(frozen=True)
class GatherOperatorBlock:
    """Rows ``[lo, lo + m)`` of a gather operator.

    ``matrix`` is an ``(m, N1*N2*(N3+3) - 3)`` CSR matrix with 16 stored
    values per row, in tap order ``(a, b)``: ``w0[a] * w1[b]`` at the flat
    index of the wrapped coefficient ``(i0+a-1, i1+b-1, i2-1)`` in the
    axis-2-padded coefficient array (:func:`_padded_coefficients`) — the
    column space is that array short of its last three entries, so the
    matrix applies to each of its four shifted slices; ``w2`` holds the
    ``(4, m)`` axis-2 weights the product is contracted with.
    """

    lo: int
    matrix: "sparse.csr_matrix"
    w2: np.ndarray

    @property
    def nbytes(self) -> int:
        matrix = self.matrix
        return (
            matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes + self.w2.nbytes
        )


@dataclass(frozen=True)
class GatherOperator:
    """The resident form of a point set's gather operator: all its blocks."""

    blocks: Tuple[GatherOperatorBlock, ...]

    @property
    def nbytes(self) -> int:
        """Exact array payload in bytes (plan-pool accounting)."""
        return sum(block.nbytes for block in self.blocks)


@dataclass(frozen=True)
class GatherOperatorPlan:
    """What a :class:`GatherPlan` carries for the operator: its pool key.

    The operator itself is built on the first gather and accounted in the
    plan pool under its own tag, so the plan owns no operator bytes.
    """

    key: Tuple

    nbytes = 0


def _operator_index_dtype(shape: Tuple[int, int, int]) -> np.dtype:
    """int32 while every padded flat index fits, like :mod:`scipy.sparse` itself."""
    padded_length = shape[0] * shape[1] * (shape[2] + 3)
    return np.dtype(np.int32 if padded_length <= np.iinfo(np.int32).max else np.int64)


def projected_gather_operator_nbytes(num_points: int, shape: Tuple[int, int, int]) -> int:
    """Bytes a resident :class:`GatherOperator` will report, before building it."""
    index_bytes = _operator_index_dtype(shape).itemsize
    num_blocks = -(-num_points // OPERATOR_CHUNK)
    # per point: 16 products + 4 axis-2 weights, 16 indices + 1 row pointer
    return num_points * (20 * 8 + 17 * index_bytes) + num_blocks * index_bytes


def _build_operator_block(
    shape: Tuple[int, int, int], coordinates: np.ndarray, lo: int, hi: int
) -> GatherOperatorBlock:
    """Indices and weights of the points ``[lo, hi)``, derived once.

    The per-axis wrapped indices and weights are the stencil plans' own
    (:func:`_derive_chunk_stencil`), strided for the padded coefficients;
    only their pairing into rows is new.  The wrapped axis-2 start
    ``cols2[0]`` lies in ``[0, N3 - 1]``, so all four taps stay in the row.
    """
    chunk = coordinates[:, lo:hi]
    base = np.floor(chunk).astype(np.intp)
    row = shape[2] + 3
    (rows0, rows1, cols2), (w0, w1, w2) = _derive_chunk_stencil(
        "cubic_bspline", 4, shape, True, base, chunk - base, (shape[1] * row, row, 1)
    )
    num_rows, num_columns = hi - lo, shape[0] * shape[1] * row - 3
    index_dtype = _operator_index_dtype(shape)
    rows0 = rows0.astype(index_dtype)
    rows1 = (rows1 + cols2[0]).astype(index_dtype)
    # (4, 4, m) sums and products run over long rows; one transposing copy
    # each makes them row-major
    indices = np.ascontiguousarray((rows0[:, None] + rows1[None]).transpose(2, 0, 1))
    products = np.ascontiguousarray((w0[:, None] * w1[None]).transpose(2, 0, 1))
    matrix = sparse.csr_matrix(
        (
            products.reshape(-1),
            indices.reshape(-1),
            np.arange(0, 16 * num_rows + 1, 16, dtype=index_dtype),
        ),
        shape=(num_rows, num_columns),
    )
    return GatherOperatorBlock(lo, matrix, w2)


def _transient_operator_blocks(
    shape: Tuple[int, int, int], coordinates: np.ndarray
) -> Iterator[GatherOperatorBlock]:
    """The operator of *coordinates*, one block alive at a time."""
    _OPERATOR_BUILDS.inc()
    for lo, hi in _chunk_spans(coordinates.shape[1], OPERATOR_CHUNK):
        with trace_span("interp.operator_build", points=hi - lo, resident=False):
            block = _build_operator_block(shape, coordinates, lo, hi)
        yield block


def build_gather_operator(shape: Tuple[int, int, int], coordinates: np.ndarray) -> GatherOperator:
    """Build the resident gather operator of fractional index *coordinates*.

    *coordinates* is ``(3, M)``; every axis wraps periodically.  Built block
    by block, so the only whole-operator arrays are the operator's own.
    """
    _OPERATOR_BUILDS.inc()
    num_points = coordinates.shape[1]
    with trace_span("interp.operator_build", points=num_points, resident=True):
        return GatherOperator(
            tuple(
                _build_operator_block(shape, coordinates, lo, hi)
                for lo, hi in _chunk_spans(num_points, OPERATOR_CHUNK)
            )
        )


def gather_operator_plan(
    shape: Tuple[int, int, int], coordinates: np.ndarray, key: Optional[Hashable] = None
) -> GatherOperatorPlan:
    """Plan a point set for resident gathers: name it, build nothing.

    *key* is the caller's content identity of *coordinates* (a stepper's
    departure points are a pure function of its own pool key); without one
    the coordinates are fingerprinted.
    """
    if key is None:
        key = array_fingerprint(coordinates)
    return GatherOperatorPlan((GATHER_OPERATOR_TAG, tuple(int(n) for n in shape), key))


def _resident_gather_operator(
    plan: GatherOperatorPlan, shape: Tuple[int, int, int], coordinates: np.ndarray
) -> Optional[GatherOperator]:
    """The pooled operator of *plan*, or ``None`` when the budget cannot hold it.

    Decided from the projected bytes, before anything is built.  The live
    pair (forward and backward characteristics) may claim half the pool —
    the other half holds the departure plans and the iterate's gradient
    stack, which an operator that merely *fits* would evict on every sweep.
    A budget of ``0`` therefore never keeps one.
    """
    pool = get_plan_pool()
    projected = projected_gather_operator_nbytes(coordinates.shape[1], shape)
    if RESIDENT_OPERATORS * projected > pool.max_bytes // 2:
        return None
    operator = pool.lookup(plan.key)
    if operator is not None:
        _OPERATOR_HITS.inc()
        return operator
    return pool.get(plan.key, lambda: build_gather_operator(shape, coordinates))


def _padded_coefficients(fields: np.ndarray) -> np.ndarray:
    """Spline coefficients of a ``(B, N1, N2, N3)`` stack, padded along axis 2.

    Returns ``(B, N1*N2*(N3+3))``: each axis-2 row is followed by its first
    three entries again (periodically), so the four axis-2 taps of a point
    are the same flat index in four slices shifted by one.  The coefficients
    are those :func:`scipy.ndimage.map_coordinates` computes internally
    (``spline_filter``, float64, ``grid-wrap``), filtered straight into the
    padded buffer.
    """
    num_fields, n1, n2, n3 = fields.shape
    padded = np.empty((num_fields, n1, n2, n3 + 3))
    wrap = np.arange(n3, n3 + 3) % n3
    for field, out in zip(fields, padded):
        ndimage.spline_filter(field, order=3, output=out[:, :, :n3], mode="grid-wrap")
        out[:, :, n3:] = out[:, :, wrap]
    return padded.reshape(num_fields, -1)


def gather_bspline(
    fields: np.ndarray, coordinates: np.ndarray, plan: Optional[GatherOperatorPlan]
) -> np.ndarray:
    """Tricubic B-spline gather of a ``(B, N1, N2, N3)`` stack; returns ``(B, M)``.

    With a *plan* the operator is fetched from (or built into) the plan
    pool; without one — or when the pool budget cannot hold it — its blocks
    are built, applied and dropped one at a time, once per gather.  Either
    way each block makes one pass over ``windows[n, f, c]``, the coefficient
    of field ``f`` at padded flat index ``n + c`` (four shifted slices of
    the padded coefficients, copied side by side: four times the stack),
    and its product is contracted with the axis-2 weights in a fixed order,
    so the result does not depend on residency, on the block size, or on
    which other fields share the stack.
    """
    shape = fields.shape[1:]
    operator = None if plan is None else _resident_gather_operator(plan, shape, coordinates)
    num_fields = fields.shape[0]
    coefficients = _padded_coefficients(fields)
    span = coefficients.shape[1] - 3
    windows = np.empty((span, num_fields, 4))
    for c in range(4):
        windows[:, :, c] = coefficients[:, c : c + span].T
    windows = windows.reshape(span, 4 * num_fields)
    out = np.empty((num_fields, coordinates.shape[1]))
    blocks = (
        operator.blocks if operator is not None else _transient_operator_blocks(shape, coordinates)
    )
    for block in blocks:
        w2 = block.w2
        product = (block.matrix @ windows).reshape(-1, num_fields, 4)
        for f in range(num_fields):
            value = out[f, block.lo : block.lo + w2.shape[1]]
            np.multiply(product[:, f, 0], w2[0], out=value)
            for c in (1, 2, 3):
                value += product[:, f, c] * w2[c]
    return out


# --------------------------------------------------------------------------- #
# gather plans (frontend-facing)
# --------------------------------------------------------------------------- #
#: What a backend's ``build_plan`` hands the frontend to carry in a plan.
PlanPayload = Union[StencilPlan, GatherOperatorPlan]


@dataclass
class GatherPlan:
    """Cached interpolation data for one fixed set of off-grid points.

    Built once per point set (per velocity, in the semi-Lagrangian scheme)
    by :meth:`repro.transport.interpolation.PeriodicInterpolator.plan` and
    reused by every field interpolated at those points.  ``payload`` is the
    backend-specific planning product: a stencil plan, the scipy engine's
    :class:`GatherOperatorPlan`, or ``None`` for one-shot point sets and
    kernels with nothing to cache (``map_coordinates`` behind ``linear``;
    those still reuse the wrapped coordinates).
    """

    method: str
    backend_name: str
    grid_shape: Tuple[int, int, int]
    output_shape: Tuple[int, ...]
    coordinates: np.ndarray
    payload: Optional[PlanPayload]

    @property
    def num_points(self) -> int:
        return self.coordinates.shape[1]

    @property
    def is_cached(self) -> bool:
        """True when the stencil (indices + weights) is derived once and reused."""
        return self.payload is not None

    @property
    def nbytes(self) -> int:
        """Exact array payload in bytes (plan-pool accounting)."""
        payload_bytes = self.payload.nbytes if self.payload is not None else 0
        return self.coordinates.nbytes + payload_bytes


# --------------------------------------------------------------------------- #
# backends
# --------------------------------------------------------------------------- #
@runtime_checkable
class InterpolationBackend(Protocol):
    """Minimal gather interface every interpolation backend implements.

    ``fields`` is always a stacked ``(B, N1, N2, N3)`` batch so that engines
    which can amortize index computation across fields (the stencil
    executors) receive the whole batch in one call.
    """

    name: str

    def supports_plan(self, method: str) -> bool:
        """True when :meth:`build_plan` caches a stencil for *method*."""
        ...

    def build_plan(
        self,
        grid_shape: Tuple[int, int, int],
        coordinates: np.ndarray,
        method: str,
        key: Optional[Hashable] = None,
    ) -> Optional[PlanPayload]:
        """Precompute the reusable stencil payload (or ``None``).

        *key*, when given, is the caller's content identity of
        *coordinates*: an engine that pools by content uses it instead of
        hashing them.
        """
        ...

    def gather(
        self,
        fields: np.ndarray,
        coordinates: np.ndarray,
        payload: Optional[PlanPayload],
        method: str,
    ) -> np.ndarray:
        """Interpolate a ``(B, N1, N2, N3)`` stack; returns ``(B, M)``.

        ``payload`` is what this backend's :meth:`build_plan` returned for
        *coordinates*, or ``None`` for a one-shot point set.
        """
        ...


class ScipyInterpolationBackend:
    """SciPy engine: sparse gather operator, ``map_coordinates``, stencil executor.

    ``cubic_bspline`` — the solver's default kernel — gathers through the
    sparse gather operator (:func:`gather_bspline`): a planned point set
    derives its indices and weights once and keeps them in the plan pool, a
    one-shot point set derives them block by block and keeps nothing.  It
    agrees with ``map_coordinates(order=3, mode="grid-wrap")`` to rounding
    (same spline coefficients, different summation order).  ``linear`` calls
    :func:`scipy.ndimage.map_coordinates` per field (nothing worth caching:
    8 taps, no prefilter), and ``catmull_rom`` — which scipy has no native
    kernel for — runs through the shared stencil executor.
    """

    name = "scipy"

    @classmethod
    def is_available(cls) -> bool:
        return True

    def supports_plan(self, method: str) -> bool:
        return method != "linear"

    def build_plan(
        self,
        grid_shape: Tuple[int, int, int],
        coordinates: np.ndarray,
        method: str,
        key: Optional[Hashable] = None,
    ) -> Optional[PlanPayload]:
        if method == "catmull_rom":
            return build_stencil_plan(grid_shape, coordinates, method)
        if method == "cubic_bspline":
            return gather_operator_plan(grid_shape, coordinates, key)
        return None

    def gather(
        self,
        fields: np.ndarray,
        coordinates: np.ndarray,
        payload: Optional[PlanPayload],
        method: str,
    ) -> np.ndarray:
        if method == "catmull_rom":
            plan = payload or build_stencil_plan(fields.shape[-3:], coordinates, method)
            return execute_stencil_plan(_as_flat_float64(fields), plan)
        if method == "cubic_bspline":
            return gather_bspline(fields, coordinates, payload)
        return np.stack(
            [
                ndimage.map_coordinates(field, coordinates, order=1, mode="grid-wrap")
                for field in fields
            ],
            axis=0,
        )


class NumpyInterpolationBackend:
    """Vectorized stencil gather engine; every kernel is plannable.

    ``catmull_rom`` and ``linear`` gather the raw field values directly.
    ``cubic_bspline`` first runs the exact periodic prefilter of
    :func:`periodic_bspline_prefilter` (a per-field cost no plan can avoid —
    the coefficients depend on the field) and then gathers with the
    B-spline basis weights, agreeing with the scipy engine to machine
    precision while reusing the cached stencil across fields.
    """

    name = "numpy"

    @classmethod
    def is_available(cls) -> bool:
        return True

    def supports_plan(self, method: str) -> bool:
        return method in SUPPORTED_METHODS

    def build_plan(
        self,
        grid_shape: Tuple[int, int, int],
        coordinates: np.ndarray,
        method: str,
        key: Optional[Hashable] = None,
    ) -> Optional[StencilPlan]:
        return build_stencil_plan(grid_shape, coordinates, method)

    def _prepare(self, fields: np.ndarray, method: str) -> np.ndarray:
        if method == "cubic_bspline":
            fields = periodic_bspline_prefilter(fields)
        return _as_flat_float64(fields)

    def gather(
        self,
        fields: np.ndarray,
        coordinates: np.ndarray,
        payload: Optional[StencilPlan],
        method: str,
    ) -> np.ndarray:
        plan = payload or build_stencil_plan(fields.shape[-3:], coordinates, method)
        return execute_stencil_plan(self._prepare(fields, method), plan)


class NumbaInterpolationBackend(NumpyInterpolationBackend):
    """JIT-compiled stencil executor (auto-detected ``numba`` engine).

    Shares the stencil plans and the B-spline prefilter with the ``numpy``
    backend; only the tap loop is replaced by a compiled per-point kernel,
    which removes the remaining array-temporary traffic entirely.
    """

    name = "numba"

    def __init__(self) -> None:
        if not self.is_available():
            raise BackendUnavailableError(
                "numba is not installed; install the 'numba' extra "
                "(pip install repro-sc16-registration[numba]) to enable this backend"
            )
        import numba

        @numba.njit(parallel=True)
        def _gather(flat_fields, i0, i1, i2, w0, w1, w2, out):
            taps = w0.shape[0]
            num_fields = flat_fields.shape[0]
            num_points = i0.shape[1]
            for m in numba.prange(num_points):
                for a in range(taps):
                    for b in range(taps):
                        iab = i0[a, m] + i1[b, m]
                        wab = w0[a, m] * w1[b, m]
                        for c in range(taps):
                            idx = iab + i2[c, m]
                            w = wab * w2[c, m]
                            for f in range(num_fields):
                                out[f, m] += w * flat_fields[f, idx]

        self._kernel = _gather

    @classmethod
    def is_available(cls) -> bool:
        try:
            import numba  # noqa: F401
        except ImportError:
            return False
        return True

    def gather(
        self,
        fields: np.ndarray,
        coordinates: np.ndarray,
        payload: Optional[StencilPlan],
        method: str,
    ) -> np.ndarray:
        plan = payload or build_stencil_plan(fields.shape[-3:], coordinates, method)
        prepared = self._prepare(fields, method)
        # materialize one cache-sized chunk at a time and hand it to the
        # JIT kernel (disjoint output slices)
        out = np.zeros((prepared.shape[0], plan.num_points))
        for lo, hi in plan.iter_chunks():
            (i0, i1, i2), (w0, w1, w2) = plan.chunk_stencil(lo, hi)
            self._kernel(prepared, i0, i1, i2, w0, w1, w2, out[:, lo:hi])
        return out


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
_REGISTRY: Dict[str, Type] = {}
_INSTANCES: Dict[str, InterpolationBackend] = {}


def register_backend(name: str, cls: Type) -> Type:
    """Register a backend class under *name* (overwrites a prior entry).

    Later PRs (GPU gathers, distributed plan reuse) plug in through this
    hook, exactly like :func:`repro.spectral.backends.register_backend`.
    """
    _REGISTRY[name.lower()] = cls
    _INSTANCES.pop(name.lower(), None)
    return cls


register_backend("scipy", ScipyInterpolationBackend)
register_backend("numpy", NumpyInterpolationBackend)
register_backend("numba", NumbaInterpolationBackend)


def registered_backends() -> Tuple[str, ...]:
    """Names of all registered interpolation backends, available or not."""
    return tuple(sorted(_REGISTRY))


def available_backends() -> Tuple[str, ...]:
    """Names of the registered backends that can run in this environment."""
    return tuple(name for name in registered_backends() if _REGISTRY[name].is_available())


def default_backend_name() -> str:
    """Backend selected by ``REPRO_INTERP_BACKEND`` or the ``"scipy"`` default.

    A name the registry does not know is rejected here with the valid
    choices and the variable that carried it — an environment typo must
    produce a clear error, never silently select something else.
    """
    raw = os.environ.get(BACKEND_ENV_VAR, DEFAULT_BACKEND)
    name = raw.strip().lower() or DEFAULT_BACKEND
    if name not in _REGISTRY:
        raise ValueError(
            f"{BACKEND_ENV_VAR}={raw!r} is not a registered interpolation "
            f"backend; valid choices: {registered_backends()}"
        )
    return name


def get_backend(spec: "str | InterpolationBackend | None" = None) -> InterpolationBackend:
    """Resolve *spec* to an interpolation backend instance.

    Parameters
    ----------
    spec:
        ``None`` (environment variable or the ``"scipy"`` default), a
        registered backend name, or an already-constructed backend instance
        (returned unchanged, enabling custom engines without registration).
    """
    if spec is None:
        spec = default_backend_name()
    if not isinstance(spec, str):
        if not isinstance(spec, InterpolationBackend):
            raise TypeError(
                f"interpolation backend must be a registered name or an object "
                f"implementing the InterpolationBackend protocol, got {type(spec).__name__}"
            )
        return spec
    name = spec.strip().lower()
    if name in _INSTANCES:
        return _INSTANCES[name]
    try:
        cls = _REGISTRY[name]
    except KeyError as exc:
        raise ValueError(
            f"unknown interpolation backend {spec!r}; "
            f"registered backends: {registered_backends()}"
        ) from exc
    if not cls.is_available():
        raise BackendUnavailableError(
            f"interpolation backend {name!r} is registered but not available in "
            f"this environment; available backends: {available_backends()}"
        )
    instance = cls()
    _INSTANCES[name] = instance
    return instance
