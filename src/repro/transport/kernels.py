"""The gather kernels of the semi-Lagrangian scheme and their cached plans.

The paper's per-iteration cost has two dominant kernels: spectral transforms
and the off-grid tricubic interpolation of the semi-Lagrangian scheme
(roughly ``10 x 64`` flops per point, ``4*nt`` sweeps per Hessian mat-vec
in Sec. III-C2/C4; ``2*nt`` here: the semi-Lagrangian step merges a
grid-given source into the field it gathers, and the adjoint's ``div v``
source is a per-velocity growth factor).  This module evaluates that second
kernel and precomputes **gather plans** that cache what a fixed point set
needs, so that every field interpolated at the same departure points
(state, adjoint, both incremental equations, all time steps of one
velocity) reuses it — the paper's "interpolation planner".

One engine evaluates both cubic kernels: the **sparse gather operator**
(below; :func:`build_gather_operator` builds it, :func:`gather_cubic`
applies it), a :mod:`scipy.sparse` CSR product whose indices and weights a
planned point set derives once per velocity, not once per field per sweep.

``cubic_bspline``
    The solver's kernel, on the periodic B-spline prefilter of each field:
    three dense products, one per axis, with that axis's inverse of the
    ``[1/6, 4/6, 1/6]`` circulant (:func:`_prefilter_factor`).
``catmull_rom``
    The paper's local tricubic on the raw samples: the distributed
    scatter's kernel (:data:`repro.parallel.scatter.SCATTER_KERNEL`), built
    without wrapping on each owner's ghosted block.

Interpolation *counting* stays in
:class:`repro.transport.interpolation.PeriodicInterpolator`, which pins the
``2*nt`` sweeps per mat-vec (against the paper's ``4*nt``).

Sparse gather operator
----------------------
Per point, one 16-nonzero CSR row holds the axis-0 x axis-1 weight products
``w0[a] * w1[b]`` against the flat index of ``(i0+a-1, i1+b-1, i2)`` —
wrapped periodically, or, on a ghosted block, read as is
(:class:`GatherOperator`, ~228 bytes per point).  The operator is applied
as ``matrix @ windows``, where ``windows[n, f, c]`` is the coefficient of
field ``f`` at flat index ``n`` moved by ``c - 1`` along axis 2
(wrapped): one ``np.take`` of the four axis-2 taps writes it for the whole
stack (:func:`_windows`).  An explicit fixed-order 4-term contraction with
the axis-2 weights follows — all fields of a stack share one pass over the
stencil and a batched gather is bitwise equal to scalar ones.  (Four
products, one per tap, need no windows and win while an operator block is
cache-hot; inside a solve they re-read every block ``4 B`` times and lose,
``BENCH_18.json``.)
Planned point sets keep their operator resident in
the :class:`~repro.transport.interpolation.PeriodicInterpolator` that
gathers them (at most two per interpolator); one-shot point sets — and
planned ones the residency budget cannot hold — build it block by block and
keep nothing.  Resident and transient gathers run the same blocks and are
bitwise identical.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.observability.metrics import get_metrics_registry
from repro.observability.trace import trace_span

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
    :func:`_prefilter_factor`) reproduces the interpolating tricubic
    B-spline of SciPy's ``map_coordinates`` with ``order=3`` on
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


#: cubic kernel name -> per-axis weights at the stencil offsets ``-1 .. 2``
_CUBIC_WEIGHTS: Dict[str, Callable] = {
    "cubic_bspline": bspline_weights,
    "catmull_rom": catmull_rom_weights,
}


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


@functools.lru_cache(maxsize=64)
def _prefilter_factor(n: int) -> np.ndarray:
    """The periodic cubic B-spline prefilter along an axis of length *n*, read-only.

    The interpolating B-spline's coefficients ``c`` of samples ``f`` solve
    ``(c[k-1] + 4 c[k] + c[k+1]) / 6 = f[k]`` with wrapped neighbours, so
    the prefilter is the inverse of that ``n x n`` circulant — a dense
    ``n x n`` product per axis, ``O(n)`` per point (on ``n = 1`` and
    ``n = 2`` both neighbours fold onto the same entries, as they do in
    SciPy's ``grid-wrap`` spline filter).
    """
    identity = np.eye(n)
    neighbours = np.roll(identity, 1, axis=0) + np.roll(identity, -1, axis=0)
    factor = np.linalg.inv((4.0 * identity + neighbours) / 6.0)
    factor.setflags(write=False)
    return factor


@functools.lru_cache(maxsize=64)
def _window_taps(n3: int, num_fields: int) -> np.ndarray:
    """``f * n3 + (j + c - 1) % n3`` at ``[j, f, c]``, read-only.

    The column of an ``(N1*N2, B*N3)`` coefficient stack (the fields' axis-2
    rows side by side) that the window entry ``(j, f, c)`` reads: the four
    axis-2 taps of every field, wrapped.
    """
    taps = (np.arange(n3)[:, None, None] + np.arange(-1, 3)) % n3
    taps = taps + n3 * np.arange(num_fields)[:, None]
    taps.setflags(write=False)
    return taps


# --------------------------------------------------------------------------- #
# sparse gather operator (both cubic kernels)
# --------------------------------------------------------------------------- #
#: Points per operator block.  A block is the unit of building and applying:
#: its build scratch and its ``(m, 4 B)`` product stay under a few MB
#: whatever the grid size, and a one-shot gather never holds more than one
#: block.  Gather time is flat from 2k to 64k points per block (32^3, 64^3);
#: peak RSS of a 32^3 solve grows by 7 MB from 4k to 32k.
OPERATOR_CHUNK = 8192

_OPERATOR_BUILDS = get_metrics_registry().counter(
    "interp.operator_builds", "gather operators built (resident or block-transient)"
).labels()


@dataclass(frozen=True)
class GatherOperatorBlock:
    """Rows ``[lo, lo + m)`` of a gather operator.

    ``matrix`` is an ``(m, N1*N2*N3)`` CSR matrix with 16 stored values per
    row, in tap order ``(a, b)``: ``w0[a] * w1[b]`` at the flat index of
    ``(i0+a-1, i1+b-1, i2)`` (wrapped when the axes wrap), the row of the
    windows (:func:`_windows`) that holds the point's four axis-2 taps;
    ``w2`` holds the ``(4, m)`` axis-2 weights the product is contracted
    with.
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
    def num_points(self) -> int:
        """Rows of the operator: the points it gathers at."""
        return sum(block.w2.shape[1] for block in self.blocks)

    @property
    def nbytes(self) -> int:
        """Exact array payload in bytes."""
        return sum(block.nbytes for block in self.blocks)


class GatherOperatorPlan:
    """What a :class:`GatherPlan` carries for the operator: a name, no bytes.

    The operator itself is built on the first planned gather and held by the
    interpolator that gathered it, which recognizes its plans by this
    object's identity.
    """

    __slots__ = ()

    nbytes = 0


def _operator_index_dtype(shape: Tuple[int, int, int]) -> np.dtype:
    """int32 while every flat index fits, like :mod:`scipy.sparse` itself."""
    length = shape[0] * shape[1] * shape[2]
    return np.dtype(np.int32 if length <= np.iinfo(np.int32).max else np.int64)


def projected_gather_operator_nbytes(num_points: int, shape: Tuple[int, int, int]) -> int:
    """Bytes a resident :class:`GatherOperator` will report, before building it."""
    index_bytes = _operator_index_dtype(shape).itemsize
    num_blocks = -(-num_points // OPERATOR_CHUNK)
    # per point: 16 products + 4 axis-2 weights, 16 indices + 1 row pointer
    return num_points * (20 * 8 + 17 * index_bytes) + num_blocks * index_bytes


def _build_operator_block(
    shape: Tuple[int, int, int],
    coordinates: np.ndarray,
    lo: int,
    hi: int,
    kernel: str,
    wrap: bool,
) -> GatherOperatorBlock:
    """Indices and weights of the points ``[lo, hi)``, derived once.

    With *wrap* every axis is periodic (the axis-2 taps wrap in the
    windows).  Without it the caller guarantees the whole stencil lies
    inside the array (the ghosted blocks of :mod:`repro.parallel.scatter`),
    and the indices are read as they are.
    """
    chunk = coordinates[:, lo:hi]
    base = np.floor(chunk).astype(np.intp)
    frac = chunk - base
    weight_fn = _CUBIC_WEIGHTS[kernel]
    strides = (shape[1] * shape[2], shape[2], 1)
    offsets = np.arange(-1, 3, dtype=base.dtype)[:, None]
    index_parts = []
    for d, reached in enumerate((base[0] + offsets, base[1] + offsets, base[2])):
        if wrap:
            # one table read per tap instead of an integer division
            index_parts.append(_wrapped_index_parts(shape[d], strides[d])[reached + 1])
        else:
            index_parts.append(reached * strides[d])
    rows0, rows1, column2 = index_parts
    w0, w1, w2 = (np.stack(weight_fn(frac[d]), axis=0) for d in range(3))
    num_rows, num_columns = hi - lo, shape[0] * shape[1] * shape[2]
    index_dtype = _operator_index_dtype(shape)
    rows0 = rows0.astype(index_dtype)
    rows1 = (rows1 + column2).astype(index_dtype)
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
    shape: Tuple[int, int, int], coordinates: np.ndarray, kernel: str, wrap: bool
) -> Iterator[GatherOperatorBlock]:
    """The operator of *coordinates*, one block alive at a time."""
    _OPERATOR_BUILDS.inc()
    for lo, hi in _chunk_spans(coordinates.shape[1], OPERATOR_CHUNK):
        with trace_span("interp.operator_build", points=hi - lo, resident=False):
            block = _build_operator_block(shape, coordinates, lo, hi, kernel, wrap)
        yield block


def build_gather_operator(
    shape: Tuple[int, int, int], coordinates: np.ndarray, kernel: str, wrap: bool = True
) -> GatherOperator:
    """Build the resident gather operator of fractional index *coordinates*.

    *coordinates* is ``(3, M)`` and *kernel* one of the cubic kernels.  With
    *wrap* every axis wraps periodically; without it the whole stencil of
    every point must lie inside an array of *shape* (a ghosted block).
    Built block by block, so the only whole-operator arrays are the
    operator's own.
    """
    _OPERATOR_BUILDS.inc()
    num_points = coordinates.shape[1]
    with trace_span("interp.operator_build", points=num_points, resident=True):
        return GatherOperator(
            tuple(
                _build_operator_block(shape, coordinates, lo, hi, kernel, wrap)
                for lo, hi in _chunk_spans(num_points, OPERATOR_CHUNK)
            )
        )


def _windows(fields: np.ndarray, kernel: str) -> np.ndarray:
    """The ``(N1*N2*N3, 4 B)`` windows of a ``(B, N1, N2, N3)`` stack.

    ``windows[n, 4 f + c]`` is the kernel coefficient of field ``f`` at flat
    index ``n`` moved by ``c - 1`` along axis 2, wrapped.  For
    ``cubic_bspline`` the coefficients are each field's periodic B-spline
    prefilter, three BLAS products with the axes' cached factors
    (:func:`_prefilter_factor`), the last written straight into an
    ``(N1*N2, B, N3)`` stack (the fields' axis-2 rows side by side);
    ``catmull_rom`` copies the samples there.  One ``np.take`` of the four
    wrapped axis-2 taps then writes the windows.  Each field takes the same
    steps whatever the stack, so batched windows are bitwise the scalar
    ones.
    """
    num_fields, n1, n2, n3 = fields.shape
    coefficients = np.empty((n1 * n2, num_fields, n3))
    if kernel == "cubic_bspline":
        p0, p1, p2 = (_prefilter_factor(n) for n in (n1, n2, n3))
        along0 = np.empty((n1, n2 * n3))
        along1 = np.empty((n1, n2, n3))
        for f, field in enumerate(fields):
            field = np.asarray(field, dtype=np.float64).reshape(n1, n2 * n3)
            np.matmul(p0, field, out=along0)
            np.matmul(p1, along0.reshape(n1, n2, n3), out=along1)
            np.matmul(along1.reshape(n1 * n2, n3), p2.T, out=coefficients[:, f])
    else:
        coefficients[...] = fields.reshape(num_fields, n1 * n2, n3).transpose(1, 0, 2)
    windows = np.take(
        coefficients.reshape(n1 * n2, num_fields * n3), _window_taps(n3, num_fields), axis=1
    )
    return windows.reshape(n1 * n2 * n3, 4 * num_fields)


def gather_cubic(
    fields: np.ndarray,
    coordinates: Optional[np.ndarray],
    kernel: str,
    operator: Optional[GatherOperator] = None,
) -> np.ndarray:
    """Tricubic gather of a ``(B, N1, N2, N3)`` stack; returns ``(B, M)``.

    With the resident *operator* its blocks are applied (*coordinates* may
    then be ``None``); without one the periodic operator of *coordinates*
    is built, applied and dropped block by block, once per gather.  Either
    way each block makes one pass over the windows (:func:`_windows`, four
    times the stack), and its product is contracted with the axis-2
    weights in a fixed order, so the result does not depend on residency,
    on the block size, or on which other fields share the stack.
    """
    shape = fields.shape[1:]
    num_fields = fields.shape[0]
    windows = _windows(fields, kernel)
    if operator is not None:
        num_points, blocks = operator.num_points, operator.blocks
    else:
        num_points = coordinates.shape[1]
        blocks = _transient_operator_blocks(shape, coordinates, kernel, True)
    out = np.empty((num_fields, num_points))
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
@dataclass
class GatherPlan:
    """Cached interpolation data for one fixed set of off-grid points.

    Built once per point set (per velocity, in the semi-Lagrangian scheme)
    by :meth:`repro.transport.interpolation.PeriodicInterpolator.plan` and
    reused by every field interpolated at those points.  ``payload`` names
    the point set's gather operator (a :class:`GatherOperatorPlan`), or is
    ``None`` for a one-shot point set, whose gather builds its operator
    block by block and keeps nothing.
    """

    grid_shape: Tuple[int, int, int]
    output_shape: Tuple[int, ...]
    coordinates: np.ndarray
    payload: Optional[GatherOperatorPlan]

    @property
    def num_points(self) -> int:
        return self.coordinates.shape[1]

    @property
    def nbytes(self) -> int:
        """Exact array payload in bytes: the coordinates (the payload has none)."""
        return self.coordinates.nbytes
