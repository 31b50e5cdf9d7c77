"""Distributed semi-Lagrangian interpolation (the "scatter" phase).

Implements Algorithm 1 of the paper.  For every regular grid point ``x``
owned by rank ``r`` the semi-Lagrangian scheme needs the field value at the
departure point ``X``, which may fall into the subdomain of a different rank
(the *owner*).  The plan therefore

1. computes, for every local departure point, the owner rank
   (``owner(X)``),
2. sends the points to their owners (``alltoallv`` — the scatter phase,
   done once per velocity field since the points only change when the
   velocity changes),
3. lets every owner evaluate the tricubic interpolant on its ghosted local
   block (line 3 of Algorithm 1; the ghost exchange is line 1),
4. returns the interpolated values to the ranks that asked for them
   (``alltoallv``, once per transported field per time step).

Every owner evaluates the ``"catmull_rom"`` kernel through the serial
gather operator (:func:`repro.transport.kernels.build_gather_operator`),
built without wrapping on its ghosted block, so the result agrees with the
serial :class:`repro.transport.interpolation.PeriodicInterpolator` with that
kernel to rounding, which is what the test-suite asserts.

The whole planning product — the owner map, one resident operator per
owner over the points it received (in requester order) and the
per-requester point counts that split its values for the return — depends
only on the departure points, the grid and the decomposition, so it is
pooled **as one unit** (:class:`ScatterPlanData`) in the shared plan pool
(:mod:`repro.runtime.plan_pool`), keyed by content.  Re-creating a plan for
an unchanged velocity — a re-built distributed solver, the backward
characteristics of an adjoint sweep — is a single warm hit with *zero*
``alltoallv`` setup: no owner computation, no point scatter, no operator
builds.  Every ``interpolate_many`` call then only exchanges ghosts and
applies the cached operators.

The evaluation side batches too:
:meth:`ScatterInterpolationPlan.interpolate_many` ships a whole
``(B, ...)`` stack of fields through **one** ghost-exchange round, **one**
gather per owner and **one** value-return ``alltoallv`` — the same message
counts as a single field with ``B`` times the payload — mirroring how the
serial ``interpolate_many`` batches gathers.  A single field is the
``B = 1`` stack ``block[None]`` on every rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.parallel.comm import SimulatedCommunicator
from repro.parallel.ghost import exchange_ghost_layers_batched
from repro.parallel.pencil import PencilDecomposition
from repro.runtime.plan_pool import array_fingerprint, get_plan_pool
from repro.spectral.grid import Grid
from repro.transport.kernels import GatherOperator, build_gather_operator, gather_cubic

#: Halo width required by the 4-point (tricubic) stencil.
GHOST_WIDTH = 2

#: The kernel every owner evaluates on its ghosted block.
SCATTER_KERNEL = "catmull_rom"

#: Leading key element of pooled scatter-plan entries.
SCATTER_PLAN_TAG = "scatter-plan"


@dataclass
class ScatterPlanData:
    """The pooled content of one scatter plan (communicator independent).

    Everything the ``alltoallv`` setup produces for one set of departure
    points: the owner of every local point, one resident gather operator
    per owner over the points it received — requester by requester, in the
    order they arrived, which is the layout the value return travels back
    along — and ``counts[owner, requester]``, how many of them came from
    each requester.  None of it references the communicator, so one pooled
    entry serves any number of re-created
    :class:`ScatterInterpolationPlan` instances, each with its own ledger.

    Because the product is pooled as one unit, it is also evicted (or
    oversize-rejected) as one unit: a plan larger than the whole pool
    budget caches nothing, and every re-creation then redoes the full
    setup.  Size ``REPRO_PLAN_POOL_BYTES`` for distributed runs accordingly
    — one entry is roughly ``(8 + 228) * N^3`` bytes (the owner map, then
    the operators' 16 int32 indices, 16 float64 products and 4 float64
    axis-2 weights per point).
    """

    owner_of_point: List[np.ndarray]
    operators: List[Optional[GatherOperator]]
    counts: np.ndarray

    @property
    def operator_builds(self) -> int:
        """Operators the miss path built: one per owner that received points."""
        return sum(op is not None for op in self.operators)

    @property
    def nbytes(self) -> int:
        """Exact array payload in bytes (plan-pool accounting)."""
        total = sum(owner.nbytes for owner in self.owner_of_point) + self.counts.nbytes
        return total + sum(op.nbytes for op in self.operators if op is not None)


@dataclass
class ScatterInterpolationPlan:
    """Owner/worker interpolation plan for a fixed set of departure points.

    Parameters
    ----------
    grid:
        Global grid (provides the spacing used to map physical coordinates
        to fractional grid indices).
    decomposition:
        Pencil decomposition of the grid (axes 0 and 1 split).
    comm:
        Simulated communicator (charged for the scatter and the ghost
        exchange).
    departure_points:
        Per-rank arrays of physical coordinates, shape ``(3, M_r)``; the
        points rank ``r`` needs values at (one per locally owned grid point
        in the semi-Lagrangian scheme, but any point set is accepted).

    After construction, ``operator_builds`` counts the operators this
    construction built: 0 when the whole planning product came warm from
    the pool (the construction then did no ``alltoallv``).  A pool budget
    of ``0`` (:func:`repro.runtime.plan_pool.configure_plan_pool`) keeps
    nothing, so every plan is built afresh.
    """

    grid: Grid
    decomposition: PencilDecomposition
    comm: SimulatedCommunicator
    departure_points: Sequence[np.ndarray]
    operator_builds: int = field(init=False, default=0)
    _data: ScatterPlanData = field(init=False, repr=False)

    def __post_init__(self) -> None:
        deco = self.decomposition
        if len(self.departure_points) != deco.num_tasks:
            raise ValueError(
                f"expected one point array per rank ({deco.num_tasks}), "
                f"got {len(self.departure_points)}"
            )
        points: List[np.ndarray] = []
        for rank in range(deco.num_tasks):
            pts = np.asarray(self.departure_points[rank], dtype=np.float64)
            if pts.ndim != 2 or pts.shape[0] != 3:
                raise ValueError(
                    f"departure points of rank {rank} must have shape (3, M), got {pts.shape}"
                )
            points.append(np.ascontiguousarray(pts))

        # the entire planning product is keyed by content: same grid, same
        # decomposition, same departure points -> same routing and operators,
        # no matter which solver or communicator asks
        built: List[bool] = []

        def build() -> ScatterPlanData:
            built.append(True)
            return self._build_plan_data(points)

        key = (SCATTER_PLAN_TAG, self.grid, deco, array_fingerprint(*points))
        data = get_plan_pool().get(key, build)
        # builds executed during *this* construction (0 on a warm hit)
        self.operator_builds = data.operator_builds if built else 0
        self._data = data

    def _build_plan_data(self, points: List[np.ndarray]) -> ScatterPlanData:
        """Owner map + alltoallv point scatter + per-owner operators (the miss path)."""
        deco = self.decomposition
        spacing = np.asarray(self.grid.spacing)[:, None]
        shape = np.asarray(self.grid.shape, dtype=np.float64)[:, None]

        owner_of_point: List[np.ndarray] = []
        send: List[List[np.ndarray]] = [
            [np.empty((3, 0)) for _ in range(deco.num_tasks)] for _ in range(deco.num_tasks)
        ]
        for rank in range(deco.num_tasks):
            q = np.mod(points[rank] / spacing, shape)  # fractional global grid indices
            # floating-point mod of a value that is a tiny negative multiple of
            # the period can return exactly `shape`; wrap it back to 0
            q = np.where(q >= shape, q - shape, q)
            owner = deco.owner_of_indices(np.floor(q).astype(np.intp) % shape.astype(np.intp))
            owner_of_point.append(owner)
            for other in range(deco.num_tasks):
                send[rank][other] = q[:, owner == other]
        # scatter phase: ship the points to their owners (once per velocity
        # *content* — a pooled plan never repeats this)
        points_by_owner = self.comm.alltoallv(send, category="interp_scatter")
        counts = np.array(
            [[chunk.shape[1] for chunk in received] for received in points_by_owner],
            dtype=np.int64,
        )

        # planning phase: each owner builds one operator over everything it
        # received; the routed coordinates die with this call
        operators: List[Optional[GatherOperator]] = [None] * deco.num_tasks
        for owner in range(deco.num_tasks):
            if not counts[owner].any():
                continue
            q = np.concatenate(points_by_owner[owner], axis=1)
            slices = deco.local_slices(owner)
            offsets = np.array([s.start or 0 for s in slices], dtype=np.float64)[:, None]
            extended_shape = tuple(n + 2 * GHOST_WIDTH for n in deco.local_shape(owner))
            # the owner test guarantees floor(q) lies in the owner's index
            # range, so the shift into the ghost-extended block needs no
            # periodic unwrapping — but its floating-point sum may round a
            # point one ulp below a cell boundary up onto it, and the
            # stencil of that next cell can reach past the ghost layer:
            # keep every point inside the cell of floor(q)
            next_cell = np.floor(q) - offsets + (GHOST_WIDTH + 1)
            local = np.minimum(q - offsets + GHOST_WIDTH, np.nextafter(next_cell, 0.0))
            operators[owner] = build_gather_operator(
                extended_shape, local, SCATTER_KERNEL, wrap=False
            )
        return ScatterPlanData(owner_of_point, operators, counts)

    # ------------------------------------------------------------------ #
    @property
    def num_tasks(self) -> int:
        return self.decomposition.num_tasks

    def local_point_counts(self) -> List[int]:
        """Number of points each owner has to interpolate (load-balance view)."""
        return [
            operator.num_points if operator is not None else 0
            for operator in self._data.operators
        ]

    # ------------------------------------------------------------------ #
    def interpolate_many(self, block_stacks: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Interpolate a whole stack of distributed fields in one round trip.

        The distributed twin of the serial ``interpolate_many``: every rank
        contributes a ``(B, n1, n2, n3)`` stack of local blocks (one common
        batch size ``B``), and all ``B`` fields move through **one** ghost
        exchange round and **one** value-return ``alltoallv`` — the same
        message counts as a single field, with ``B`` times the payload.
        Each owner applies its cached operator once for the whole batch (one
        index computation serves every field, the serial batching win) and
        splits the values by requester.  Per-field values are bitwise
        identical to ``B`` separate ``B = 1`` calls; only the ledger's
        latency story changes.

        Parameters
        ----------
        block_stacks:
            Per-rank ``(B, n1, n2, n3)`` stacks (pencil blocks) of the
            fields to interpolate.

        Returns
        -------
        list of numpy.ndarray
            For every rank, a ``(B, M_r)`` array of interpolated values at
            its original departure points, in their original order.
        """
        deco = self.decomposition
        if len(block_stacks) != deco.num_tasks:
            raise ValueError(
                f"expected {deco.num_tasks} block stacks, got {len(block_stacks)}"
            )
        stacks = [np.asarray(stack) for stack in block_stacks]
        for rank, stack in enumerate(stacks):
            if stack.ndim != 4:
                raise ValueError(
                    f"block stack of rank {rank} must be (B, n1, n2, n3), "
                    f"got shape {stack.shape}"
                )
        batch = stacks[0].shape[0]

        # line 1 of Algorithm 1: synchronize the ghost layers — one
        # neighbour round for the whole batch (shape validation included)
        extended = exchange_ghost_layers_batched(stacks, deco, GHOST_WIDTH, self.comm)

        # line 3: every owner applies its cached (non-wrapping) operator —
        # the serial kernel's engine, planned once per departure-point
        # content — to the whole batch, then splits the values by requester
        data = self._data
        results_back: List[List[np.ndarray]] = [
            [np.empty((batch, 0)) for _ in range(deco.num_tasks)]
            for _ in range(deco.num_tasks)
        ]
        for owner, operator in enumerate(data.operators):
            if operator is None:
                continue
            values = gather_cubic(extended[owner], None, SCATTER_KERNEL, operator)
            results_back[owner] = np.split(values, np.cumsum(data.counts[owner])[:-1], axis=1)

        # line 4: one alltoallv returns every field's values together
        returned = self.comm.alltoallv(results_back, category="interp_return")

        output: List[np.ndarray] = []
        for rank in range(deco.num_tasks):
            owner = data.owner_of_point[rank]
            n_points = owner.shape[0]
            values = np.empty((batch, n_points), dtype=np.float64)
            for source in range(deco.num_tasks):
                mask = owner == source
                if np.any(mask):
                    values[:, mask] = returned[rank][source]
            output.append(values)
        return output
