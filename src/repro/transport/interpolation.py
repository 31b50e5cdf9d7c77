"""Periodic interpolation at off-grid (semi-Lagrangian) points.

The semi-Lagrangian scheme needs the value of grid fields at irregularly
spaced departure points, which "cannot be done using a FFT, since the
interpolation points can be spaced irregularly between grid points"
(Sec. III-B2).  The paper uses tricubic interpolation because linear
interpolation accumulates too much error over the time steps; so does this
frontend, with one kernel: the interpolating tricubic B-spline
(``cubic_bspline``: prefilter + basis gather, 4th-order accurate for smooth
fields).  The distributed scatter evaluates the local tricubic
(``catmull_rom``) instead, through the same gather operator
(:mod:`repro.parallel.scatter`).

The kernel lives in :mod:`repro.transport.kernels`.  This frontend owns
validation, coordinate wrapping, **gather plans** (the wrapped coordinates
and the name of the gather operator reused across every field interpolated
at one set of departure points), the resident gather operators themselves
(at most two per interpolator — the forward and backward characteristics
of the live velocity — held here, not in the process-wide plan pool, and
released with :meth:`PeriodicInterpolator.release_operators` when a line
search starts and when their solve ends) and the interpolation counters,
which the test-suite pins at ``2*nt`` sweeps per Hessian mat-vec, inside the
paper's ``4*nt`` complexity model.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.observability.metrics import get_metrics_registry
from repro.observability.trace import trace_span
from repro.runtime.plan_pool import get_plan_pool
from repro.spectral.grid import Grid
from repro.transport.kernels import (
    GatherOperator,
    GatherOperatorPlan,
    GatherPlan,
    build_gather_operator,
    gather_cubic,
    projected_gather_operator_nbytes,
)

__all__ = ["PeriodicInterpolator"]

#: Gather operators one interpolator keeps resident: the forward and the
#: backward characteristics of the live velocity, which is what a
#: ``TransportPlan`` structurally has.  Anything older is a dead iterate's.
RESIDENT_OPERATORS = 2

_INTERP_SWEEPS = get_metrics_registry().counter(
    "interp.sweeps", "whole-field interpolation sweeps (one field x one point set)"
).labels()
_INTERP_POINTS = get_metrics_registry().counter(
    "interp.points", "total points interpolated"
).labels()
_OPERATOR_HITS = get_metrics_registry().counter(
    "interp.operator_hits", "planned gathers served by a resident gather operator"
).labels()
_OPERATOR_DISCARDS = get_metrics_registry().counter(
    "interp.operator_discards", "resident gather operators released by their interpolator"
).labels()


@dataclass
class PeriodicInterpolator:
    """Interpolate scalar grid fields at arbitrary points with periodic wrap.

    Parameters
    ----------
    grid:
        Grid on which the interpolated fields are defined.
    """

    grid: Grid

    def __post_init__(self) -> None:
        self._spacing = np.asarray(self.grid.spacing, dtype=np.float64)
        self.points_interpolated = 0
        # the resident gather operators, most recently used last, each with
        # the plan payload that names it (see _resident_operator)
        self._operators: List[Tuple[GatherOperatorPlan, GatherOperator]] = []
        self._operator_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # coordinate handling
    # ------------------------------------------------------------------ #
    def to_index_coordinates(self, points: np.ndarray) -> np.ndarray:
        """Convert physical coordinates to (fractional, periodic) grid indices."""
        points = np.asarray(points, dtype=np.float64)
        if points.shape[0] != 3:
            raise ValueError(
                f"points must be stacked as (3, ...), got leading dimension {points.shape[0]}"
            )
        flat = points.reshape(3, -1)
        q = flat / self._spacing[:, None]
        shape = np.asarray(self.grid.shape, dtype=np.float64)[:, None]
        return np.mod(q, shape)

    # ------------------------------------------------------------------ #
    # planning
    # ------------------------------------------------------------------ #
    def plan(self, points: np.ndarray) -> GatherPlan:
        """Precompute a gather plan for *points* (the paper's planner phase).

        The plan caches the wrapped coordinates and the name of the gather
        operator that will hold their indices and weights, so every field
        interpolated at the same points skips that work.  The planned path is
        bitwise identical to the unplanned one.
        """
        return self._plan(points, reusable=True)

    def _plan(self, points: np.ndarray, reusable: bool) -> GatherPlan:
        """Wrap *points*; name a gather operator only when they will be reused.

        A one-shot point set (``reusable=False``) carries no payload: the
        gather derives its stencil itself and keeps nothing.
        """
        points = np.asarray(points, dtype=np.float64)
        return GatherPlan(
            grid_shape=self.grid.shape,
            output_shape=points.shape[1:],
            coordinates=self.to_index_coordinates(points),
            payload=GatherOperatorPlan() if reusable else None,
        )

    def _check_plan(self, plan: GatherPlan) -> None:
        if plan.grid_shape != self.grid.shape:
            raise ValueError(
                f"gather plan was built for grid {plan.grid_shape}, "
                f"but this interpolator is bound to {self.grid.shape}"
            )

    # ------------------------------------------------------------------ #
    # gathering (counting lives here, never in the kernels)
    # ------------------------------------------------------------------ #
    def _resident_operator(self, plan: GatherPlan) -> Optional[GatherOperator]:
        """The operator of *plan*'s points, built on first use; ``None`` if not resident.

        The two most recently used operators stay; the third-most-recent is
        released *before* a new one is built, so three are never alive.  The
        live pair may claim half the plan-pool budget
        (``REPRO_PLAN_POOL_BYTES``) — decided from the projected bytes,
        before anything is built; otherwise, and at a budget of ``0``, every
        sweep builds its blocks transiently (same bits).
        """
        name = plan.payload
        with self._operator_lock:
            for index, (owner, operator) in enumerate(self._operators):
                if owner is name:
                    self._operators.append(self._operators.pop(index))
                    _OPERATOR_HITS.inc()
                    return operator
            projected = projected_gather_operator_nbytes(plan.num_points, self.grid.shape)
            if RESIDENT_OPERATORS * projected > get_plan_pool().max_bytes // 2:
                return None
            while len(self._operators) >= RESIDENT_OPERATORS:
                self._operators.pop(0)
                _OPERATOR_DISCARDS.inc()
            operator = build_gather_operator(self.grid.shape, plan.coordinates, "cubic_bspline")
            self._operators.append((name, operator))
            return operator

    @property
    def resident_operators(self) -> int:
        """How many gather operators this interpolator holds (at most two)."""
        with self._operator_lock:
            return len(self._operators)

    def release_operators(self) -> None:
        """Drop every resident gather operator (the solve that needed them is over)."""
        with self._operator_lock:
            _OPERATOR_DISCARDS.inc(len(self._operators))
            self._operators.clear()

    def _gather(self, fields: np.ndarray, plan: GatherPlan) -> np.ndarray:
        batch = fields.shape[0]
        self.points_interpolated += batch * plan.num_points
        _INTERP_SWEEPS.inc(batch)
        _INTERP_POINTS.inc(batch * plan.num_points)
        with trace_span("interp.gather", count=batch, points=batch * plan.num_points):
            operator = None if plan.payload is None else self._resident_operator(plan)
            return gather_cubic(fields, plan.coordinates, "cubic_bspline", operator)

    def _check_stack(self, fields: np.ndarray) -> np.ndarray:
        fields = np.asarray(fields)
        if fields.ndim != 4 or fields.shape[1:] != self.grid.shape:
            raise ValueError(
                f"stacked fields have shape {fields.shape}, "
                f"expected (B, {', '.join(map(str, self.grid.shape))})"
            )
        return fields

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def __call__(self, field: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Interpolate *field* at *points*.

        Parameters
        ----------
        field:
            Scalar field of shape ``grid.shape``.
        points:
            Physical coordinates stacked as ``(3, ...)``; any trailing shape
            is allowed and preserved in the output.
        """
        field = np.asarray(field)
        if field.shape != self.grid.shape:
            raise ValueError(
                f"field has shape {field.shape}, expected {self.grid.shape}"
            )
        plan = self._plan(points, reusable=False)
        values = self._gather(field[None], plan)[0]
        return values.reshape(plan.output_shape).astype(self.grid.dtype, copy=False)

    def interpolate_planned(self, field: np.ndarray, plan: GatherPlan) -> np.ndarray:
        """Interpolate *field* at the points of a precomputed *plan*."""
        field = np.asarray(field)
        if field.shape != self.grid.shape:
            raise ValueError(
                f"field has shape {field.shape}, expected {self.grid.shape}"
            )
        self._check_plan(plan)
        values = self._gather(field[None], plan)[0]
        return values.reshape(plan.output_shape).astype(self.grid.dtype, copy=False)

    def interpolate_many(self, fields: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Interpolate a ``(B, N1, N2, N3)`` stack at *points* in one gather.

        All fields share the index computation of one gather pass (and, on
        planned paths, the cached stencil), which is the batching the paper
        exploits for the velocity components of the RK2 trace and the
        state/adjoint histories.
        """
        fields = self._check_stack(fields)
        plan = self._plan(points, reusable=False)
        values = self._gather(fields, plan)
        out_shape = (values.shape[0], *plan.output_shape)
        return values.reshape(out_shape).astype(self.grid.dtype, copy=False)

    def interpolate_many_planned(self, fields: np.ndarray, plan: GatherPlan) -> np.ndarray:
        """Batched interpolation of a field stack at the points of *plan*."""
        fields = self._check_stack(fields)
        self._check_plan(plan)
        values = self._gather(fields, plan)
        out_shape = (values.shape[0], *plan.output_shape)
        return values.reshape(out_shape).astype(self.grid.dtype, copy=False)
