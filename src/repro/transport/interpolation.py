"""Periodic interpolation at off-grid (semi-Lagrangian) points.

The semi-Lagrangian scheme needs the value of grid fields at irregularly
spaced departure points, which "cannot be done using a FFT, since the
interpolation points can be spaced irregularly between grid points"
(Sec. III-B2).  The paper uses tricubic interpolation because linear
interpolation accumulates too much error over the time steps.

Three interpolation kernels are provided:

``"cubic_bspline"`` (default)
    Interpolating tricubic B-spline (prefilter + basis gather), 4th-order
    accurate for smooth fields.
``"catmull_rom"``
    Tricubic convolution (Catmull-Rom kernel, the classical "tricubic
    interpolation" of the paper, 64 coefficients per point).  This is the
    kernel re-used verbatim by the distributed interpolation in
    :mod:`repro.parallel`, where each rank evaluates it on its local
    ghosted block.
``"linear"``
    Trilinear interpolation, provided as the ablation baseline
    (``benchmarks/bench_ablation_interpolation.py``).

The *engine* evaluating a kernel is pluggable (``scipy``, ``numpy``,
``numba`` — see :mod:`repro.transport.kernels`), selected per constructor,
via ``REPRO_INTERP_BACKEND``, or the ``--interp-backend`` CLI flag.  This
frontend owns validation, coordinate wrapping, **gather plans** (the cached
64-weight/index stencils reused across every field interpolated at one set
of departure points), the residency bound of the scipy engine's gather
operators (at most two per interpolator — the forward and backward
characteristics of the live velocity) and the interpolation counters;
counting never happens in the backends, so the counters — which the
test-suite pins at ``2*nt`` sweeps per Hessian mat-vec, inside the paper's
``4*nt`` complexity model — are exactly identical no matter which engine
gathers.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Hashable, Optional

import numpy as np

from repro.observability.metrics import get_metrics_registry
from repro.observability.trace import trace_span
from repro.runtime.plan_pool import get_plan_pool
from repro.spectral.grid import Grid
from repro.transport.kernels import (
    RESIDENT_OPERATORS,
    SUPPORTED_METHODS,
    GatherOperatorPlan,
    GatherPlan,
    InterpolationBackend,
    catmull_rom_weights,
    get_backend,
    linear_weights,
)

__all__ = [
    "PeriodicInterpolator",
    "TRICUBIC_FLOPS_PER_POINT",
    "catmull_rom_weights",
    "linear_weights",
]

_SUPPORTED_METHODS = SUPPORTED_METHODS

#: Number of floating point operations per interpolated point for the
#: tricubic kernel; the paper estimates "roughly 10 x 64" flops per point
#: (Sec. III-C2).  Used by the performance model.
TRICUBIC_FLOPS_PER_POINT = 640

_INTERP_SWEEPS = get_metrics_registry().counter(
    "interp.sweeps", "whole-field interpolation sweeps (one field x one point set)"
).labels()
_INTERP_POINTS = get_metrics_registry().counter(
    "interp.points", "total points interpolated"
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
    method:
        One of ``"cubic_bspline"``, ``"catmull_rom"`` or ``"linear"``.
    backend:
        Gather engine: a registered backend name (``"scipy"``, ``"numpy"``,
        ``"numba"``), a backend instance, or ``None`` for the
        ``REPRO_INTERP_BACKEND`` / ``"scipy"`` default (see
        :func:`repro.transport.kernels.get_backend`).
    """

    grid: Grid
    method: str = "cubic_bspline"
    backend: "str | InterpolationBackend | None" = None

    def __post_init__(self) -> None:
        if self.method not in _SUPPORTED_METHODS:
            raise ValueError(
                f"unknown interpolation method {self.method!r}; "
                f"expected one of {_SUPPORTED_METHODS}"
            )
        self.backend = get_backend(self.backend)
        self._spacing = np.asarray(self.grid.spacing, dtype=np.float64)
        self.points_interpolated = 0
        # pool keys of the gather operators this interpolator touched last,
        # most recent last (see _retain_operator)
        self._operator_keys: list = []
        self._operator_lock = threading.Lock()

    @property
    def backend_name(self) -> str:
        """Name of the active gather engine."""
        return self.backend.name

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
    def plan(self, points: np.ndarray, key: Optional[Hashable] = None) -> GatherPlan:
        """Precompute a gather plan for *points* (the paper's planner phase).

        The plan caches the wrapped coordinates and — for engines with an
        explicit stencil — the base indices and per-axis kernel weights (or
        the key of the gather operator that holds them), so every field
        interpolated at the same points skips that work.  The planned path
        is bitwise identical to the unplanned one.  A caller that already
        holds a content identity of *points* (the stepper: its departure
        points are a function of its own pool key) passes it as *key*;
        otherwise an engine that pools by content hashes the coordinates.
        """
        return self._plan(points, reusable=True, key=key)

    def _plan(
        self, points: np.ndarray, reusable: bool, key: Optional[Hashable] = None
    ) -> GatherPlan:
        """Wrap *points*; let the backend plan them only when they will be reused.

        A one-shot point set (``reusable=False``) carries no payload: the
        backend derives its stencil inside the gather and keeps nothing.
        """
        points = np.asarray(points, dtype=np.float64)
        coordinates = self.to_index_coordinates(points)
        payload = None
        if reusable and self.backend.supports_plan(self.method):
            payload = self.backend.build_plan(self.grid.shape, coordinates, self.method, key)
        return GatherPlan(
            method=self.method,
            backend_name=self.backend.name,
            grid_shape=self.grid.shape,
            output_shape=points.shape[1:],
            coordinates=coordinates,
            payload=payload,
        )

    def _check_plan(self, plan: GatherPlan) -> None:
        if plan.grid_shape != self.grid.shape:
            raise ValueError(
                f"gather plan was built for grid {plan.grid_shape}, "
                f"but this interpolator is bound to {self.grid.shape}"
            )
        if plan.method != self.method:
            raise ValueError(
                f"gather plan was built for method {plan.method!r}, "
                f"but this interpolator uses {self.method!r}"
            )

    # ------------------------------------------------------------------ #
    # gathering (counting lives here, never in the backends)
    # ------------------------------------------------------------------ #
    def _retain_operator(self, key) -> None:
        """Mark *key* most recently used; release the third-most-recent one.

        Residency is owner-scoped: left to the pool's LRU the operators of
        every dead iterate would sit in memory until the budget (512 MiB by
        default) pushed them out.
        """
        with self._operator_lock:
            keys = self._operator_keys
            if key in keys:
                keys.remove(key)
            keys.append(key)
            stale = keys.pop(0) if len(keys) > RESIDENT_OPERATORS else None
        if stale is not None and get_plan_pool().discard(stale):
            _OPERATOR_DISCARDS.inc()

    def _gather(self, fields: np.ndarray, plan: GatherPlan) -> np.ndarray:
        batch = fields.shape[0]
        self.points_interpolated += batch * plan.num_points
        _INTERP_SWEEPS.inc(batch)
        _INTERP_POINTS.inc(batch * plan.num_points)
        if isinstance(plan.payload, GatherOperatorPlan):
            # before the gather, so a third operator is never resident
            self._retain_operator(plan.payload.key)
        with trace_span(
            "interp.gather",
            count=batch,
            points=batch * plan.num_points,
            method=self.method,
        ):
            return self.backend.gather(fields, plan.coordinates, plan.payload, self.method)

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

    def interpolate_vector(self, vector_field: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Component-wise interpolation of a ``(3, N1, N2, N3)`` field."""
        vector_field = np.asarray(vector_field)
        if vector_field.shape != (3, *self.grid.shape):
            raise ValueError(
                f"vector field has shape {vector_field.shape}, "
                f"expected {(3, *self.grid.shape)}"
            )
        return self.interpolate_many(vector_field, points)

    # ------------------------------------------------------------------ #
    def flops(self) -> int:
        """Estimated floating point work of all interpolations so far."""
        if self.method == "linear":
            per_point = 24
        else:
            per_point = TRICUBIC_FLOPS_PER_POINT
        return per_point * self.points_interpolated
