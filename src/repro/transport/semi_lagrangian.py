"""Semi-Lagrangian characteristic tracing and single-step update.

Implements the scheme of Sec. III-B2 (Eqs. 6 and 7 of the paper):

1. For every regular grid point ``x`` the departure point ``X`` is where
   the characteristic ``dX/ds = v(X)``, ``X(0) = x`` was one step earlier.
   The paper traces it with an RK2 step whose predictor value ``v(X*)`` is
   interpolated; here the flow is expanded about ``x`` instead (McGregor
   1993, "Economical determination of departure points for semi-Lagrangian
   models", Mon. Wea. Rev. 121), to third order::

       X(s) = x + s v + s^2/2 a + s^3/6 b,    a = (v . grad) v,  b = (v . grad) a
       X    = X(-dt)

   ``a`` and ``b`` are spectral derivatives on the grid, so planning a
   velocity interpolates nothing.  ``a`` is even and ``b`` odd in ``v``:
   the characteristics of ``-v`` (the adjoint equations) end at ``X(+dt)``
   of the same pair.  The expansion assumes a velocity the grid resolves —
   every velocity the solver produces (regularized, band-limited); its error
   is ``O(dt^4)`` per step against the RK2 trace's ``O(dt^3)``.

2. The transported scalar ``nu`` with source ``f`` is then updated with the
   Heun (explicit trapezoidal) rule along the characteristic::

       nu0(X)       = interp(nu(., 0), X)
       f0(X)        = interp(f(., 0), X)
       nu*(x)       = nu0(X) + dt * f0(X)
       f*(x)        = f evaluated at the new time on the grid
       nu(x, dt)    = nu0(X) + dt/2 * (f0(X) + f*(x))

   For a pure advection (``f = 0``) this collapses to one interpolation.
   So it does for every source the stepper accepts — ``f`` and ``f*`` are
   given on the grid, and the interpolant is linear, hence::

       nu(x, dt)    = interp(nu(., 0) + dt/2 * f(., 0), X) + dt/2 * f*(x)

   The one source that depends on the transported quantity itself, the
   adjoint's ``nu div v``, never reaches the stepper: with the endpoint
   values ``d_X = interp(div v, X)`` and ``d = div v(x)`` the Heun update of
   ``d nu/d tau = nu div v`` along the characteristic is a multiplication
   by a growth factor of the velocity alone::

       nu(x, dt)    = nu0(X) * phi,   phi = 1 + dt/2 * (d_X + d * (1 + dt * d_X))

   which :class:`repro.transport.solvers.TransportPlan` builds once per
   velocity (one gather of ``div v``) and applies to ``step(nu)``.

The departure points depend only on the (stationary) velocity and the time
step, so they are computed once per velocity and re-used for every time step
and every transported field — the "interpolation planner"/scatter phase of
Sec. III-C2.  The stepper goes one step further and caches the full
**gather plan** (base indices + per-axis kernel weights, see
:mod:`repro.transport.kernels`) for its departure points, so repeated steps
never re-derive the interpolation stencil; fields that are interpolated
together (the displacement components of the deformation map) move through
one batched gather pass.  The same machinery handles the adjoint equations
after the time reversal ``tau = 1 - t`` by passing ``-v``.  A velocity that
is identically zero — the first iterate of every registration — has no
characteristics to follow: its stepper plans nothing and gathers nothing.

Since PR 3 the departure points and their gather plan live in the shared
**plan pool** (:mod:`repro.runtime.plan_pool`), keyed by the *content* of
``(grid, velocity, dt, kernel, backend)``: any stepper built for a velocity
the pool has already planned — a ``beta``-continuation warm start, the
deformation map of a just-solved registration — reuses the warm plan instead
of re-expanding and re-planning.  (The accepted line-search trial does not
even look: ``linearize`` adopts its whole ``TransportPlan``.)
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Callable, Hashable, Optional, Tuple

import numpy as np

from repro.runtime.plan_pool import array_fingerprint, get_plan_pool
from repro.spectral.grid import Grid
from repro.spectral.operators import SpectralOperators
from repro.transport.interpolation import PeriodicInterpolator
from repro.transport.kernels import GatherPlan
from repro.utils.validation import check_velocity_shape


def flow_derivatives(
    velocity: np.ndarray,
    operators: SpectralOperators,
    spectrum: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The fields ``a = (v . grad) v`` and ``b = (v . grad) a`` of the expansion.

    Two spectral Jacobians contracted with ``v`` (24 transforms, 21 given the
    half-spectra of ``v`` as *spectrum*).  The pair serves both directions:
    ``-v`` has the derivatives ``(a, -b)``.
    """
    a = operators.convective_derivative(velocity, velocity, spectra=spectrum)
    return a, operators.convective_derivative(velocity, a)


def compute_departure_points(
    grid: Grid,
    velocity: np.ndarray,
    dt: float,
    derivatives: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """Departure points ``X(-dt)`` of every grid point (module docstring, step 1).

    Parameters
    ----------
    grid:
        Regular grid whose nodes are the arrival points ``x``.
    velocity:
        Stationary velocity field ``v`` stacked as ``(3, N1, N2, N3)``,
        resolved on the grid (the expansion differentiates it spectrally).
    dt:
        Time-step size.
    derivatives:
        The pair :func:`flow_derivatives` returns for *velocity*, when the
        caller already has it (``(a, -b)`` of ``v`` for ``-v``); computed
        here when omitted.

    Returns
    -------
    numpy.ndarray
        Departure coordinates of shape ``(3, N1, N2, N3)``.  They are *not*
        wrapped into the periodic box; the interpolators wrap internally.
    """
    velocity = check_velocity_shape(velocity, grid.shape)
    if dt < 0:
        raise ValueError(f"dt must be non-negative, got {dt}")
    if derivatives is None:
        derivatives = flow_derivatives(velocity, SpectralOperators(grid))
    a, b = derivatives
    points = grid.coordinate_stack()
    points -= dt * velocity
    points += (0.5 * dt**2) * a
    points -= (dt**3 / 6.0) * b
    return points


@dataclass
class DeparturePlanData:
    """Pooled per-velocity planning data: departure points + gather plan.

    The unit the plan pool stores and accounts for: the departure points of
    one ``(velocity, dt)`` pair and the gather plan (wrapped coordinates +
    cached stencil) of one interpolation kernel / backend at those points.
    """

    points: np.ndarray
    plan: GatherPlan

    @property
    def nbytes(self) -> int:
        """Exact array payload in bytes (plan-pool accounting)."""
        return self.points.nbytes + self.plan.nbytes


@dataclass
class SemiLagrangianStepper:
    """One semi-Lagrangian time step for a scalar transport equation.

    The stepper is bound to a fixed velocity and time step; the departure
    points are computed once at construction (the paper's "scatter"/planning
    phase) and shared by every call to :meth:`step`.  A velocity that is
    identically zero departs from the grid itself: that stepper holds no
    departure data (both fields stay ``None``), touches no pool and gathers
    nothing — :meth:`step` is ``nu + dt/2 (f_old + f_new)``.

    Parameters
    ----------
    grid:
        Computational grid.
    velocity:
        Stationary velocity of the transport equation
        ``d nu/dt + velocity . grad nu = f``.
    dt:
        Time-step size.
    interpolator:
        Off-grid interpolation kernel (tricubic by default).
    departure_points, departure_plan:
        Precomputed planning data (both must be given together); when
        omitted the stepper fetches them from the shared plan pool —
        building them only if no prior stepper planned the same
        ``(grid, velocity, dt, kernel, backend)`` content.
    use_plan_pool:
        Set to ``False`` to bypass the pool entirely (always rebuild).
    velocity_key:
        Content identity of *velocity* when the caller already has one
        (:meth:`TransportSolver.plan` fingerprints ``v`` once and names its
        ``-v`` stepper ``(fingerprint, "reversed")``); the velocity is
        fingerprinted when omitted.
    derivatives:
        Called on a pool miss for the :func:`flow_derivatives` pair of
        *velocity* (:meth:`TransportSolver.plan` shares one pair between its
        two steppers, through its own operators); a standalone stepper
        computes the pair itself.  Not kept.
    """

    grid: Grid
    velocity: np.ndarray
    dt: float
    interpolator: Optional[PeriodicInterpolator] = None
    departure_points: Optional[np.ndarray] = None
    departure_plan: Optional[GatherPlan] = None
    use_plan_pool: bool = True
    velocity_key: Optional[Hashable] = None
    derivatives: InitVar[Optional[Callable[[], Tuple[np.ndarray, np.ndarray]]]] = None

    def __post_init__(self, derivatives) -> None:
        self.velocity = check_velocity_shape(self.velocity, self.grid.shape)
        if self.interpolator is None:
            self.interpolator = PeriodicInterpolator(self.grid)
        if (self.departure_points is None) != (self.departure_plan is None):
            raise ValueError(
                "departure_points and departure_plan must be provided together "
                "(one without the other would silently be rebuilt and ignored)"
            )
        if self.departure_points is None and self.velocity.any():
            if self.use_plan_pool:
                key = self._pool_key()
                data = get_plan_pool().get(
                    key, lambda: self._build_departure_data(derivatives, key)
                )
            else:
                data = self._build_departure_data(derivatives)
            self.departure_points = data.points
            self.departure_plan = data.plan

    # ------------------------------------------------------------------ #
    def _pool_key(self) -> Tuple:
        """Content key of this stepper's planning data in the shared pool."""
        return (
            "semi-lagrangian-departure",
            self.grid,
            float(self.dt),
            self.interpolator.method,
            self.interpolator.backend_name,
            self.velocity_key or array_fingerprint(self.velocity),
        )

    def _build_departure_data(
        self, derivatives=None, key: Optional[Tuple] = None
    ) -> DeparturePlanData:
        """Expand the characteristics and plan the gather (the pool's miss path).

        The departure points are a pure function of the pool *key*, so it
        also names their gather operator: nothing hashes the coordinates.
        """
        pair = None if derivatives is None else derivatives()
        points = compute_departure_points(self.grid, self.velocity, self.dt, pair)
        # the paper's planning phase: the gather stencil of the departure
        # points is computed once and reused by every step of every field
        plan = self.interpolator.plan(points, key=key)
        # pooled entries are shared across steppers; guard them against
        # accidental in-place mutation by any consumer
        points.setflags(write=False)
        plan.coordinates.setflags(write=False)
        return DeparturePlanData(points=points, plan=plan)

    # ------------------------------------------------------------------ #
    def interpolate_at_departure(self, field: np.ndarray) -> np.ndarray:
        """Interpolate a grid field at the cached departure points."""
        if self.departure_plan is None:  # v = 0: the departure points are the grid
            return np.array(field, dtype=self.grid.dtype)
        return self.interpolator.interpolate_planned(field, self.departure_plan)

    def interpolate_many_at_departure(self, fields: np.ndarray) -> np.ndarray:
        """Batched interpolation of a ``(B, N1, N2, N3)`` stack at the plan."""
        if self.departure_plan is None:  # v = 0: the departure points are the grid
            return np.array(fields, dtype=self.grid.dtype)
        return self.interpolator.interpolate_many_planned(fields, self.departure_plan)

    def step(
        self,
        nu: np.ndarray,
        source_old: Optional[np.ndarray] = None,
        source_new: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Advance ``nu`` by one time step (one interpolation sweep).

        Parameters
        ----------
        nu:
            Field at the current time level, on the grid.
        source_old:
            Source field ``f(., t_n)`` on the grid (or None for no source at
            the old time level).
        source_new:
            Source field ``f(., t_{n+1})`` on the grid, or None.

        Returns
        -------
        numpy.ndarray
            ``nu`` at the next time level on the grid.
        """
        nu = np.asarray(nu)
        if nu.shape != self.grid.shape:
            raise ValueError(f"field has shape {nu.shape}, expected {self.grid.shape}")
        half_dt = 0.5 * self.dt
        # the update is linear in what it interpolates, so nu + dt/2 f_old
        # moves through one gather (pure advection without a source)
        merged = nu if source_old is None else nu + half_dt * self._checked_source(source_old)
        nu_new = self.interpolate_at_departure(merged)
        if source_new is None:
            return nu_new
        return nu_new + half_dt * self._checked_source(source_new)

    def _checked_source(self, source) -> np.ndarray:
        source = np.asarray(source)
        if source.shape != self.grid.shape:
            raise ValueError(f"source has shape {source.shape}, expected {self.grid.shape}")
        return source

    def step_many(
        self,
        fields: np.ndarray,
        sources_old: Optional[np.ndarray] = None,
        sources_new: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Advance a ``(B, N1, N2, N3)`` stack of fields by one time step.

        The batched counterpart of :meth:`step` for sources given as grid
        arrays: ``fields + dt/2 * sources_old`` is interpolated at the
        shared departure points in a single ``B``-field gather pass through
        the cached plan (e.g. the three displacement components of the
        deformation-map transport, with the velocity as their source).
        """
        fields = np.asarray(fields)
        half_dt = 0.5 * self.dt
        for sources in (sources_old, sources_new):
            if sources is not None and np.shape(sources) != fields.shape:
                raise ValueError(
                    f"sources have shape {np.shape(sources)}, expected {fields.shape}"
                )
        if sources_old is not None:
            fields = fields + half_dt * np.asarray(sources_old)
        stepped = self.interpolate_many_at_departure(fields)
        if sources_new is None:
            return stepped
        return stepped + half_dt * np.asarray(sources_new)

    # ------------------------------------------------------------------ #
    def cfl_number(self) -> float:
        """CFL number ``max |v_j| dt / h_j`` of this stepper.

        The semi-Lagrangian scheme is unconditionally stable, so this is a
        diagnostic only; the paper relates the accuracy (choice of ``nt``) to
        the CFL number (Sec. IV-A3).
        """
        h = np.asarray(self.grid.spacing)
        vmax = np.max(np.abs(self.velocity.reshape(3, -1)), axis=1)
        return float(np.max(vmax * self.dt / h))
