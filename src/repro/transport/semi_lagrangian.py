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

   The stepper handed ``div v`` (the backward one of a
   :class:`~repro.transport.solvers.TransportPlan`) builds ``phi`` on its
   first step — one gather of ``div v`` — and applies it in every step.

One :meth:`SemiLagrangianStepper.step` serves every equation: one field or
a stack, with or without sources, with or without ``phi``; each call is one
gather of one stack.

The departure points depend only on the (stationary) velocity and the time
step, so they are computed once per velocity and re-used for every time step
and every transported field — the "interpolation planner"/scatter phase of
Sec. III-C2.  The stepper plans them straight into a **gather plan** (the
wrapped coordinates and the name of their gather operator, see
:mod:`repro.transport.kernels`) and keeps only that, so repeated steps
never re-derive the interpolation stencil; fields that are interpolated
together (the displacement components of the deformation map) move through
one batched gather pass.  The same machinery handles the adjoint equations
after the time reversal ``tau = 1 - t`` by passing ``-v``.  A velocity that
is identically zero — the first iterate of every registration — has no
characteristics to follow: its stepper plans nothing and gathers nothing.

A stepper's gather plan belongs to it, and so to the
:class:`~repro.transport.solvers.TransportPlan` of its velocity: it lives
as long as that plan does and is never shared through the process-wide
plan pool.  Whoever holds a velocity's plan hands it on instead of planning
again — ``linearize`` adopts the accepted line-search trial's, the
deformation map takes the final iterate's.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Optional, Tuple

import numpy as np

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
class SemiLagrangianStepper:
    """One semi-Lagrangian time step of ``d nu/dt + velocity . grad nu = c nu + f``.

    The stepper is bound to a fixed velocity and time step; the departure
    points are computed and planned once at construction (the paper's
    "scatter"/planning phase), and their gather plan — the one copy of them
    the stepper keeps, as ``departure_plan`` — is shared by every call to
    :meth:`step`.  A velocity that is identically zero departs from the
    grid itself: that stepper holds no departure data (``departure_plan``
    stays ``None``) and gathers nothing — :meth:`step` is
    ``nu + dt/2 (f_old + f_new)``.

    Parameters
    ----------
    grid:
        Computational grid.
    velocity:
        Stationary velocity of the transport equation.  Not kept: past
        planning the stepper holds only the gather plan.
    dt:
        Time-step size.
    interpolator:
        Off-grid interpolator (one per grid when omitted).
    derivatives:
        The :func:`flow_derivatives` pair of *velocity* when the caller has
        it (:meth:`TransportSolver.plan` shares one pair between its two
        steppers, through its own operators); a standalone stepper computes
        the pair itself.  Not kept.
    divergence:
        The rate ``c`` of the term ``c nu`` on the grid, or ``None`` for
        ``c = 0``.  The adjoint equations' backward stepper of ``v`` (its
        velocity is ``-v``) is handed ``div v``: its :meth:`step` then
        multiplies by the growth factor ``phi`` (module docstring), which
        the first step builds — one gather of ``c`` — and keeps as
        ``growth``.
    """

    grid: Grid
    velocity: InitVar[np.ndarray]
    dt: float
    interpolator: Optional[PeriodicInterpolator] = None
    derivatives: InitVar[Optional[Tuple[np.ndarray, np.ndarray]]] = None
    divergence: Optional[np.ndarray] = field(default=None, repr=False)
    departure_plan: Optional[GatherPlan] = field(default=None, init=False)
    growth: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def __post_init__(self, velocity, derivatives) -> None:
        velocity = check_velocity_shape(velocity, self.grid.shape)
        if self.interpolator is None:
            self.interpolator = PeriodicInterpolator(self.grid)
        if velocity.any():
            # the paper's planning phase: the gather stencil of the departure
            # points is computed once and reused by every step of every field
            self.departure_plan = self.interpolator.plan(
                compute_departure_points(self.grid, velocity, self.dt, derivatives)
            )

    # ------------------------------------------------------------------ #
    def step(
        self,
        fields: np.ndarray,
        source_old: Optional[np.ndarray] = None,
        source_new: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Advance one field or a stack of fields by one time step.

        Parameters
        ----------
        fields:
            One ``(N1, N2, N3)`` field or a ``(B, N1, N2, N3)`` stack at the
            current time level, on the grid.
        source_old:
            Source ``f(., t_n)`` on the grid, shaped like *fields* (or None
            for no source at the old time level).
        source_new:
            Source ``f(., t_{n+1})`` on the grid, or None.

        Returns
        -------
        numpy.ndarray
            *fields* at the next time level, in their shape.  Every field
            takes one sweep through one batched gather, and its bits do not
            depend on the stack it rides in.
        """
        fields = np.asarray(fields)
        old = None if source_old is None else np.asarray(source_old)
        new = None if source_new is None else np.asarray(source_new)
        if (
            fields.ndim not in (3, 4)
            or fields.shape[-3:] != self.grid.shape
            or (old is not None and old.shape != fields.shape)
            or (new is not None and new.shape != fields.shape)
        ):
            shapes = [array.shape for array in (fields, old, new) if array is not None]
            raise ValueError(
                f"fields and sources have shapes {shapes}, expected one field "
                f"{self.grid.shape} or a stack (B, {self.grid.shape}) of one shape"
            )
        stack = fields.reshape(-1, *self.grid.shape)
        batch, half_dt = stack.shape[0], 0.5 * self.dt
        growth = self._growth()
        if old is not None:
            old = old.reshape(stack.shape)
            # Heun is linear in what it interpolates, so nu + dt/2 f_old moves
            # through one gather; with a growth factor the two gathered
            # fields are weighed apart and share the gather as one stack
            stack = stack + half_dt * old if growth is None else np.concatenate([stack, old])
        stepped = self._gather(stack)
        if growth is not None:
            # nu(x, t + dt) = I_X[nu] phi + I_X[f_old] psi + dt/2 f_new
            gathered, stepped = stepped, stepped[:batch] * growth
            if old is not None:
                stepped += gathered[batch:] * (half_dt * (1.0 + self.dt * self.divergence))
        if new is not None:
            stepped = stepped + half_dt * new.reshape(stepped.shape)
        return stepped.reshape(fields.shape)

    def _gather(self, stack: np.ndarray) -> np.ndarray:
        """A ``(B, N1, N2, N3)`` stack at the departure points (as is for ``v = 0``)."""
        if self.departure_plan is None:  # v = 0: the departure points are the grid
            return np.array(stack, dtype=self.grid.dtype)
        return self.interpolator.interpolate_many_planned(stack, self.departure_plan)

    def _growth(self) -> Optional[np.ndarray]:
        """``phi = 1 + dt/2 (c_X + c (1 + dt c_X))``, built on first use; ``None`` for ``c = 0``."""
        if self.growth is None and self.divergence is not None:
            c = self.divergence
            c_dep = self._gather(c[None])[0]
            self.growth = 1.0 + 0.5 * self.dt * (c_dep + c * (1.0 + self.dt * c_dep))
        return self.growth

    @property
    def nbytes(self) -> int:
        """Bytes of the gather plan and, once built, the growth factor."""
        return sum(
            0 if array is None else array.nbytes
            for array in (self.departure_plan, self.growth)
        )


def cfl_number(grid: Grid, velocity: np.ndarray, dt: float) -> float:
    """CFL number ``max_j max |v_j| dt / h_j`` of a time step *dt* of *velocity*.

    The semi-Lagrangian scheme is unconditionally stable, so this is a
    diagnostic only; the paper relates the accuracy (choice of ``nt``) to
    the CFL number (Sec. IV-A3).  Per-axis extrema, no ``|v|`` temporary.
    """
    flat = check_velocity_shape(velocity, grid.shape).reshape(3, -1)
    speed = np.maximum(np.max(flat, axis=1), -np.min(flat, axis=1))
    return float(np.max(speed * dt / np.asarray(grid.spacing)))
