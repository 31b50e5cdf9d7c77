"""Transport solvers for the optimality system.

This module couples the semi-Lagrangian stepper with the spectral operators
to solve the four transport problems of the reduced-space Newton method
(Sec. II-B and III of the paper):

========================  ==================================================
state (Eq. 2b)            ``d rho/dt + v . grad rho = 0``, forward in time
adjoint (Eq. 3)           ``-d lam/dt - div(v lam) = 0``, backward in time
incremental state (5a)    ``d rho~/dt + v . grad rho~ = - v~ . grad rho``
incremental adjoint (5c)  ``-d lam~/dt - div(lam~ v + lam v~) = 0``
========================  ==================================================

All four are advection equations with (possibly field-dependent) sources, so
after the time reversal ``tau = 1 - t`` the backward equations reduce to the
same semi-Lagrangian kernel with velocity ``-v``.  Their one field-dependent
source, ``nu div v``, is integrated in closed form: along a backward
characteristic ``d nu/d tau = nu div v + g``, and Heun with the endpoint
values ``d_X = I_X[div v]`` and ``d = div v(x)`` gives::

    nu(x, t - dt) = I_X[nu] phi + I_X[g(t)] psi + dt/2 g(t - dt)
    phi = 1 + dt/2 (d_X + d (1 + dt d_X)),    psi = dt/2 (1 + dt d)

``phi`` depends on the velocity only (:meth:`TransportPlan.growth_factor`,
one gather of ``div v`` per velocity), so an adjoint step is one
interpolation sweep; ``g`` is the full-Newton source, absent from the adjoint
and the Gauss-Newton incremental adjoint.  For ``div v = 0`` (``phi = 1``,
``psi = dt/2``) this is the stepper's merged update.

Because the paper stores every time level in memory (``n_t`` is kept small —
the motivation for the unconditionally stable semi-Lagrangian scheme), the
solvers here return full space-time histories as arrays of shape
``(nt + 1, N1, N2, N3)``, indexed such that entry ``j`` is the field at
``t_j = j / nt``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.observability.trace import trace_span
from repro.spectral.grid import Grid
from repro.spectral.operators import SpectralOperators
from repro.transport.interpolation import PeriodicInterpolator
from repro.transport.semi_lagrangian import SemiLagrangianStepper, flow_derivatives
from repro.utils.validation import check_positive_int, check_velocity_shape


@dataclass
class TransportPlan:
    """Pre-computed data shared by every transport solve for one velocity.

    Mirrors the paper's "interpolation planner": the semi-Lagrangian
    departure points of the forward characteristics (velocity ``v``) and of
    the backward characteristics (velocity ``-v``) are computed once per
    velocity — both from one third-order expansion of the flow, no
    interpolation (:mod:`repro.transport.semi_lagrangian`) — then re-used by
    the state, adjoint and both incremental equations of every Hessian
    matvec (Sec. III-C2).  Each stepper keeps its departure points only as
    their gather plan (wrapped coordinates + the name of their gather
    operator, :mod:`repro.transport.kernels`), so the Hessian mat-vecs never
    re-derive stencils they already have.  ``v = 0`` has one
    stepper for both directions, and it holds nothing.
    """

    velocity: np.ndarray
    dt: float
    num_time_steps: int
    forward_stepper: SemiLagrangianStepper
    backward_stepper: SemiLagrangianStepper
    divergence: np.ndarray
    is_divergence_free: bool
    _growth: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def growth_factor(self) -> Optional[np.ndarray]:
        """The adjoint's per-step growth factor ``phi`` (module docstring).

        ``None`` for a divergence-free velocity (``phi = 1``).  Built by the
        first backward solve that asks — never by a forward-only objective
        evaluation — from one gather of ``div v`` at the backward departure
        points, then kept for every later step of this plan.
        """
        if self._growth is None and not self.is_divergence_free:
            div_v = self.divergence
            div_dep = self.backward_stepper.interpolate_at_departure(div_v)
            self._growth = 1.0 + 0.5 * self.dt * (div_dep + div_v * (1.0 + self.dt * div_dep))
        return self._growth

    @property
    def nbytes(self) -> int:
        """Byte size of the per-velocity planning data this plan holds.

        Counts the gather plans of both steppers (none for ``v = 0``) plus
        the cached divergence field and, once built, the growth factor.  The
        gather operators the plans name are not counted: the solver's
        interpolator holds those.
        """
        growth_bytes = 0 if self._growth is None else self._growth.nbytes
        return self.divergence.nbytes + growth_bytes + sum(
            stepper.departure_plan.nbytes
            for stepper in (self.forward_stepper, self.backward_stepper)
            if stepper.departure_plan is not None
        )


@dataclass
class TransportSolver:
    """Semi-Lagrangian solver for the state/adjoint/incremental equations.

    Parameters
    ----------
    grid:
        Computational grid.
    num_time_steps:
        Number of pseudo-time steps ``nt`` (the paper uses ``nt = 4``).
    operators:
        Spectral operators; constructed on demand when not provided.
    """

    grid: Grid
    num_time_steps: int = 4
    operators: Optional[SpectralOperators] = None
    divergence_tolerance: float = 1e-8
    _interpolator: PeriodicInterpolator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_positive_int(self.num_time_steps, "num_time_steps")
        if self.operators is None:
            self.operators = SpectralOperators(self.grid)
        self._interpolator = PeriodicInterpolator(self.grid)

    # ------------------------------------------------------------------ #
    # planning
    # ------------------------------------------------------------------ #
    @property
    def dt(self) -> float:
        """Pseudo-time step ``1 / nt`` (the time horizon is always [0, 1])."""
        return 1.0 / self.num_time_steps

    @property
    def interpolator(self) -> PeriodicInterpolator:
        return self._interpolator

    def plan(
        self, velocity: np.ndarray, spectrum: Optional[np.ndarray] = None
    ) -> TransportPlan:
        """Build the forward/backward semi-Lagrangian plans for *velocity*.

        Expands the flow once through this solver's operators — the
        derivative pair serves both directions and is dropped when this
        method returns — and plans the departure points of each direction
        into its own stepper; the returned plan owns all of it.  A caller
        that already holds a velocity's plan hands it on instead of calling
        this again.  *spectrum* is the velocity's half-spectra when the
        caller holds them (the optimizer does): the expansion and ``div v``
        then start from it instead of transforming the velocity again.
        """
        velocity = check_velocity_shape(velocity, self.grid.shape)
        if not velocity.any():
            # every solve's first iterate: its own reverse, nothing to plan
            forward = backward = SemiLagrangianStepper(
                self.grid, velocity, self.dt, self._interpolator
            )
            div_v, div_free = self.grid.zeros(), True
        else:
            if spectrum is None:
                spectrum = self.operators.fft.forward_vector(velocity)
            a, b = flow_derivatives(velocity, self.operators, spectrum)
            forward = SemiLagrangianStepper(
                self.grid, velocity, self.dt, self._interpolator, derivatives=(a, b)
            )
            # -v departs from the same expansion with b's sign flipped
            backward = SemiLagrangianStepper(
                self.grid, -velocity, self.dt, self._interpolator, derivatives=(a, -b)
            )
            del a, b
            div_v = self.operators.divergence_of_spectra(spectrum)
            vel_scale = max(self.grid.norm(velocity), 1e-30)
            div_free = self.grid.norm(div_v) <= self.divergence_tolerance * vel_scale
        return TransportPlan(
            velocity=velocity,
            dt=self.dt,
            num_time_steps=self.num_time_steps,
            forward_stepper=forward,
            backward_stepper=backward,
            divergence=div_v,
            is_divergence_free=div_free,
        )

    # ------------------------------------------------------------------ #
    # state equation (Eq. 2b)
    # ------------------------------------------------------------------ #
    def solve_state(self, plan: TransportPlan, rho0: np.ndarray) -> np.ndarray:
        """Transport the template image forward in time.

        Returns the full history ``rho[j] = rho(., t_j)`` with
        ``rho[0] = rho0`` and ``rho[nt] = rho(., 1)`` (the deformed template).
        """
        rho0 = np.asarray(rho0, dtype=self.grid.dtype)
        if rho0.shape != self.grid.shape:
            raise ValueError(f"rho0 has shape {rho0.shape}, expected {self.grid.shape}")
        nt = plan.num_time_steps
        history = np.empty((nt + 1, *self.grid.shape), dtype=self.grid.dtype)
        history[0] = rho0
        with trace_span("transport.state", nt=nt):
            for j in range(nt):
                history[j + 1] = plan.forward_stepper.step(history[j])
        return history

    def solve_state_final(self, plan: TransportPlan, rho0: np.ndarray) -> np.ndarray:
        """Transport the template forward, keeping only the final state.

        A standalone objective evaluation
        (``RegistrationProblem.evaluate_objective`` without ``keep_trial``)
        only needs ``rho(., 1)``, not the ``(nt + 1)``-level history — at
        256^3 that is 0.7 GB nobody will read.  (The line search does not
        call this: its trials keep their history, which becomes the next
        iterate's.)  This runs the identical steps on a two-level rotation
        (interpolation counters and bits match ``solve_state(...)[nt]``
        exactly), bounding the state memory at one field regardless of
        ``nt``.
        """
        rho0 = np.asarray(rho0, dtype=self.grid.dtype)
        if rho0.shape != self.grid.shape:
            raise ValueError(f"rho0 has shape {rho0.shape}, expected {self.grid.shape}")
        nu = rho0
        with trace_span("transport.state", nt=plan.num_time_steps, final_only=True):
            for _ in range(plan.num_time_steps):
                nu = plan.forward_stepper.step(nu)
        return nu

    # ------------------------------------------------------------------ #
    # adjoint equation (Eq. 3)
    # ------------------------------------------------------------------ #
    def solve_adjoint(self, plan: TransportPlan, terminal: np.ndarray) -> np.ndarray:
        """Transport the adjoint variable backward in time.

        Solves ``-d lam/dt - div(v lam) = 0`` with ``lam(., 1) = terminal``
        (the image mismatch ``rho_R - rho(., 1)``).  After the time reversal
        ``tau = 1 - t`` this is an advection with velocity ``-v`` and source
        ``lam * div v``, which the plan's growth factor carries: one
        interpolation sweep per step for every velocity.

        Returns the history indexed by *t* (``history[nt] = terminal``,
        ``history[0] = lam(., 0)``).
        """
        terminal = np.asarray(terminal, dtype=self.grid.dtype)
        if terminal.shape != self.grid.shape:
            raise ValueError(
                f"terminal condition has shape {terminal.shape}, expected {self.grid.shape}"
            )
        nt = plan.num_time_steps
        history = np.empty((nt + 1, *self.grid.shape), dtype=self.grid.dtype)
        history[nt] = terminal
        with trace_span("transport.adjoint", nt=nt):
            for j in range(nt, 0, -1):
                history[j - 1] = self._backward_step(plan, history[j])
        return history

    @staticmethod
    def _backward_step(
        plan: TransportPlan,
        nu: np.ndarray,
        source_old: Optional[np.ndarray] = None,
        source_new: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """One step of ``d nu/d tau - v . grad nu = nu div v + g`` (module docstring)."""
        stepper = plan.backward_stepper
        growth = plan.growth_factor()
        if growth is None:
            return stepper.step(nu, source_old, source_new)
        stepped = stepper.step(nu) * growth
        if source_old is not None:
            half_dt = 0.5 * plan.dt
            source_dep = stepper.interpolate_at_departure(source_old)
            stepped += source_dep * (half_dt * (1.0 + plan.dt * plan.divergence))
            stepped += half_dt * source_new
        return stepped

    # ------------------------------------------------------------------ #
    # incremental state equation (Eq. 5a)
    # ------------------------------------------------------------------ #
    def solve_incremental_state(
        self,
        plan: TransportPlan,
        perturbation: np.ndarray,
        state_history: np.ndarray,
        state_gradients: Optional[object] = None,
    ) -> np.ndarray:
        """Solve the incremental (linearized) state equation.

        ``d rho~/dt + v . grad rho~ = - v~ . grad rho(t)`` with
        ``rho~(., 0) = 0``.  The right-hand side needs the gradient of the
        stored state history at the old and new time levels (four FFTs and
        two interpolations per time step, cf. Algorithm 2 of the paper);
        passing the iterate's shared gradient source (*state_gradients*, any
        object with a ``level(j)`` method — see
        :class:`repro.core.gradients.StateGradients`; duck-typed to keep the
        transport layer below the core) serves them from the per-iterate
        cache — zero gradient FFTs on the Hessian mat-vec hot path.
        """
        perturbation = check_velocity_shape(perturbation, self.grid.shape)
        nt = plan.num_time_steps
        if state_history.shape != (nt + 1, *self.grid.shape):
            raise ValueError(
                f"state history has shape {state_history.shape}, "
                f"expected {(nt + 1, *self.grid.shape)}"
            )
        ops = self.operators

        def rhs(j: int) -> np.ndarray:
            if state_gradients is not None:
                grad_rho = state_gradients.level(j)
            else:
                grad_rho = ops.gradient(state_history[j])
            return -(
                perturbation[0] * grad_rho[0]
                + perturbation[1] * grad_rho[1]
                + perturbation[2] * grad_rho[2]
            )

        history = np.zeros((nt + 1, *self.grid.shape), dtype=self.grid.dtype)
        with trace_span("transport.incremental_state", nt=nt):
            rhs_old = rhs(0)
            for j in range(nt):
                rhs_new = rhs(j + 1)
                history[j + 1] = plan.forward_stepper.step(
                    history[j], source_old=rhs_old, source_new=rhs_new
                )
                rhs_old = rhs_new
        return history

    # ------------------------------------------------------------------ #
    # incremental adjoint equation (Eq. 5c)
    # ------------------------------------------------------------------ #
    def solve_incremental_adjoint(
        self,
        plan: TransportPlan,
        terminal: np.ndarray,
        perturbation: Optional[np.ndarray] = None,
        adjoint_history: Optional[np.ndarray] = None,
        gauss_newton: bool = True,
    ) -> np.ndarray:
        """Solve the incremental adjoint equation backward in time.

        Full Newton solves ``-d lam~/dt - div(lam~ v + lam v~) = 0``; the
        Gauss-Newton approximation drops the term involving the adjoint
        ``lam`` (Sec. II-B).  The terminal condition is
        ``lam~(., 1) = -rho~(., 1)`` (Eq. 5d).

        Parameters
        ----------
        plan:
            Transport plan of the outer velocity ``v``.
        terminal:
            Terminal condition at ``t = 1``.
        perturbation:
            The Hessian direction ``v~``; required for the full Newton term.
        adjoint_history:
            History of the first-order adjoint ``lam``; required for the full
            Newton term.
        gauss_newton:
            Drop the ``lam``-dependent source (default, as in the paper's
            experiments).
        """
        terminal = np.asarray(terminal, dtype=self.grid.dtype)
        if terminal.shape != self.grid.shape:
            raise ValueError(
                f"terminal condition has shape {terminal.shape}, expected {self.grid.shape}"
            )
        nt = plan.num_time_steps
        # the full-Newton source g(t_j) per time level; Gauss-Newton has none
        sources = [None] * (nt + 1)
        if not gauss_newton:
            if perturbation is None or adjoint_history is None:
                raise ValueError(
                    "full Newton requires both the perturbation and the adjoint history"
                )
            perturbation = check_velocity_shape(perturbation, self.grid.shape)
            if adjoint_history.shape != (nt + 1, *self.grid.shape):
                raise ValueError(
                    f"adjoint history has shape {adjoint_history.shape}, "
                    f"expected {(nt + 1, *self.grid.shape)}"
                )
            # div(lam(t) v~) for every time level, computed spectrally with
            # the whole time axis fused into one batched transform pair
            sources = self.operators.divergence_many(
                adjoint_history[:, None] * perturbation[None]
            )

        history = np.empty((nt + 1, *self.grid.shape), dtype=self.grid.dtype)
        history[nt] = terminal
        with trace_span("transport.incremental_adjoint", nt=nt, gauss_newton=gauss_newton):
            for j in range(nt, 0, -1):
                history[j - 1] = self._backward_step(
                    plan, history[j], sources[j], sources[j - 1]
                )
        return history
