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

``phi`` depends on the velocity only — the plan's backward stepper builds
it on its first step, one gather of ``div v`` per velocity — so an adjoint
step is one interpolation sweep; ``g`` is the full-Newton source, absent
from the adjoint and the Gauss-Newton incremental adjoint.  For
``div v = 0`` (``phi = 1``, ``psi = dt/2``) this is the stepper's merged
update.

So a planned velocity has two step functions, its forward and its backward
stepper's :meth:`~repro.transport.semi_lagrangian.SemiLagrangianStepper.step`,
and the solver one time loop (``TransportSolver._march``): each ``solve_*``
method checks its inputs and marches one stepper with its source.

Because the paper stores every time level in memory (``n_t`` is kept small —
the motivation for the unconditionally stable semi-Lagrangian scheme), the
solvers here return full space-time histories as arrays of shape
``(nt + 1, N1, N2, N3)``, indexed such that entry ``j`` is the field at
``t_j = j / nt``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

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

    @property
    def nbytes(self) -> int:
        """Byte size of the per-velocity planning data this plan holds.

        Counts the gather plans of both steppers (none for ``v = 0``) plus
        the cached divergence field and, once built, the backward stepper's
        growth factor.  The gather operators the plans name are not counted:
        the solver's interpolator holds those.
        """
        # v = 0 shares one stepper between the directions, and it holds nothing
        return self.divergence.nbytes + self.forward_stepper.nbytes + self.backward_stepper.nbytes


#: Relative ``||div v|| / ||v||`` at or below which a velocity counts as
#: divergence-free: its backward stepper then carries no ``nu div v`` source
#: (``phi = 1``).
DIVERGENCE_TOLERANCE = 1e-8


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
            div_v = self.operators.divergence_of_spectra(spectrum)
            vel_scale = max(self.grid.norm(velocity), 1e-30)
            div_free = self.grid.norm(div_v) <= DIVERGENCE_TOLERANCE * vel_scale
            a, b = flow_derivatives(velocity, self.operators, spectrum)
            forward = SemiLagrangianStepper(
                self.grid, velocity, self.dt, self._interpolator, derivatives=(a, b)
            )
            # -v departs from the same expansion with b's sign flipped, and
            # its stepper carries the adjoints' nu div v (None: phi = 1)
            backward = SemiLagrangianStepper(
                self.grid, -velocity, self.dt, self._interpolator, derivatives=(a, -b),
                divergence=None if div_free else div_v,
            )
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
    # the time loop
    # ------------------------------------------------------------------ #
    def _march(
        self,
        plan: TransportPlan,
        initial: np.ndarray,
        source: Optional[Callable[[int], np.ndarray]] = None,
        backward: bool = False,
        keep_history: bool = True,
    ) -> np.ndarray:
        """March *initial* through the ``nt`` steps of one of *plan*'s steppers.

        Forward from ``t_0`` with the forward stepper, or *backward* from
        ``t_nt`` with the backward one.  ``source(j)`` is the source at time
        level ``j``, called once per level in marching order.  Returns the
        history indexed by *t* (entry ``j`` the field at ``t_j``), or only
        the last level without *keep_history* — the same steps, the same
        bits, one level of memory.
        """
        nt = plan.num_time_steps
        stepper = plan.backward_stepper if backward else plan.forward_stepper
        levels = range(nt, -1, -1) if backward else range(nt + 1)
        history = None
        if keep_history:
            history = np.empty((nt + 1, *initial.shape), dtype=self.grid.dtype)
            history[levels[0]] = initial
        nu = initial
        old = None if source is None else source(levels[0])
        for level in levels[1:]:
            new = None if source is None else source(level)
            nu = stepper.step(nu, old, new)
            if history is not None:
                history[level] = nu
                nu = history[level]  # the step's own array is freed at once
            old = new
        return nu if history is None else history

    def _checked_field(self, field: np.ndarray, name: str) -> np.ndarray:
        field = np.asarray(field, dtype=self.grid.dtype)
        if field.shape != self.grid.shape:
            raise ValueError(f"{name} has shape {field.shape}, expected {self.grid.shape}")
        return field

    # ------------------------------------------------------------------ #
    # state equation (Eq. 2b)
    # ------------------------------------------------------------------ #
    def solve_state(self, plan: TransportPlan, rho0: np.ndarray) -> np.ndarray:
        """Transport the template image forward in time.

        Returns the full history ``rho[j] = rho(., t_j)`` with
        ``rho[0] = rho0`` and ``rho[nt] = rho(., 1)`` (the deformed template).
        """
        rho0 = self._checked_field(rho0, "rho0")
        with trace_span("transport.state", nt=plan.num_time_steps):
            return self._march(plan, rho0)

    def solve_state_final(self, plan: TransportPlan, rho0: np.ndarray) -> np.ndarray:
        """Transport the template forward, keeping only the final state.

        A standalone objective evaluation
        (``RegistrationProblem.evaluate_objective`` without ``keep_trial``)
        only needs ``rho(., 1)``, not the ``(nt + 1)``-level history — at
        256^3 that is 0.7 GB nobody will read.  (The line search does not
        call this: its trials keep their history, which becomes the next
        iterate's.)  The identical steps (interpolation counters and bits
        match ``solve_state(...)[nt]`` exactly) keep one field of state
        regardless of ``nt``.
        """
        rho0 = self._checked_field(rho0, "rho0")
        with trace_span("transport.state", nt=plan.num_time_steps, final_only=True):
            return self._march(plan, rho0, keep_history=False)

    # ------------------------------------------------------------------ #
    # adjoint equation (Eq. 3)
    # ------------------------------------------------------------------ #
    def solve_adjoint(self, plan: TransportPlan, terminal: np.ndarray) -> np.ndarray:
        """Transport the adjoint variable backward in time.

        Solves ``-d lam/dt - div(v lam) = 0`` with ``lam(., 1) = terminal``
        (the image mismatch ``rho_R - rho(., 1)``).  After the time reversal
        ``tau = 1 - t`` this is an advection with velocity ``-v`` and source
        ``lam * div v``, which the backward stepper's growth factor carries:
        one interpolation sweep per step for every velocity.

        Returns the history indexed by *t* (``history[nt] = terminal``,
        ``history[0] = lam(., 0)``).
        """
        terminal = self._checked_field(terminal, "terminal condition")
        with trace_span("transport.adjoint", nt=plan.num_time_steps):
            return self._march(plan, terminal, backward=True)

    # ------------------------------------------------------------------ #
    # incremental state equation (Eq. 5a)
    # ------------------------------------------------------------------ #
    def solve_incremental_state(
        self,
        plan: TransportPlan,
        perturbation: np.ndarray,
        state_history: np.ndarray,
        state_gradients: Optional[object] = None,
        keep_history: bool = True,
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

        Returns the history ``rho~[j] = rho~(., t_j)``, or without
        *keep_history* only ``rho~(., 1)`` — the same steps and bits, one
        level of memory (all a Gauss-Newton mat-vec reads).
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

        with trace_span("transport.incremental_state", nt=nt):
            return self._march(plan, self.grid.zeros(), source=rhs, keep_history=keep_history)

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
        terminal = self._checked_field(terminal, "terminal condition")
        nt = plan.num_time_steps
        # the full-Newton source g(t_j) per time level; Gauss-Newton has none
        source = None
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
            source = sources.__getitem__
        with trace_span("transport.incremental_adjoint", nt=nt, gauss_newton=gauss_newton):
            return self._march(plan, terminal, source=source, backward=True)
