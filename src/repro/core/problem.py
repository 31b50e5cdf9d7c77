"""The registration problem: objective, reduced gradient, Hessian mat-vec.

This module implements the reduced-space quantities of the PDE-constrained
optimization problem (Sec. II-B of the paper):

* the objective ``J[v] = 1/2 ||rho(., 1) - rho_R||^2 + beta/2 <A v, v>``
  (Eq. 2a), where ``rho(., 1)`` is obtained by transporting the template
  with the state equation (Eq. 2b),
* the reduced gradient ``g(v) = beta A v + P int_0^1 lam grad rho dt``
  (Eq. 4), where ``lam`` solves the adjoint equation (Eq. 3) and ``P`` is
  the Leray projection (identity when the incompressibility constraint is
  not enforced),
* the Gauss-Newton / full Newton Hessian mat-vec (Eq. 5)
  ``H(v) v~ = beta A v~ + P int_0^1 (lam~ grad rho [+ lam grad rho~]) dt``.

Every evaluation follows the optimize-then-discretize strategy of the paper:
the continuous optimality conditions are discretized with the spectral /
semi-Lagrangian kernels of :mod:`repro.spectral` and :mod:`repro.transport`.

``beta A``, ``P`` and the preconditioner are diagonal in Fourier space, so
the velocity-space algebra runs on ``rfftn`` half-spectra: the gradient is
``g^ = P^(beta A^ v^ + b^)`` after one forward transform of the body force
``b``, norms and energies are Parseval sums, and a Hessian mat-vec of a
half-spectrum (what the Krylov solver iterates on) transforms twice —
``p^ -> p`` for the two transport solves, ``b~ -> b~^`` for their result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.gradients import (
    CachedStateGradients,
    StateGradients,
    accumulate_weighted_products,
    gradient_levels_of,
    plan_state_gradients,
    trapezoid_weights,
)
from repro.core.preconditioner import SpectralPreconditioner
from repro.core.regularization import make_regularization
from repro.observability.trace import trace_span
from repro.spectral.fft import FourierTransform
from repro.spectral.grid import Grid
from repro.spectral.operators import SpectralOperators
from repro.transport.solvers import TransportPlan, TransportSolver
from repro.utils.validation import (
    check_finite,
    check_positive_int,
    check_real_dtype,
    check_velocity_shape,
)


@dataclass
class ObjectiveParts:
    """Decomposition of the objective into data fidelity and regularization."""

    distance: float
    regularization: float

    @property
    def total(self) -> float:
        return self.distance + self.regularization


@dataclass
class OuterIterate:
    """All quantities linearized around one outer (Newton) iterate ``v``.

    The Gauss-Newton-Krylov solver evaluates the state and adjoint once per
    outer iteration and then re-uses them for every Hessian mat-vec of the
    inner PCG solve, exactly as in the paper (the state/adjoint time
    histories are stored in memory, Sec. III-B2).
    """

    velocity: np.ndarray
    plan: TransportPlan
    state_history: np.ndarray
    adjoint_history: np.ndarray
    objective: ObjectiveParts
    #: half-spectra of the reduced gradient (minus the Newton system's right-hand side)
    gradient_spectrum: np.ndarray
    gradient_norm: float
    residual: np.ndarray
    #: the transform :attr:`gradient` comes back through
    fft: FourierTransform
    #: Iterate-scoped source of the state-history gradients (cached stack or
    #: lazy recomputation, :mod:`repro.core.gradients`).  ``None`` on
    #: hand-built iterates — every consumer then degrades to the lazy path.
    state_gradients: Optional[StateGradients] = None

    @property
    def deformed_template(self) -> np.ndarray:
        """The transported template ``rho(., 1)``."""
        return self.state_history[-1]

    @property
    def gradient(self) -> np.ndarray:
        """The reduced gradient as a field, transformed on demand (3 transforms).

        Not stored: an iterate lives through its whole Newton step (the last
        one is a solve's answer), and a line search asks for the field once
        per Newton step.
        """
        return self.fft.inverse_vector(self.gradient_spectrum)


@dataclass
class KernelWorkCounters:
    """Snapshot of the kernel work executed so far (FFTs, interpolations).

    The paper's complexity model (Sec. III-C4) predicts ``8 nt`` FFTs and
    ``4 nt`` interpolation sweeps per Hessian mat-vec (the implementation
    performs ``2 nt``, for every velocity); these
    counters let the test-suite and the benchmark harness check the
    prediction against the implementation.  Both counts live in the
    respective frontends (:class:`repro.spectral.fft.FourierTransform`,
    :class:`repro.transport.interpolation.PeriodicInterpolator`).
    """

    fft_transforms: int = 0
    interpolated_points: int = 0

    def __sub__(self, other: "KernelWorkCounters") -> "KernelWorkCounters":
        return KernelWorkCounters(
            fft_transforms=self.fft_transforms - other.fft_transforms,
            interpolated_points=self.interpolated_points - other.interpolated_points,
        )

    def interpolation_sweeps(self, num_grid_points: int) -> float:
        """Interpolated points expressed in grid sweeps (the paper's unit).

        One "interpolation" of the complexity model is a sweep over all grid
        points, so ``2*nt`` sweeps per Hessian mat-vec corresponds to
        ``2*nt*N1*N2*N3`` interpolated points.
        """
        return self.interpolated_points / num_grid_points


@dataclass
class RegistrationProblem:
    """Discretized optimal-control registration problem.

    Parameters
    ----------
    grid:
        Computational grid shared by the images and the velocity.
    reference:
        Reference image ``rho_R`` (fixed image).
    template:
        Template image ``rho_T`` (moving image, transported by the state
        equation).
    beta:
        Regularization weight.
    regularization:
        Name of the Sobolev-seminorm regularization (``"h1"`` per Eq. 2a,
        ``"h2"`` biharmonic, ``"h3"``).
    incompressible:
        Enforce ``div v = 0`` (volume-preserving diffeomorphism) by Leray
        projection of the gradient and the Hessian mat-vec.
    num_time_steps:
        Pseudo-time steps ``nt`` of the semi-Lagrangian scheme.
    gauss_newton:
        Use the Gauss-Newton approximation of the Hessian (the paper's
        default for all reported experiments).

    The problem is a :class:`~repro.core.optim.protocol.NewtonProblem`.
    """

    grid: Grid
    reference: np.ndarray
    template: np.ndarray
    beta: float = 1e-2
    regularization: str = "h1"
    incompressible: bool = False
    num_time_steps: int = 4
    gauss_newton: bool = True
    operators: Optional[SpectralOperators] = None
    transport: Optional[TransportSolver] = None

    def __post_init__(self) -> None:
        check_positive_int(self.num_time_steps, "num_time_steps")
        self.reference = np.asarray(self.reference, dtype=self.grid.dtype)
        self.template = np.asarray(self.template, dtype=self.grid.dtype)
        if self.reference.shape != self.grid.shape:
            raise ValueError(
                f"reference image has shape {self.reference.shape}, expected {self.grid.shape}"
            )
        if self.template.shape != self.grid.shape:
            raise ValueError(
                f"template image has shape {self.template.shape}, expected {self.grid.shape}"
            )
        if self.operators is None:
            self.operators = SpectralOperators(self.grid)
        if self.transport is None:
            self.transport = TransportSolver(
                self.grid,
                num_time_steps=self.num_time_steps,
                operators=self.operators,
            )
        self.regularizer = make_regularization(self.regularization, self.operators, self.beta)
        #: PCG iterates on half-spectra; the points are velocity fields
        self.krylov_space, self.point_space = self.operators.fft, self.grid
        #: the most recent line-search trial: (velocity, spectrum, plan, state history)
        self._trial: Optional[tuple] = None
        #: the live iterate (the last :meth:`linearize` result) and its velocity's spectrum
        self._live: Optional[Tuple[OuterIterate, np.ndarray]] = None

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def zero_velocity(self) -> np.ndarray:
        """Initial guess ``v = 0`` (the paper's initialization)."""
        return self.grid.zeros_vector()

    def start(self, initial: Optional[np.ndarray]) -> np.ndarray:
        """Zero, or *initial* checked — real (``TypeError``) and finite
        (``ValueError``), naming ``initial_velocity`` before any transform —
        and projected."""
        if initial is None:
            return self.zero_velocity()
        check_real_dtype(np.asarray(initial).dtype, "initial_velocity")
        velocity = np.array(initial, dtype=self.grid.dtype, copy=True)
        return self.project(check_finite(velocity, "initial_velocity"))

    def as_point(self, step: np.ndarray) -> np.ndarray:
        return self.operators.fft.inverse_vector(step)

    def preconditioner(self) -> SpectralPreconditioner:
        """``M^{-1} = (beta A)^+`` at the current ``beta``."""
        return SpectralPreconditioner(self.regularizer)

    def set_beta(self, beta: float) -> None:
        """Change the regularization weight (used by the continuation)."""
        self.beta = float(beta)
        self.regularizer = self.regularizer.with_beta(beta)

    def project(self, vector_field: np.ndarray) -> np.ndarray:
        """Apply the Leray projection if the problem is incompressible.

        For a caller-supplied velocity; the solver projects half-spectra.
        """
        return self._projected(vector_field)[0] if self.incompressible else vector_field

    def _projected(self, velocity: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The admissible velocity nearest *velocity*, and its half-spectra."""
        velocity = check_velocity_shape(velocity, self.grid.shape)
        fft = self.operators.fft
        spectrum = fft.forward_vector(velocity)
        if self.incompressible:
            self.operators.leray_project_spectra(spectrum, out=spectrum)
            velocity = fft.inverse_vector(spectrum)
        return velocity, spectrum

    def work_counters(self) -> KernelWorkCounters:
        """Current snapshot of FFT / interpolation work."""
        return KernelWorkCounters(
            fft_transforms=self.operators.fft.counters.total,
            interpolated_points=self.transport.interpolator.points_interpolated,
        )

    # ------------------------------------------------------------------ #
    # objective
    # ------------------------------------------------------------------ #
    def distance(self, deformed_template: np.ndarray) -> float:
        """Squared-L2 image mismatch ``1/2 ||rho(., 1) - rho_R||^2``."""
        diff = deformed_template - self.reference
        return 0.5 * self.grid.inner(diff, diff)

    def evaluate_objective(
        self,
        velocity: np.ndarray,
        keep_trial: bool = False,
        spectrum: Optional[np.ndarray] = None,
    ) -> ObjectiveParts:
        """Evaluate ``J[v]`` (one forward transport solve).

        Only the final state enters the distance term, so a standalone
        evaluation rides
        :meth:`~repro.transport.solvers.TransportSolver.solve_state_final`
        — same steps, same interpolation counters, no ``(nt + 1)``-level
        history allocation.  A line search passes *keep_trial*: the solve
        then keeps its history, and ``(velocity, spectrum, plan, history)``
        replaces whatever the problem's one trial slot held — so a rejected
        trial is released by the next one — for :meth:`linearize` to adopt if
        this trial is accepted.  Same steps, same bits, same counters either
        way.  *spectrum*: the velocity's half-spectra, if the caller has them.
        """
        velocity = check_velocity_shape(velocity, self.grid.shape)
        if keep_trial:
            self._trial = None  # the rejected trial's plan and history go first
        if spectrum is None:
            spectrum = self.operators.fft.forward_vector(velocity)
        plan = self.transport.plan(velocity, spectrum=spectrum)
        if keep_trial:
            state_history = self.transport.solve_state(plan, self.template)
            self._trial = (velocity, spectrum, plan, state_history)
            deformed = state_history[-1]
        else:
            deformed = self.transport.solve_state_final(plan, self.template)
        return ObjectiveParts(
            distance=self.distance(deformed),
            regularization=self.regularizer.energy_of_spectrum(spectrum),
        )

    def trial_objective(self, velocity: np.ndarray) -> float:
        """The line search's objective: ``J`` at the projected trial, kept.

        The accepted trial is the next iterate as it stands — projected
        once, here, as a half-spectrum — with its spectrum, plan and state
        history (:meth:`linearize`).  No gather of a search reads the live
        iterate's operators, so each evaluation starts by releasing every
        resident one: the trial plans and transports without them, and the
        accepted trial's forward operator survives into :meth:`linearize`.
        """
        self.transport.interpolator.release_operators()
        velocity, spectrum = self._projected(velocity)
        return self.evaluate_objective(velocity, keep_trial=True, spectrum=spectrum).total

    @property
    def trial_velocity(self) -> Optional[np.ndarray]:
        """Velocity of the kept line-search trial (``None``: the slot is empty)."""
        return None if self._trial is None else self._trial[0]

    def release_trial(self) -> None:
        """Drop the kept trial (the line search gave up on its direction)."""
        self._trial = None

    def release(self) -> None:
        """Drop every per-velocity object the problem holds: the solve is over.

        The kept trial, the live iterate and the resident gather operators of
        the transport solver's interpolator go; what a caller still holds (a
        driver's final iterate and its plan) stays valid — a later gather
        through it builds its operator again, same bits.
        """
        self._trial = None
        self._live = None
        self.transport.interpolator.release_operators()

    # ------------------------------------------------------------------ #
    # reduced gradient (Eq. 4)
    # ------------------------------------------------------------------ #
    def linearize(self, velocity: np.ndarray) -> OuterIterate:
        """Evaluate objective, state, adjoint, and reduced gradient at ``v``.

        When *velocity* is (content-equal to) the kept line-search trial, its
        transport plan and state history become the iterate's: nothing is
        planned or transported forward a second time.  When it is the live
        iterate's (a ``beta``-continuation level starting where the previous
        one ended), that iterate's plan, state, adjoint and gradient stack
        are reused and only what depends on ``beta`` is recomputed — the
        body force, its forward transform, ``g^`` and the energies: 3
        transforms and no sweep, bitwise what a fresh linearization gives.
        """
        velocity = check_velocity_shape(velocity, self.grid.shape)
        fft = self.operators.fft
        trial, self._trial = self._trial, None
        live, self._live = self._live, None
        if live is not None and np.array_equal(live[0].velocity, velocity):
            previous, spectrum = live
            plan, state_history = previous.plan, previous.state_history
            residual, adjoint_history = previous.residual, previous.adjoint_history
            state_gradients = previous.state_gradients
        else:
            live = None  # not reused: the old iterate goes before a new one is built
            if trial is not None and np.array_equal(trial[0], velocity):
                _, spectrum, plan, state_history = trial
            else:
                spectrum = fft.forward_vector(velocity)
                plan = self.transport.plan(velocity, spectrum=spectrum)
                state_history = self.transport.solve_state(plan, self.template)
            residual = self.reference - state_history[-1]
            adjoint_history = self.transport.solve_adjoint(plan, residual)
            # Materialize (or lazily alias) the state-history gradients once
            # for the whole iterate: the body force below, every Hessian
            # mat-vec of the inner PCG solve, and the incremental-state
            # right-hand sides all consume the same nt + 1 gradient fields.
            state_gradients = plan_state_gradients(self.operators, state_history)
        body_force = self._body_force(state_history, adjoint_history, state_gradients)
        # P^ keeps the full gradient in the divergence-free subspace
        gradient_spectrum = self._reduced_spectrum(fft.forward_vector(body_force), spectrum)

        objective = ObjectiveParts(
            distance=self.distance(state_history[-1]),
            regularization=self.regularizer.energy_of_spectrum(spectrum),
        )
        iterate = OuterIterate(
            velocity=velocity,
            plan=plan,
            state_history=state_history,
            adjoint_history=adjoint_history,
            objective=objective,
            gradient_spectrum=gradient_spectrum,
            gradient_norm=fft.norm(gradient_spectrum),
            residual=residual,
            fft=fft,
            state_gradients=state_gradients,
        )
        self._live = (iterate, spectrum)
        return iterate

    def _reduced_spectrum(self, force: np.ndarray, velocity: np.ndarray) -> np.ndarray:
        """``P^(beta A^ v^ + b^)`` in place of *force* (``b^``): Eq. 4 and Eq. 5 alike."""
        self.regularizer.add_first_variation(velocity, out=force)
        if self.incompressible:
            self.operators.leray_project_spectra(force, out=force)
        return force

    def _body_force(
        self,
        state_history: np.ndarray,
        adjoint_history: np.ndarray,
        state_gradients: Optional[StateGradients] = None,
    ) -> np.ndarray:
        """Time integral ``b = int_0^1 lam grad rho dt`` (vector field).

        Accumulated level by level to avoid storing the full space-time
        integrand (which would double the memory footprint of the stored
        state/adjoint histories); the gradients come from the iterate's
        shared source when one is supplied.
        """
        nt = state_history.shape[0] - 1
        gradients = gradient_levels_of(self.operators, state_history, state_gradients)
        with trace_span("problem.body_force", nt=nt, cached=gradients.cached):
            return accumulate_weighted_products(
                trapezoid_weights(nt),
                [(adjoint_history, gradients)],
                out=self.grid.zeros_vector(),
            )

    # ------------------------------------------------------------------ #
    # Hessian mat-vec (Eq. 5)
    # ------------------------------------------------------------------ #
    def hessian_matvec(self, iterate: OuterIterate, direction: np.ndarray) -> np.ndarray:
        """Apply the (Gauss-)Newton Hessian at *iterate* to *direction*.

        *direction* is the ``(3, N1, N2, N3//2+1)`` half-spectra of a velocity
        field (what the Krylov solver iterates on) or the real field itself;
        the result comes back the way the argument came.  Two transport
        solves (incremental state forward, incremental adjoint backward) sit
        between an inverse transform of the projected direction and a forward
        transform of the resulting body force; ``beta A`` and ``P`` act on
        the spectra.  With the iterate's state gradients cached
        (:mod:`repro.core.gradients`) those **6** transforms are all a
        Gauss-Newton mat-vec performs, compressible or not (a real argument
        adds its own round trip: 12), of the paper's ``8 nt`` figure
        (Sec. III-C4), which stays the cost of the uncached fallback.  The
        interpolation cost is the same either way: ``2 nt`` sweeps — one per
        step for the incremental state, whose grid-given source is merged
        into the field before the gather, and one for the incremental
        adjoint, whose ``div v`` source is the plan's growth factor; the
        paper counts ``4 nt``.  Full Newton adds one per step for its source
        when ``div v != 0`` (``3 nt``).
        """
        fft = self.operators.fft
        real = not np.iscomplexobj(direction)
        if real:
            direction = fft.forward_vector(check_velocity_shape(direction, self.grid.shape))
        if self.incompressible:
            # never in the caller's array (the Krylov solver's search direction)
            direction = self.operators.leray_project_spectra(
                direction, out=direction if real else None
            )
        matvec = self._reduced_spectrum(
            fft.forward_vector(self._body_force_tilde(iterate, fft.inverse_vector(direction))),
            direction,
        )
        return fft.inverse_vector(matvec) if real else matvec

    def _body_force_tilde(self, iterate: OuterIterate, direction: np.ndarray) -> np.ndarray:
        """``int_0^1 (lam~ grad rho [+ lam grad rho~]) dt`` for the field *direction*."""
        state_gradients = gradient_levels_of(
            self.operators, iterate.state_history, iterate.state_gradients
        )
        # Gauss-Newton reads only rho~(1); full Newton differentiates every level
        rho_tilde = self.transport.solve_incremental_state(
            iterate.plan,
            direction,
            iterate.state_history,
            state_gradients,
            keep_history=not self.gauss_newton,
        )
        lam_tilde = self.transport.solve_incremental_adjoint(
            iterate.plan,
            terminal=-(rho_tilde if self.gauss_newton else rho_tilde[-1]),
            perturbation=direction,
            adjoint_history=iterate.adjoint_history,
            gauss_newton=self.gauss_newton,
        )

        nt = iterate.plan.num_time_steps
        pairs = [(lam_tilde, state_gradients)]
        if not self.gauss_newton:
            # full Newton adds int lam grad rho~ dt; rho~ changes with every
            # direction, so its gradients are computed fresh — fused over the
            # time axis into one batched transform pair
            rho_tilde_gradients = CachedStateGradients(
                self.operators.gradient_many(rho_tilde)
            )
            pairs.append((iterate.adjoint_history, rho_tilde_gradients))
        with trace_span(
            "problem.body_force_tilde", nt=nt, cached=state_gradients.cached
        ):
            return accumulate_weighted_products(
                trapezoid_weights(nt), pairs, out=self.grid.zeros_vector()
            )

    def hessian_operator(self, iterate: OuterIterate):
        """Return a closure ``v~ -> H(v) v~`` bound to *iterate* (for PCG)."""

        def apply(direction: np.ndarray) -> np.ndarray:
            return self.hessian_matvec(iterate, direction)

        return apply

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, object]:
        """Human-readable description of the discretized problem."""
        return {
            "grid": self.grid.shape,
            "num_unknowns_velocity": 3 * self.grid.num_points,
            "beta": self.beta,
            "regularization": self.regularization,
            "incompressible": self.incompressible,
            "num_time_steps": self.num_time_steps,
            "gauss_newton": self.gauss_newton,
        }
