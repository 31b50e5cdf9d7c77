"""Inexact, preconditioned Gauss-Newton-Krylov solver.

This is the optimization driver of the paper (Sec. III-A):

* outer iteration: Newton's method globalized with an Armijo line search,
* inner iteration: matrix-free PCG on the (Gauss-)Newton system
  ``H(v) v~ = -g(v)``, preconditioned with the problem's ``M^{-1}`` — for
  the registration the spectral inverse of the regularization operator,
  iterated on half-spectra, where that inverse is one multiply, and
  transformed back once, as the step,
* inexactness: the PCG relative tolerance is the quadratic Eisenstat-Walker
  forcing term ``sqrt(||g|| / ||g0||)`` ("an inexact Newton method with
  quadratic forcing", Sec. IV-A3),
* one fallback: when PCG returns a zero step, or the search along its step
  fails, the iteration searches along the preconditioned negative gradient
  ``-M^{-1} g`` instead; when that search fails too, the solve stops with
  ``line_search_failure``.  No direction is searched twice.
* termination: relative reduction of the gradient norm by ``gtol``
  (``1e-2`` in the paper) or a maximum number of outer iterations.

:class:`~repro.core.optim.gradient_descent.GradientDescent` is this loop with
every step the fallback's.  The paper's C++ implementation delegates the loop
to PETSc/TAO; here it is written out explicitly, with the same control
parameters exposed (PCG tolerance selection and nonlinear termination
criteria).  It sees the problem only through
:class:`~repro.core.optim.protocol.NewtonProblem`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.core.optim.line_search import ArmijoLineSearch, LineSearchResult
from repro.core.optim.pcg import MatVec, pcg
from repro.core.optim.protocol import Iterate, NewtonProblem
from repro.observability.trace import trace_span
from repro.runtime.cancellation import check_cancelled
from repro.utils.logging import get_logger
from repro.utils.validation import (
    check_bool,
    check_integer,
    check_nonnegative,
    check_positive,
)

LOGGER = get_logger("core.optim.gauss_newton")


@dataclass
class SolverOptions:
    """Control parameters of the Gauss-Newton-Krylov solver.

    Parameters
    ----------
    gradient_tolerance:
        Relative gradient-norm reduction ``||g|| <= gtol * ||g0||`` used for
        termination (the paper's ``gtol = 1e-2``).
    absolute_gradient_tolerance:
        Absolute gradient-norm floor (termination when reached).
    max_newton_iterations:
        Maximum number of outer (Newton) iterations (the paper caps at 50
        for the brain runs, and at 2 for the pure scalability runs).
    max_krylov_iterations:
        Cap on PCG iterations (Hessian mat-vecs) per Newton step.
    forcing_max:
        Upper bound on the quadratic forcing term (PCG relative tolerance).
    line_search:
        Armijo line-search parameters.
    max_wall_clock_seconds:
        Optional wall-clock budget; the solver returns the best iterate when
        exceeded.
    verbose:
        Emit one log line per Newton iteration.
    cancel_token:
        Optional cooperative cancellation token
        (:class:`repro.runtime.cancellation.CancelToken`).  Polled between
        outer iterations *and* between the Krylov iterations of every inner
        PCG solve; when set, the solver raises
        :class:`~repro.runtime.cancellation.SolveCancelled` instead of
        starting the next Newton step or Hessian mat-vec.  Never serialized
        with the options.

    A negative Newton or non-positive Krylov cap, a negative or non-finite
    tolerance and a non-positive or non-finite wall-clock budget are a
    :class:`ValueError` naming the field, at construction; a cap that is not
    an integer, a tolerance or budget that is not a real number and a
    ``verbose`` that is not a bool are a :class:`TypeError` naming it.
    """

    gradient_tolerance: float = 1e-2
    absolute_gradient_tolerance: float = 1e-12
    max_newton_iterations: int = 50
    max_krylov_iterations: int = 100
    forcing_max: float = 0.5
    line_search: ArmijoLineSearch = field(default_factory=ArmijoLineSearch)
    max_wall_clock_seconds: Optional[float] = None
    verbose: bool = False
    cancel_token: Optional[object] = None

    def __post_init__(self) -> None:
        for name, least in (("max_newton_iterations", 0), ("max_krylov_iterations", 1)):
            if check_integer(getattr(self, name), name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        for name in ("gradient_tolerance", "absolute_gradient_tolerance", "forcing_max"):
            check_nonnegative(getattr(self, name), name)
        if self.max_wall_clock_seconds is not None:
            check_positive(self.max_wall_clock_seconds, "max_wall_clock_seconds")
        check_bool(self.verbose, "verbose")

    def forcing_term(self, gradient_norm: float, initial_gradient_norm: float) -> float:
        """Relative PCG tolerance for the current Newton iteration:
        ``sqrt(||g|| / ||g0||)``, capped at :attr:`forcing_max`, never below
        ``1e-12`` (so ``forcing_max = 0`` still lets PCG stop)."""
        ratio = gradient_norm / max(initial_gradient_norm, 1e-300)
        return float(max(min(self.forcing_max, np.sqrt(ratio)), 1e-12))


@dataclass
class NewtonIterationRecord:
    """Convergence history entry for one outer iteration.

    ``negative_curvature`` is PCG's flag (:attr:`PCGResult.negative_curvature`);
    ``gradient_fallback`` is true when the iteration searched the one
    fallback step, the preconditioned negative gradient.
    """

    iteration: int
    objective: float
    distance: float
    regularization: float
    gradient_norm: float
    relative_gradient_norm: float
    forcing_term: float
    pcg_iterations: int
    hessian_matvecs: int
    step_length: float
    line_search_evaluations: int
    elapsed_seconds: float
    negative_curvature: bool
    gradient_fallback: bool


@dataclass
class OptimizationResult:
    """Outcome of a Gauss-Newton-Krylov (or gradient-descent) solve."""

    velocity: np.ndarray
    converged: bool
    termination_reason: str
    iterations: List[NewtonIterationRecord]
    #: the iterate at :attr:`velocity`; ``None`` on an earlier level of a
    #: ``beta``-continuation, which keeps only the last level's, and on a
    #: finished :class:`~repro.core.registration.RegistrationResult`
    final_iterate: Optional[Iterate]
    #: ``||g||`` at :attr:`velocity` (kept when the iterate is dropped)
    final_gradient_norm: float
    total_hessian_matvecs: int
    total_pcg_iterations: int
    elapsed_seconds: float

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)

    def convergence_table(self) -> List[dict]:
        """The convergence history as a list of plain dictionaries."""
        return [vars(record).copy() for record in self.iterations]


@dataclass
class GaussNewtonKrylov:
    """Inexact preconditioned Gauss-Newton-Krylov driver.

    Parameters
    ----------
    problem:
        What is minimized (:class:`~repro.core.optim.protocol.NewtonProblem`:
        objective, gradient, Hessian mat-vec, preconditioner), e.g. the
        discretized registration problem.
    options:
        Solver control parameters.
    """

    problem: NewtonProblem
    options: SolverOptions = field(default_factory=SolverOptions)

    def solve(self, initial_velocity: Optional[np.ndarray] = None) -> OptimizationResult:
        """Run the outer loop from *initial_velocity* (or the problem's own
        start point), as :meth:`NewtonProblem.start` checks it."""
        problem = self.problem
        options = self.options
        start = time.perf_counter()

        preconditioner = problem.preconditioner()
        # the start point is the first iterate's: no local outlives it
        iterate = problem.linearize(problem.start(initial_velocity))
        initial_gradient_norm = max(iterate.gradient_norm, 1e-300)

        records: List[NewtonIterationRecord] = []
        total_pcg = 0
        converged = False
        reason = "max_iterations"

        for iteration in range(options.max_newton_iterations):
            # cooperative cancellation: the safe point between Newton
            # iterations — the current iterate is fully consistent here
            check_cancelled(options.cancel_token, "registration solve")
            rel_gnorm = iterate.gradient_norm / initial_gradient_norm
            if options.verbose:
                LOGGER.info(
                    "it %2d  J=%.6e  dist=%.6e  |g|=%.3e (rel %.3e)",
                    iteration,
                    iterate.objective.total,
                    iterate.objective.distance,
                    iterate.gradient_norm,
                    rel_gnorm,
                )
            if (
                iterate.gradient_norm <= options.absolute_gradient_tolerance
                or rel_gnorm <= options.gradient_tolerance
            ):
                converged = True
                reason = "gradient_tolerance"
                break
            if (
                options.max_wall_clock_seconds is not None
                and time.perf_counter() - start > options.max_wall_clock_seconds
            ):
                reason = "wall_clock_budget"
                break

            with trace_span("newton.iteration", iteration=iteration) as iteration_span:
                direction, forcing, pcg_iterations, negative_curvature = self._step(
                    iterate, preconditioner, initial_gradient_norm
                )
                # PCG starts from zero: each of its iterations is one mat-vec
                total_pcg += pcg_iterations
                iteration_span.set_attr("hessian_matvecs", pcg_iterations)

                gradient = iterate.gradient  # a point, for the line search's slope
                ls = None if direction is None else self._search(iterate, gradient, direction)
                gradient_fallback = ls is None or not ls.success
                if gradient_fallback:
                    # the one fallback: the preconditioned negative gradient -M^{-1} g
                    direction = problem.as_point(preconditioner(-iterate.gradient_spectrum))
                    ls = self._search(iterate, gradient, direction, fallback=True)
                del gradient, direction  # the search's points: dead from here on
                if ls.success:
                    # one iterate alive at a time: the old one (its plan,
                    # histories and gradient stack) goes before the new one
                    # is built from the kept trial
                    iterate = None
                    with trace_span("newton.linearize"):
                        iterate = problem.linearize(problem.trial_velocity)
                else:
                    problem.release_trial()
                    reason = "line_search_failure"

            records.append(
                NewtonIterationRecord(
                    iteration=iteration,
                    objective=iterate.objective.total,
                    distance=iterate.objective.distance,
                    regularization=iterate.objective.regularization,
                    gradient_norm=iterate.gradient_norm,
                    relative_gradient_norm=iterate.gradient_norm / initial_gradient_norm,
                    forcing_term=forcing,
                    pcg_iterations=pcg_iterations,
                    hessian_matvecs=pcg_iterations,
                    step_length=ls.step_length,
                    line_search_evaluations=ls.evaluations,
                    elapsed_seconds=time.perf_counter() - start,
                    negative_curvature=negative_curvature,
                    gradient_fallback=gradient_fallback,
                )
            )
            if not ls.success:
                break

        elapsed = time.perf_counter() - start
        return OptimizationResult(
            velocity=iterate.velocity,
            converged=converged,
            termination_reason=reason,
            iterations=records,
            final_iterate=iterate,
            final_gradient_norm=iterate.gradient_norm,
            total_hessian_matvecs=total_pcg,
            total_pcg_iterations=total_pcg,
            elapsed_seconds=elapsed,
        )

    def _step(
        self,
        iterate: Iterate,
        preconditioner: MatVec,
        initial_gradient_norm: float,
    ) -> Tuple[Optional[np.ndarray], float, int, bool]:
        """PCG in the Krylov space to the forcing term: the step as a point
        (None when PCG returns zero), the forcing term, the iteration count
        and PCG's negative-curvature flag."""
        problem = self.problem
        forcing = self.options.forcing_term(iterate.gradient_norm, initial_gradient_norm)
        with trace_span("newton.pcg", forcing=forcing):
            result = pcg(
                matvec=problem.hessian_operator(iterate),
                rhs=-iterate.gradient_spectrum,
                space=problem.krylov_space,
                preconditioner=preconditioner,
                rel_tol=forcing,
                max_iterations=self.options.max_krylov_iterations,
                cancel_token=self.options.cancel_token,
            )
        direction = problem.as_point(result.solution) if np.any(result.solution) else None
        return direction, forcing, result.iterations, result.negative_curvature

    def _search(
        self, iterate: Iterate, gradient: np.ndarray, direction: np.ndarray, **span_attrs
    ) -> LineSearchResult:
        """One Armijo search from *iterate* (whose gradient as a point is
        *gradient*) along *direction*."""
        with trace_span("newton.line_search", **span_attrs):
            return self.options.line_search.search(
                objective=self.problem.trial_objective,
                space=self.problem.point_space,
                current_point=iterate.velocity,
                current_objective=iterate.objective.total,
                gradient=gradient,
                direction=direction,
            )
