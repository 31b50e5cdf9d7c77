"""(Preconditioned) gradient descent — the baseline optimizer.

The paper argues that "most registration packages use steepest descent
(first order) methods ... However, steepest descent methods only have a
linear convergence rate" (Sec. II-B) and motivates the Gauss-Newton-Krylov
scheme by its superior convergence.  This module implements that baseline so
the claim can be reproduced quantitatively
(``benchmarks/bench_ablation_optimizer_baseline.py``): preconditioned
steepest descent with the same Armijo globalization, preconditioner, and
termination criteria as the Newton driver.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.optim.gauss_newton import (
    NewtonIterationRecord,
    OptimizationResult,
    SolverOptions,
)
from repro.core.preconditioner import SpectralPreconditioner
from repro.core.problem import RegistrationProblem
from repro.runtime.cancellation import check_cancelled
from repro.utils.logging import get_logger

LOGGER = get_logger("core.optim.gradient_descent")


@dataclass
class GradientDescent:
    """Preconditioned steepest-descent solver with Armijo line search.

    Shares :class:`SolverOptions` with the Newton driver; the Krylov-related
    options are simply ignored.  The descent direction is
    ``d = -M^{-1} g(v)`` where ``M^{-1}`` is the spectral preconditioner
    (this matches the "preconditioned gradient descent" schemes cited in the
    related-work section, e.g. for GPU LDDMM codes).
    """

    problem: RegistrationProblem
    options: SolverOptions = field(default_factory=SolverOptions)

    def solve(self, initial_velocity: Optional[np.ndarray] = None) -> OptimizationResult:
        problem = self.problem
        options = self.options
        grid = problem.grid
        start = time.perf_counter()

        velocity = (
            problem.zero_velocity()
            if initial_velocity is None
            else problem.project(np.array(initial_velocity, dtype=grid.dtype, copy=True))
        )
        preconditioner = SpectralPreconditioner(problem.regularizer, options.preconditioner)
        iterate = problem.linearize(velocity)
        initial_gradient_norm = max(iterate.gradient_norm, 1e-300)

        records: List[NewtonIterationRecord] = []
        converged = False
        reason = "max_iterations"

        for iteration in range(options.max_newton_iterations):
            # same safe point as the Newton driver: between outer iterations
            check_cancelled(options.cancel_token, "registration solve")
            rel_gnorm = iterate.gradient_norm / initial_gradient_norm
            if options.verbose:
                LOGGER.info(
                    "gd it %3d  J=%.6e  |g|=%.3e (rel %.3e)",
                    iteration,
                    iterate.objective.total,
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

            direction = problem.operators.fft.inverse_vector(
                preconditioner(-iterate.gradient_spectrum)
            )
            ls = options.line_search.search(
                objective=problem.trial_objective,
                grid=grid,
                current_point=iterate.velocity,
                current_objective=iterate.objective.total,
                gradient=iterate.gradient,
                direction=direction,
            )
            if not ls.success:
                problem.release_trial()
                reason = "line_search_failure"
                break

            iterate = problem.linearize(problem.trial_velocity)
            records.append(
                NewtonIterationRecord(
                    iteration=iteration,
                    objective=iterate.objective.total,
                    distance=iterate.objective.distance,
                    regularization=iterate.objective.regularization,
                    gradient_norm=iterate.gradient_norm,
                    relative_gradient_norm=iterate.gradient_norm / initial_gradient_norm,
                    forcing_term=0.0,
                    pcg_iterations=0,
                    hessian_matvecs=0,
                    step_length=ls.step_length,
                    line_search_evaluations=ls.evaluations,
                    elapsed_seconds=time.perf_counter() - start,
                )
            )

        elapsed = time.perf_counter() - start
        return OptimizationResult(
            velocity=iterate.velocity,
            converged=converged,
            termination_reason=reason,
            iterations=records,
            final_iterate=iterate,
            total_hessian_matvecs=0,
            total_pcg_iterations=0,
            elapsed_seconds=elapsed,
        )
