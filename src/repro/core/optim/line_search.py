"""Armijo backtracking line search.

The paper globalizes the Newton iteration with an Armijo line search
(Sec. III-A: "a line-search globalized, inexact, preconditioned
Gauss-Newton-Krylov scheme").  The implementation below backtracks from a
unit step, accepting the first step length that satisfies the sufficient
decrease condition

    J(v + alpha d)  <=  J(v) + c1 * alpha * <g, d>.

A direction that is not a descent direction (``<g, d> >= 0``) is a failed
search with no evaluation: the Newton driver then falls back to the
preconditioned negative gradient, which always descends.

The objective evaluation is supplied as a callable, because for the
registration problem each evaluation requires a forward transport solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.optim.pcg import VectorSpace
from repro.observability.trace import trace_span
from repro.utils.logging import get_logger
from repro.utils.validation import check_positive, check_positive_int, check_real

LOGGER = get_logger("core.optim.line_search")


@dataclass
class LineSearchResult:
    """Outcome of one Armijo backtracking search."""

    step_length: float
    objective: float
    evaluations: int
    success: bool


@dataclass
class ArmijoLineSearch:
    """Backtracking line search with the Armijo sufficient-decrease rule.

    Parameters
    ----------
    c1:
        Sufficient-decrease parameter (default ``1e-4``, the standard
        choice).
    contraction:
        Multiplicative backtracking factor applied to the step length.
    max_evaluations:
        Maximum number of trial objective evaluations before giving up.
    initial_step:
        First trial step (1 for Newton-type directions).
    """

    c1: float = 1e-4
    contraction: float = 0.5
    max_evaluations: int = 20
    initial_step: float = 1.0

    def __post_init__(self) -> None:
        check_positive(self.c1, "c1")
        if not 0.0 < check_real(self.contraction, "contraction") < 1.0:
            raise ValueError(f"contraction must lie in (0, 1), got {self.contraction}")
        check_positive_int(self.max_evaluations, "max_evaluations")
        check_positive(self.initial_step, "initial_step")

    def search(
        self,
        objective: Callable[[np.ndarray], float],
        space: VectorSpace,
        current_point: np.ndarray,
        current_objective: float,
        gradient: np.ndarray,
        direction: np.ndarray,
    ) -> LineSearchResult:
        """Find an Armijo-acceptable step along *direction*.

        Parameters
        ----------
        objective:
            Callable evaluating ``J`` at a trial point.
        space:
            Its ``inner`` gives the directional derivative (a ``Grid`` for
            velocity fields).
        current_point:
            Current point ``v``.
        current_objective:
            ``J(v)`` (already computed by the outer iteration).
        gradient:
            Reduced gradient ``g(v)``.
        direction:
            Search direction ``d`` (the PCG step or the gradient step).
        """
        directional_derivative = space.inner(gradient, direction)
        if directional_derivative >= 0.0:
            LOGGER.debug(
                "direction is not a descent direction (g.d = %.3e)", directional_derivative
            )
            return LineSearchResult(
                step_length=0.0, objective=current_objective, evaluations=0, success=False
            )

        step = self.initial_step
        evaluations = 0
        while evaluations < self.max_evaluations:
            trial = current_point + step * direction
            with trace_span("line_search.trial", step=step):
                value = objective(trial)
            evaluations += 1
            sufficient = current_objective + self.c1 * step * directional_derivative
            if np.isfinite(value) and value <= sufficient:
                return LineSearchResult(
                    step_length=step,
                    objective=value,
                    evaluations=evaluations,
                    success=True,
                )
            step *= self.contraction
        return LineSearchResult(
            step_length=0.0,
            objective=current_objective,
            evaluations=evaluations,
            success=False,
        )
