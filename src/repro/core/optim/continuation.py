"""Parameter continuation in the regularization weight ``beta``.

"Since the problem is highly nonlinear we use parameter continuation on
beta.  The target value for beta is application dependent and ... determined
by various metrics defined on grad y1" (Sec. III-A of the paper).  The
continuation solves a sequence of registration problems with geometrically
decreasing ``beta``, warm-starting each solve from the previous velocity,
and stops when either the target ``beta`` is reached or a bound on the
deformation regularity (minimum of ``det(grad y1)``) would be violated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.optim.gauss_newton import GaussNewtonKrylov, OptimizationResult, SolverOptions
from repro.core.problem import RegistrationProblem
from repro.transport.deformation import DeformationMap
from repro.utils.logging import get_logger
from repro.utils.validation import check_positive

LOGGER = get_logger("core.optim.continuation")


@dataclass
class ContinuationStep:
    """Record of one continuation level."""

    beta: float
    result: OptimizationResult
    det_grad_min: float
    accepted: bool


@dataclass
class ContinuationResult:
    """Outcome of a ``beta``-continuation run.

    ``velocity`` and ``final_beta`` are those of the last accepted level.  The
    one iterate kept, ``steps[-1].result.final_iterate``, is at
    ``steps[-1].result.velocity``: when the last level was rejected that is
    not ``velocity``, and no iterate at ``velocity`` is kept.
    """

    velocity: np.ndarray
    final_beta: float
    steps: List[ContinuationStep]
    elapsed_seconds: float

    @property
    def num_levels(self) -> int:
        return len(self.steps)

    @property
    def total_hessian_matvecs(self) -> int:
        return sum(step.result.total_hessian_matvecs for step in self.steps)


@dataclass
class BetaContinuation:
    """Geometric continuation ``beta_k = beta_0 * reduction^k``.

    Parameters
    ----------
    problem:
        Registration problem; its ``beta`` is overwritten level by level.
    options:
        Solver options shared by every level.
    initial_beta:
        Starting (large) regularization weight.
    target_beta:
        Smallest weight to attempt.
    reduction:
        Geometric reduction factor per level (e.g. 0.1).
    det_grad_bound:
        Lower bound on ``min det(grad y1)``; if a level produces a map whose
        Jacobian determinant falls below the bound, that level is rejected
        and the previous (regular enough) velocity is returned.  This is the
        paper's admissibility control on the deformation.
    max_levels:
        Safety cap on the number of levels.
    """

    problem: RegistrationProblem
    options: SolverOptions = field(default_factory=SolverOptions)
    initial_beta: float = 1.0
    target_beta: float = 1e-4
    reduction: float = 0.1
    det_grad_bound: float = 0.1
    max_levels: int = 10

    def __post_init__(self) -> None:
        check_positive(self.initial_beta, "initial_beta")
        check_positive(self.target_beta, "target_beta")
        if self.target_beta > self.initial_beta:
            raise ValueError("target_beta must not exceed initial_beta")
        if not 0.0 < self.reduction < 1.0:
            raise ValueError(f"reduction must lie in (0, 1), got {self.reduction}")
        if self.max_levels < 1:
            raise ValueError("max_levels must be >= 1")

    def run(self, initial_velocity: Optional[np.ndarray] = None) -> ContinuationResult:
        """Run the continuation and return the last accepted velocity.

        Each level warm-starts from the previous optimum, which is still the
        problem's live iterate: its first ``linearize`` reuses that iterate's
        plan, state, adjoint and gradient stack and recomputes only what
        ``beta`` changes (no plan, no sweep), and its gather operators are
        still resident.  The admissibility check transports through the final
        iterate's own plan.  Only the last step's result keeps its
        ``final_iterate``; an earlier step's is ``None`` (its velocity,
        records, gradient norm and ``det_grad_min`` stay), so the run holds
        one iterate at a time.  A rejected last level keeps its own iterate,
        at its velocity, not at the returned (accepted) one.  When the run
        ends the problem releases its per-velocity data
        (:meth:`RegistrationProblem.release`).
        """
        start = time.perf_counter()
        problem = self.problem
        steps: List[ContinuationStep] = []

        beta = self.initial_beta
        velocity = (
            problem.zero_velocity() if initial_velocity is None else np.array(initial_velocity)
        )
        accepted_velocity = velocity
        accepted_beta = beta

        for level in range(self.max_levels):
            if steps:
                # a level goes on: the one before keeps its velocity and
                # records, not its iterate (the problem's live slot holds it
                # for this level's first linearize)
                steps[-1].result.final_iterate = None
            problem.set_beta(beta)
            solver = GaussNewtonKrylov(problem, self.options)
            result = solver.solve(velocity)

            deformation = DeformationMap(
                problem.grid,
                result.velocity,
                transport=problem.transport,
                plan=result.final_iterate.plan,
            )
            det_min = float(deformation.determinant().min())
            del deformation  # its plan and displacement stay out of the next level
            accepted = det_min >= self.det_grad_bound
            steps.append(
                ContinuationStep(beta=beta, result=result, det_grad_min=det_min, accepted=accepted)
            )
            LOGGER.info(
                "continuation level %d: beta=%.2e, det(grad y) min=%.3f, accepted=%s",
                level,
                beta,
                det_min,
                accepted,
            )
            if not accepted:
                break
            accepted_velocity = result.velocity
            accepted_beta = beta
            velocity = result.velocity
            if beta <= self.target_beta * (1.0 + 1e-12):
                break
            beta = max(beta * self.reduction, self.target_beta)

        problem.release()
        return ContinuationResult(
            velocity=accepted_velocity,
            final_beta=accepted_beta,
            steps=steps,
            elapsed_seconds=time.perf_counter() - start,
        )
