"""Numerical optimization: the paper's Newton-Krylov machinery.

* :mod:`repro.core.optim.pcg` — matrix-free preconditioned conjugate
  gradients for the Newton system ``H(v) v~ = -g(v)``.
* :mod:`repro.core.optim.line_search` — Armijo backtracking globalization.
* :mod:`repro.core.optim.protocol` — what the driver needs of a problem
  (:class:`~repro.core.optim.protocol.NewtonProblem`).
* :mod:`repro.core.optim.gauss_newton` — the inexact (Eisenstat-Walker
  forcing), preconditioned Gauss-Newton-Krylov driver.
* :mod:`repro.core.optim.gradient_descent` — the (preconditioned) steepest
  descent baseline used by most registration packages, kept for the
  convergence-rate comparison the paper motivates.
* :mod:`repro.core.optim.continuation` — parameter continuation in ``beta``.
"""

from repro.core.optim.pcg import PCGResult, pcg
from repro.core.optim.line_search import ArmijoLineSearch, LineSearchResult
from repro.core.optim.gauss_newton import (
    GaussNewtonKrylov,
    NewtonIterationRecord,
    OptimizationResult,
    SolverOptions,
)
from repro.core.optim.gradient_descent import GradientDescent
from repro.core.optim.continuation import BetaContinuation, ContinuationResult

__all__ = [
    "PCGResult",
    "pcg",
    "ArmijoLineSearch",
    "LineSearchResult",
    "GaussNewtonKrylov",
    "NewtonIterationRecord",
    "OptimizationResult",
    "SolverOptions",
    "GradientDescent",
    "BetaContinuation",
    "ContinuationResult",
]
