"""Per-iterate cache of the state history's spectral gradients.

The paper's cost model (Sec. III-C4) prices one Gauss-Newton Hessian
mat-vec at ``8 nt`` FFTs — and almost all of those transforms are spectral
gradients of the *state history* ``grad rho(., t_j)``, which is **fixed for
the whole Newton iterate**: the incremental-state right-hand side and the
body-force quadrature of every PCG iteration re-derive the exact same
``nt + 1`` gradient fields, and the reduced-gradient evaluation derives
them once more.  With 5-50 Krylov iterations per Newton step that is the
single largest pile of redundant FLOPs in the solver.

This module materializes those gradients **once per outer iterate**:

* :func:`plan_state_gradients` decides — per state history, against the
  ``REPRO_PLAN_POOL_BYTES`` budget — whether to cache.  A cached stack is
  ``(nt + 1, 3, N1, N2, N3)`` doubles (~3x the state history itself); it
  **degrades to the uncached per-level path** when it does not fit the
  budget (``REPRO_PLAN_POOL_BYTES=0`` gives the paper's uncached ``8 nt``-FFT
  mat-vec everywhere).  Every decision is recorded in a process-wide log
  (:func:`gradient_cache_decision_log`).
* The cached stack is built level by level with the *identical*
  :meth:`~repro.spectral.operators.SpectralOperators.gradient` calls the
  uncached path performs, so consuming a cached level is bitwise identical
  to recomputing it — same FFT outputs, reused.
* :func:`accumulate_weighted_products` is the fused body-force quadrature
  shared by the reduced gradient and the Hessian mat-vec: the trapezoid
  weights are applied through two pre-allocated scratch buffers instead of
  the two fresh temporaries per time level the old accumulation loops
  allocated, with arithmetic order-identical to the historical loop.

The stack belongs to its iterate (:class:`CachedStateGradients` holds it,
the :class:`~repro.core.problem.OuterIterate` holds that) and dies with it;
nothing is shared through the process-wide plan pool.  A continuation level
that re-linearizes the velocity the previous level ended on reuses that
iterate's stack through the problem's live-iterate hand-off
(:meth:`~repro.core.problem.RegistrationProblem.linearize`) and performs
**zero** spectral-gradient FFTs.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.observability.metrics import get_metrics_registry
from repro.observability.trace import trace_span
from repro.runtime.plan_pool import get_plan_pool
from repro.spectral.operators import SpectralOperators

__all__ = [
    "CachedStateGradients",
    "GradientCacheDecision",
    "GradientCacheDecisionLog",
    "LazyStateGradients",
    "StateGradients",
    "accumulate_weighted_products",
    "gradient_cache_decision_log",
    "plan_state_gradients",
    "projected_gradient_cache_nbytes",
    "trapezoid_weights",
]


# --------------------------------------------------------------------------- #
# decision log
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class GradientCacheDecision:
    """One cache/degrade decision with the inputs that produced it."""

    cached: bool
    num_levels: int
    num_points: int
    projected_bytes: int
    budget_bytes: int
    reason: str

    @property
    def mode(self) -> str:
        return "cached" if self.cached else "uncached"


class GradientCacheDecisionLog:
    """Process-wide record of gradient-cache decisions (counts + recent).

    Answers "did the iterate-scoped gradient cache actually engage this
    run, and if not, why" next to the plan pool's hit/miss statistics.
    """

    def __init__(self, recent: int = 8) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {}
        self._recent: Deque[GradientCacheDecision] = deque(maxlen=recent)

    def record(self, decision: GradientCacheDecision) -> None:
        with self._lock:
            self._counts[decision.mode] = self._counts.get(decision.mode, 0) + 1
            self._recent.append(decision)

    @property
    def total(self) -> int:
        with self._lock:
            return sum(self._counts.values())

    def counts(self) -> Dict[str, int]:
        """Decisions per mode, e.g. ``{"cached": 4, "uncached": 1}``."""
        with self._lock:
            return dict(sorted(self._counts.items()))

    def recent(self) -> Tuple[GradientCacheDecision, ...]:
        """The most recent decisions, oldest first."""
        with self._lock:
            return tuple(self._recent)

    def reset(self) -> None:
        with self._lock:
            self._counts.clear()
            self._recent.clear()


_decision_log = GradientCacheDecisionLog()


def gradient_cache_decision_log() -> GradientCacheDecisionLog:
    """The shared process-wide gradient-cache decision log."""
    return _decision_log


def _collect_gradient_cache_metrics() -> Dict[str, Dict[str, int]]:
    """Pull collector publishing cache decisions to the metrics registry."""
    counts = _decision_log.counts()
    if not counts:
        return {}
    return {
        "gradient_cache.decisions": {
            f"mode={mode}": count for mode, count in counts.items()
        }
    }


get_metrics_registry().register_collector(
    "gradient_cache_decisions", _collect_gradient_cache_metrics
)


# --------------------------------------------------------------------------- #
# time quadrature weights
# --------------------------------------------------------------------------- #
def trapezoid_weights(nt: int) -> np.ndarray:
    """Trapezoidal quadrature weights on ``nt + 1`` uniform time levels."""
    weights = np.full(nt + 1, 1.0 / nt)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return weights


# --------------------------------------------------------------------------- #
# gradient sources
# --------------------------------------------------------------------------- #
class StateGradients:
    """Per-level access to ``grad rho(., t_j)`` of one stored state history.

    Two concrete shapes share this interface: the cached stack (gradients
    materialized once, every access free) and the lazy source (every access
    recomputes, the historical cost profile).  Consumers only ever call
    :meth:`level`, so the choice is invisible to the numerics — the cached
    levels are built with the identical spectral calls the lazy path
    performs, making the two bitwise interchangeable.
    """

    #: True when :meth:`level` is a stored-array read (zero FFTs).
    cached: bool = False

    @property
    def num_levels(self) -> int:  # pragma: no cover - interface default
        raise NotImplementedError

    def level(self, j: int) -> np.ndarray:  # pragma: no cover - interface default
        """The gradient ``(3, N1, N2, N3)`` of time level *j*."""
        raise NotImplementedError


class CachedStateGradients(StateGradients):
    """Gradient levels served from a materialized ``(nt+1, 3, ...)`` stack."""

    cached = True

    def __init__(self, stack: np.ndarray) -> None:
        if stack.ndim != 5 or stack.shape[1] != 3:
            raise ValueError(
                f"gradient stack must have shape (nt+1, 3, N1, N2, N3), got {stack.shape}"
            )
        self._stack = stack

    @property
    def num_levels(self) -> int:
        return self._stack.shape[0]

    @property
    def nbytes(self) -> int:
        return self._stack.nbytes

    def level(self, j: int) -> np.ndarray:
        return self._stack[j]

    def stack(self) -> np.ndarray:
        """The whole (read-only) gradient stack."""
        return self._stack


class LazyStateGradients(StateGradients):
    """Gradient levels recomputed on demand (the uncached fallback).

    Exactly the historical per-level cost: one forward and three (batched)
    inverse transforms per access, never more than one ``(3, N1, N2, N3)``
    field resident at a time.
    """

    cached = False

    def __init__(self, operators: SpectralOperators, state_history: np.ndarray) -> None:
        self._operators = operators
        self._state_history = state_history

    @property
    def num_levels(self) -> int:
        return self._state_history.shape[0]

    def level(self, j: int) -> np.ndarray:
        return self._operators.gradient(self._state_history[j])


def projected_gradient_cache_nbytes(state_history: np.ndarray) -> int:
    """Byte size the cached gradient stack of *state_history* would occupy."""
    return 3 * int(np.asarray(state_history).nbytes)


def build_gradient_stack(
    operators: SpectralOperators, state_history: np.ndarray
) -> np.ndarray:
    """Materialize ``grad rho`` for every time level into one stack.

    Built level by level with the same
    :meth:`~repro.spectral.operators.SpectralOperators.gradient` calls the
    lazy path performs — the stored levels are bitwise identical to fresh
    recomputations, which is what makes cached and
    uncached solves interchangeable.  The stack is marked read-only: every
    mat-vec of its iterate reads it, so no consumer may scribble on it.
    """
    num_levels = state_history.shape[0]
    stack = np.empty((num_levels, 3, *state_history.shape[1:]), dtype=state_history.dtype)
    with trace_span("gradients.build", levels=num_levels, count=num_levels):
        for j in range(num_levels):
            stack[j] = operators.gradient(state_history[j])
    stack.flags.writeable = False
    return stack


def plan_state_gradients(
    operators: SpectralOperators, state_history: np.ndarray
) -> StateGradients:
    """Cache-or-degrade policy for one iterate's state-gradient levels.

    Builds the stack when the projected stack fits the
    ``REPRO_PLAN_POOL_BYTES`` budget (decided before anything is built);
    otherwise returns the lazy per-level source.  Every decision is recorded
    in :func:`gradient_cache_decision_log`.  The returned source owns its
    stack: it lives as long as the iterate that holds it.
    """
    state_history = np.asarray(state_history)
    num_levels = state_history.shape[0]
    num_points = int(np.prod(state_history.shape[1:], dtype=int))
    projected = projected_gradient_cache_nbytes(state_history)
    budget = get_plan_pool().max_bytes

    if budget <= 0:
        reason = "plan pool disabled (budget 0); nothing to budget the stack against"
        cached = False
    elif projected > budget:
        reason = (
            f"projected stack ({projected} B) exceeds the plan-pool budget "
            f"({budget} B); degrading to per-level recomputation"
        )
        cached = False
    else:
        reason = f"projected stack ({projected} B) fits the plan-pool budget ({budget} B)"
        cached = True

    _decision_log.record(
        GradientCacheDecision(
            cached=cached,
            num_levels=num_levels,
            num_points=num_points,
            projected_bytes=projected,
            budget_bytes=budget,
            reason=reason,
        )
    )
    if not cached:
        return LazyStateGradients(operators, state_history)
    return CachedStateGradients(build_gradient_stack(operators, state_history))


# --------------------------------------------------------------------------- #
# fused body-force quadrature
# --------------------------------------------------------------------------- #
def accumulate_weighted_products(
    weights: np.ndarray,
    pairs: Sequence[Tuple[np.ndarray, StateGradients]],
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Fused quadrature ``sum_j w_j * scalar_j * grad_j`` over time levels.

    Each pair is ``(scalar_history, gradients)`` with ``scalar_history`` of
    shape ``(nt+1, N1, N2, N3)``; the result is the accumulated
    ``(3, N1, N2, N3)`` vector field (the body force of Eq. 4, or its
    incremental counterpart of Eq. 5).  The weight application and the
    per-level products run through two pre-allocated scratch buffers — no
    fresh temporaries per level — in exactly the historical arithmetic
    order (``(w_j * scalar_j) * grad_j``, accumulated in time order), so
    the fused path is bitwise identical to the loop it replaced.
    """
    if not pairs:
        raise ValueError("at least one (scalar_history, gradients) pair is required")
    num_levels = len(weights)
    for scalars, gradients in pairs:
        if scalars.shape[0] != num_levels or gradients.num_levels != num_levels:
            raise ValueError(
                f"histories must carry {num_levels} time levels, got "
                f"{scalars.shape[0]} scalars / {gradients.num_levels} gradients"
            )
    shape = pairs[0][0].shape[1:]
    dtype = pairs[0][0].dtype
    if out is None:
        out = np.zeros((3, *shape), dtype=dtype)
    weighted_scalar = np.empty(shape, dtype=dtype)
    term = np.empty_like(out)
    for j in range(num_levels):
        for scalars, gradients in pairs:
            np.multiply(weights[j], scalars[j], out=weighted_scalar)
            np.multiply(weighted_scalar[None], gradients.level(j), out=term)
            out += term
    return out


def gradient_levels_of(
    operators: SpectralOperators,
    state_history: np.ndarray,
    gradients: Optional[StateGradients] = None,
) -> StateGradients:
    """Return *gradients* or a lazy per-level source over *state_history*.

    The normalization every consumer performs: callers that were handed an
    iterate-scoped source (cached or lazy) thread it through; callers
    without one (direct transport-solver use, hand-built iterates in tests)
    get the historical per-level behavior.
    """
    if gradients is not None:
        return gradients
    return LazyStateGradients(operators, state_history)
