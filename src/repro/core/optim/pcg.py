"""Matrix-free preconditioned conjugate gradients (PCG).

The Newton step is computed by solving ``H(v) v~ = -g(v)`` with PCG
(Sec. III-A).  The operator is only available as a mat-vec (two transport
solves per application), so the implementation is fully matrix-free, and it
takes the space its vectors live in: it adds and scales arrays and asks the
*space* for inner products and norms.  The Newton driver iterates on ``rfftn``
half-spectra of velocity fields (:class:`~repro.spectral.fft.FourierTransform`
is that space), where the preconditioner and the Leray projection are diagonal
and cost no transform; a :class:`~repro.spectral.grid.Grid` is the space of
the fields themselves.  The solve is *inexact*: the relative tolerance is the
Eisenstat-Walker forcing term chosen by the outer Newton iteration.

The one safeguard follows standard Newton-Krylov practice (e.g. Nocedal &
Wright): if a direction of negative curvature is encountered the iteration
stops and returns the current iterate, flagged ``negative_curvature``.  On
the first iteration that iterate is zero, and the Newton driver takes its
gradient step instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Protocol

import numpy as np

from repro.observability.trace import trace_span
from repro.runtime.cancellation import check_cancelled
from repro.utils.logging import get_logger

LOGGER = get_logger("core.optim.pcg")

MatVec = Callable[[np.ndarray], np.ndarray]


class VectorSpace(Protocol):
    """What :func:`pcg` needs of the space its iterates live in."""

    def inner(self, a: np.ndarray, b: np.ndarray) -> float: ...

    def norm(self, a: np.ndarray) -> float: ...


@dataclass
class PCGResult:
    """Outcome of a PCG solve."""

    solution: np.ndarray
    iterations: int
    residual_norms: List[float] = field(default_factory=list)
    converged: bool = False
    negative_curvature: bool = False


def pcg(
    matvec: MatVec,
    rhs: np.ndarray,
    space: VectorSpace,
    preconditioner: Optional[MatVec] = None,
    rel_tol: float = 1e-2,
    max_iterations: int = 100,
    cancel_token: Optional[object] = None,
) -> PCGResult:
    """Solve ``H x = rhs`` with preconditioned conjugate gradients from ``x = 0``.

    Each iteration applies *matvec* once, so ``iterations`` is the number of
    mat-vecs.

    Parameters
    ----------
    matvec:
        Callable applying the SPD operator ``H`` to an array of *space*.
    rhs:
        Right-hand side (``-g`` for the Newton system).
    space:
        Defines the inner product (mesh-weighted L2) of the arrays iterated
        on: a :class:`~repro.spectral.grid.Grid` for fields, a
        :class:`~repro.spectral.fft.FourierTransform` for their half-spectra.
    preconditioner:
        Callable applying ``M^{-1}``; identity when omitted.
    rel_tol:
        Relative residual tolerance (the forcing term of the inexact Newton
        method).
    max_iterations:
        Hard cap on the number of mat-vecs.
    cancel_token:
        Optional cooperative cancellation token
        (:class:`repro.runtime.cancellation.CancelToken`).  Polled before
        every mat-vec — a Krylov solve runs up to ``max_iterations``
        Hessian applications (seconds to minutes at production grids), far
        too long to defer cancellation to the outer Newton loop.  When set,
        :class:`~repro.runtime.cancellation.SolveCancelled` is raised
        between iterations, never mid-mat-vec.

    Returns
    -------
    PCGResult
        Solution, iteration count, residual history and status flags.
    """
    if rel_tol < 0:
        raise ValueError(f"rel_tol must be non-negative, got {rel_tol}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    rhs = np.asarray(rhs)

    apply_prec = preconditioner if preconditioner is not None else (lambda r: r)

    x = np.zeros_like(rhs)
    r = rhs.copy()
    p = np.array(apply_prec(r))  # a copy: the identity hands back r itself
    rz = space.inner(r, p)

    r_norm = space.norm(r)
    residual_norms = [r_norm]
    # the relative tolerance is measured against ||rhs|| (scipy convention)
    target = rel_tol * r_norm

    if r_norm <= target:
        return PCGResult(solution=x, iterations=0, residual_norms=residual_norms, converged=True)

    negative_curvature = False
    converged = False
    iterations = 0
    for iteration in range(max_iterations):
        # cooperative cancellation: the safe point between Krylov
        # iterations — x/r/p are consistent, no mat-vec is in flight
        check_cancelled(cancel_token, "pcg solve")
        with trace_span("pcg.matvec", iteration=iteration):
            hp = matvec(p)
        curvature = space.inner(p, hp)
        iterations = iteration + 1
        if curvature <= 0.0:
            # negative (or zero) curvature: stop with the iterate so far
            negative_curvature = True
            LOGGER.debug("PCG detected non-positive curvature at iteration %d", iteration)
            break
        alpha = rz / curvature
        x += alpha * p
        r -= alpha * hp
        del hp  # x, r and p are all the next mat-vec needs alive
        r_norm = space.norm(r)
        residual_norms.append(r_norm)
        if r_norm <= target:
            converged = True
            break
        z = apply_prec(r)
        rz_new = space.inner(r, z)
        # p <- z + (rz_new / rz) p in p's own array: the same bits, no fourth vector
        p *= rz_new / rz
        p += z
        del z
        rz = rz_new

    return PCGResult(
        solution=x,
        iterations=iterations,
        residual_norms=residual_norms,
        converged=converged,
        negative_curvature=negative_curvature,
    )
