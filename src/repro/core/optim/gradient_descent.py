"""(Preconditioned) gradient descent — the baseline optimizer.

The paper argues that "most registration packages use steepest descent
(first order) methods ... However, steepest descent methods only have a
linear convergence rate" (Sec. II-B) and motivates the Gauss-Newton-Krylov
scheme by its superior convergence.  This baseline reproduces that claim
quantitatively (``benchmarks/bench_ablation_optimizer_baseline.py``).
"""

from __future__ import annotations

from repro.core.optim.gauss_newton import GaussNewtonKrylov


class GradientDescent(GaussNewtonKrylov):
    """Preconditioned steepest descent with the Newton driver's loop.

    Every step is the driver's fallback, ``d = -M^{-1} g(v)`` with ``M^{-1}``
    the problem's preconditioner — for the registration the spectral one
    (the "preconditioned gradient descent" of the GPU LDDMM codes cited in
    the related work) — under the same Armijo search, cancellation, budget
    and termination criteria.  The Krylov options are ignored; each record
    reads forcing term 0, no PCG iterations, no Hessian mat-vecs and
    ``gradient_fallback``.
    """

    def _step(self, iterate, preconditioner, initial_gradient_norm):
        return None, 0.0, 0, False
