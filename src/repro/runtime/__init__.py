"""Shared execution runtime: plan pool and cooperative cancellation.

The two dominant kernels of the paper's per-iteration cost — 3D FFTs and
semi-Lagrangian tricubic gathers — are planned and batched.  This subsystem
owns the *execution resources* behind both:

:mod:`repro.runtime.plan_pool`
    A process-wide LRU cache of what crosses solves — the distributed
    scatter plans that transport jobs with one velocity share — keyed by
    content, with byte-accurate memory accounting, a configurable budget
    (``REPRO_PLAN_POOL_BYTES`` / ``--plan-pool-bytes``) and
    hit/miss/eviction statistics.  The same budget decides what a
    registration keeps resident of its own per-velocity data (gather
    operators, gradient stack), which its problem owns and releases.
"""

from repro.runtime.cancellation import (
    CancelToken,
    CombinedCancelToken,
    SolveCancelled,
    check_cancelled,
)
from repro.runtime.plan_pool import (
    DEFAULT_POOL_BYTES,
    POOL_BYTES_ENV_VAR,
    PlanPool,
    PoolStats,
    array_fingerprint,
    configure_plan_pool,
    env_pool_budget,
    get_plan_pool,
    reset_plan_pool,
)

__all__ = [
    "CancelToken",
    "CombinedCancelToken",
    "SolveCancelled",
    "check_cancelled",
    "DEFAULT_POOL_BYTES",
    "POOL_BYTES_ENV_VAR",
    "PlanPool",
    "PoolStats",
    "array_fingerprint",
    "configure_plan_pool",
    "env_pool_budget",
    "get_plan_pool",
    "reset_plan_pool",
]
