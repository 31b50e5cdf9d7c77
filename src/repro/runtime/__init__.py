"""Shared execution runtime: plan pool and unified worker pools.

PRs 1-2 made the two dominant kernels of the paper's per-iteration cost —
3D FFTs and semi-Lagrangian tricubic gathers — pluggable, planned and
batched.  This subsystem owns the *execution resources* behind both kernel
registries:

:mod:`repro.runtime.plan_pool`
    A process-wide LRU cache of per-velocity plans keyed by content
    (grid, velocity fingerprint, kernel, backend) with byte-accurate
    memory accounting, a configurable budget (``REPRO_PLAN_POOL_BYTES`` /
    ``--plan-pool-bytes``) and hit/miss/eviction statistics.  It carries
    warm plans across the line search, across ``beta``-continuation levels
    and across repeated distributed scatter plans.

:mod:`repro.runtime.workers`
    One resource policy for every threaded kernel: ``REPRO_WORKERS`` sets
    the shared default, ``REPRO_FFT_WORKERS`` / ``REPRO_INTERP_WORKERS``
    override per subsystem, and thread pools are shared per width so the
    subsystems never stack separate pools on the same cores.

GPU engines and distributed launchers added through the backend registries
should acquire their plans and workers here so they inherit the same
lifecycle (budgeting, eviction, statistics) without re-implementing it.
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
    key_tag,
    reset_plan_pool,
)
from repro.runtime.workers import (
    FFT_WORKERS_ENV_VAR,
    INTERP_WORKERS_ENV_VAR,
    IO_WORKERS_ENV_VAR,
    SERVICE_WORKERS_ENV_VAR,
    WORKERS_ENV_VAR,
    get_executor,
    get_subsystem_executor,
    resolve_workers,
    set_default_workers,
    shutdown_executors,
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
    "key_tag",
    "reset_plan_pool",
    "FFT_WORKERS_ENV_VAR",
    "INTERP_WORKERS_ENV_VAR",
    "IO_WORKERS_ENV_VAR",
    "SERVICE_WORKERS_ENV_VAR",
    "WORKERS_ENV_VAR",
    "get_executor",
    "get_subsystem_executor",
    "resolve_workers",
    "set_default_workers",
    "shutdown_executors",
]
