"""The two settings a process reads from its environment.

``REPRO_PLAN_POOL_BYTES`` (the plan pool's budget) and ``REPRO_TRACE`` (the
tracing flag) are read below every public call, where no argument reaches,
so they stay environment variables; the CLI's ``--plan-pool-bytes`` and
``--trace`` set the same process-wide state through
:func:`~repro.runtime.plan_pool.configure_plan_pool` and
:func:`~repro.observability.trace.enable_tracing`.  Every other setting is a
parameter of the object that reads it or a flag of the command that reads
it.
"""

from __future__ import annotations

from repro.observability.trace import env_trace_enabled
from repro.runtime.plan_pool import env_pool_budget

__all__ = ["check_environment"]


def check_environment() -> None:
    """Parse both variables; a malformed one is a :class:`ValueError` naming it.

    :func:`repro.register`, :class:`~repro.core.registration.RegistrationSolver`,
    :class:`~repro.service.RegistrationService` and the console scripts call
    this before any work, so a bad value fails there instead of lazily, deep
    inside a solve.  Nothing is written.
    """
    env_pool_budget()
    env_trace_enabled()
