"""Unified registration configuration (:class:`RegistrationConfig`).

The runtime knobs — ``REPRO_PLAN_POOL_BYTES``, ``REPRO_TRACE``,
``REPRO_TRACE_OUT`` — each have an environment variable and a CLI flag.
This module consolidates them into one frozen dataclass that every entry
point (the CLI, :func:`repro.register`, the benchmarks, the job service)
accepts:

* :meth:`RegistrationConfig.from_env` snapshots the *effective* environment
  configuration (useful for artifacts: "what configuration produced this
  result"),
* :meth:`RegistrationConfig.apply` validates every field and pushes the
  process-wide ones (pool budget, tracing) into the
  runtime — fields left at ``None`` keep the environment/default behavior
  untouched,
* :meth:`RegistrationConfig.replace` derives a variant (the CLI layers its
  flags over a base config this way).

Precedence, first match wins::

    explicit kwarg / CLI flag  >  RegistrationConfig field  >  env var  >
        built-in default

The job service's own knobs (journal, HTTP port, width) are
read here too, by the ``env_*`` helpers below.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Dict, Optional

from repro.observability.trace import (
    disable_tracing,
    enable_tracing,
    env_trace_enabled,
    env_trace_out,
    tracing_enabled,
)
from repro.runtime.plan_pool import configure_plan_pool, env_pool_budget, get_plan_pool

__all__ = [
    "DEFAULT_SERVICE_WORKERS",
    "HTTP_PORT_ENV_VAR",
    "RegistrationConfig",
    "SERVICE_JOURNAL_ENV_VAR",
    "SERVICE_WORKERS_ENV_VAR",
    "env_http_port",
    "env_service_journal",
    "env_service_workers",
]

#: Directory of the durable job journal; set = every service submission is
#: journaled and unfinished jobs re-queue on the next service start.
SERVICE_JOURNAL_ENV_VAR = "REPRO_SERVICE_JOURNAL"

#: Default port of the ``repro-serve --http`` front (flag overrides env).
HTTP_PORT_ENV_VAR = "REPRO_HTTP_PORT"

#: Worker threads of the registration service (``num_workers=`` overrides).
SERVICE_WORKERS_ENV_VAR = "REPRO_SERVICE_WORKERS"

#: Service width when neither ``num_workers=`` nor the variable is set.  Every
#: worker thread drives whole solves, and most of a solve (the CSR gather
#: product, the window copies) holds the GIL, so two workers time-slice one
#: interpreter.  burst16 on 2 -> 1 workers (BENCH_20.json): register job
#: 0.35 -> 0.16 s, 9.2 -> 10.5 jobs/s, CPU 1.23x -> 0.95x wall.  Width > 1
#: buys only that a short job never queues behind a long one.
DEFAULT_SERVICE_WORKERS = 1


def env_service_journal() -> Optional[str]:
    """``$REPRO_SERVICE_JOURNAL`` (journal directory), or ``None``."""
    value = os.environ.get(SERVICE_JOURNAL_ENV_VAR, "").strip()
    return value or None


def env_service_workers() -> Optional[int]:
    """``$REPRO_SERVICE_WORKERS`` as a worker count (at least 1), or ``None``."""
    value = os.environ.get(SERVICE_WORKERS_ENV_VAR, "").strip()
    if not value:
        return None
    try:
        return max(1, int(value))
    except ValueError:
        raise ValueError(
            f"{SERVICE_WORKERS_ENV_VAR} must be an integer worker count, got {value!r}"
        ) from None


def env_http_port() -> Optional[int]:
    """``$REPRO_HTTP_PORT`` as a validated port number, or ``None``."""
    value = os.environ.get(HTTP_PORT_ENV_VAR, "").strip()
    if not value:
        return None
    try:
        port = int(value)
    except ValueError:
        raise ValueError(
            f"{HTTP_PORT_ENV_VAR} must be an integer port, got {value!r}"
        ) from None
    if not 0 <= port <= 65535:
        raise ValueError(f"{HTTP_PORT_ENV_VAR} must lie in [0, 65535], got {port}")
    return port


@dataclass(frozen=True)
class RegistrationConfig:
    """Consolidated execution configuration of one registration entry point.

    Every field defaults to ``None`` = "defer to the environment / built-in
    default", so ``RegistrationConfig()`` is always a valid no-op config.

    Parameters
    ----------
    plan_pool_bytes:
        Byte budget of the shared execution-plan pool (``0`` disables
        caching).  It is also the residency budget of the per-iterate
        state-gradient stack (:mod:`repro.core.gradients`): ``0`` restores
        the paper's uncached ``8 nt``-FFT mat-vec, bitwise identically.
    trace:
        Enable structured tracing spans (the ``REPRO_TRACE`` / ``--trace``
        knob).  Applying ``trace=True`` turns the process-wide recorder on;
        ``None`` defers to the environment.  Tracing never changes results
        — spans observe the kernels, the numerics are untouched.
    trace_out:
        Path for the Chrome trace-event JSON export (the
        ``REPRO_TRACE_OUT`` / ``--trace-out`` knob).  Consumed by the CLI
        after the solve; setting it implies ``trace`` unless tracing was
        explicitly disabled.
    """

    plan_pool_bytes: Optional[int] = None
    trace: Optional[bool] = None
    trace_out: Optional[str] = None

    def __post_init__(self) -> None:
        if self.plan_pool_bytes is not None and int(self.plan_pool_bytes) < 0:
            raise ValueError(
                f"plan_pool_bytes must be non-negative, got {self.plan_pool_bytes}"
            )

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_env(cls) -> "RegistrationConfig":
        """Snapshot the *effective* configuration of this process.

        Resolves every knob the way the solvers would (environment variable,
        process-wide override, or built-in default) and freezes the concrete
        values, so the snapshot is reproducible even if the environment
        changes later.  Malformed environment values raise here with the
        valid choices.
        """
        return cls(
            plan_pool_bytes=get_plan_pool().max_bytes,
            trace=tracing_enabled() or bool(env_trace_enabled()),
            trace_out=env_trace_out(),
        )

    def replace(self, **changes: object) -> "RegistrationConfig":
        """A copy with *changes* applied (:func:`dataclasses.replace`)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------ #
    # application
    # ------------------------------------------------------------------ #
    def validate(self) -> "RegistrationConfig":
        """Resolve every knob (set or environmental) for a clean early error.

        Nothing is mutated: this is the validation the CLI used to run
        before starting a solve, factored into the config object.
        """
        env_pool_budget()  # validate $REPRO_PLAN_POOL_BYTES
        env_trace_enabled()  # ... and $REPRO_TRACE
        env_http_port()  # ... and $REPRO_HTTP_PORT
        env_service_workers()  # ... and $REPRO_SERVICE_WORKERS
        return self

    def apply(self) -> "RegistrationConfig":
        """Validate, then push the process-wide knobs into the runtime.

        Only fields that are set are applied; ``None`` fields leave the
        corresponding runtime state (and any prior override) untouched, so
        applying a partial config never clobbers another entry point's
        explicit choices.
        """
        self.validate()
        if self.plan_pool_bytes is not None:
            configure_plan_pool(self.plan_pool_bytes)
        if self.trace is not None:
            if self.trace:
                enable_tracing()
            else:
                disable_tracing()
        elif self.trace_out is not None:
            enable_tracing()
        return self

    # ------------------------------------------------------------------ #
    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view (``None`` fields mean "environment default")."""
        return dataclasses.asdict(self)
