"""Unified registration configuration (:class:`RegistrationConfig`).

PRs 1-5 grew the runtime a knob at a time — ``REPRO_FFT_BACKEND``,
``REPRO_INTERP_BACKEND``, ``REPRO_WORKERS``, ``REPRO_PLAN_POOL_BYTES`` —
each with its own environment variable, CLI flag and keyword argument.
Every entry point (the CLI, :func:`repro.register`, the benchmarks, and
now the job service) re-implemented the same resolve-and-apply dance.
This module consolidates
the scattered knobs into one frozen dataclass that every entry point
accepts:

* :meth:`RegistrationConfig.from_env` snapshots the *effective* environment
  configuration (useful for artifacts: "what configuration produced this
  result"),
* :meth:`RegistrationConfig.apply` validates every field and pushes the
  process-wide ones (worker default, pool budget, gradient cache,
  tracing) into the runtime — fields left at ``None`` keep the
  environment/default behavior untouched,
* :meth:`RegistrationConfig.replace` derives a variant (the CLI layers its
  flags over a base config this way).

Precedence, first match wins (unchanged from the pre-config behavior —
the config object slots in where the scattered kwargs used to be)::

    explicit kwarg / CLI flag  >  RegistrationConfig field  >
        per-subsystem env var  >  shared env var  >  built-in default

The legacy keyword arguments (``register(..., fft_backend=...)``) keep
working through a deprecation shim in :mod:`repro.core.registration` that
warns once per process.
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
from repro.runtime.workers import default_workers, resolve_workers, set_default_workers
from repro.spectral import backends as fft_backends
from repro.transport import kernels as interp_kernels

__all__ = [
    "HTTP_PORT_ENV_VAR",
    "RegistrationConfig",
    "SERVICE_CLASS_WEIGHTS_ENV_VAR",
    "SERVICE_JOURNAL_ENV_VAR",
    "env_http_port",
    "env_service_class_weights",
    "env_service_journal",
]

#: Directory of the durable job journal; set = every service submission is
#: journaled and unfinished jobs re-queue on the next service start.
SERVICE_JOURNAL_ENV_VAR = "REPRO_SERVICE_JOURNAL"

#: Default port of the ``repro-serve --http`` front (flag overrides env).
HTTP_PORT_ENV_VAR = "REPRO_HTTP_PORT"

#: Claim-weight overrides of the queue's weighted fair scheduling, e.g.
#: ``interactive=4,atlas-burst=1``.
SERVICE_CLASS_WEIGHTS_ENV_VAR = "REPRO_SERVICE_CLASS_WEIGHTS"


def env_service_journal() -> Optional[str]:
    """``$REPRO_SERVICE_JOURNAL`` (journal directory), or ``None``."""
    value = os.environ.get(SERVICE_JOURNAL_ENV_VAR, "").strip()
    return value or None


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


def env_service_class_weights() -> Dict[str, float]:
    """``$REPRO_SERVICE_CLASS_WEIGHTS`` parsed into ``{class: weight}``.

    Format: comma-separated ``class=weight`` entries, e.g.
    ``interactive=4,atlas-burst=1``.  Malformed entries raise with the
    variable name and the expected format (the clean-error path shared by
    every ``REPRO_*`` knob).
    """
    value = os.environ.get(SERVICE_CLASS_WEIGHTS_ENV_VAR, "").strip()
    if not value:
        return {}
    weights: Dict[str, float] = {}
    for entry in value.split(","):
        entry = entry.strip()
        if not entry:
            continue
        name, sep, raw = entry.partition("=")
        name = name.strip()
        try:
            weight = float(raw.strip()) if sep else float("nan")
        except ValueError:
            weight = float("nan")
        if not sep or not name or not weight > 0:
            raise ValueError(
                f"{SERVICE_CLASS_WEIGHTS_ENV_VAR} entries must look like "
                f"'class=positive_weight' (e.g. 'interactive=4,atlas-burst=1'), "
                f"got {entry!r}"
            )
        weights[name] = weight
    return weights


@dataclass(frozen=True)
class RegistrationConfig:
    """Consolidated execution configuration of one registration entry point.

    Every field defaults to ``None`` = "defer to the environment / built-in
    default", so ``RegistrationConfig()`` is always a valid no-op config.

    Parameters
    ----------
    fft_backend:
        FFT engine name (``"numpy"``, ``"scipy"``, ``"pyfftw"``).
    interp_backend:
        Semi-Lagrangian gather engine name (``"scipy"``, ``"numpy"``,
        ``"numba"``).
    workers:
        Shared default worker count for threaded kernels (the
        ``REPRO_WORKERS`` / ``--workers`` knob); per-subsystem environment
        variables still override it.
    plan_pool_bytes:
        Byte budget of the shared execution-plan pool (``0`` disables
        caching).
    gradient_cache:
        Enable the per-iterate state-gradient cache
        (:mod:`repro.core.gradients`; the ``REPRO_GRADIENT_CACHE`` knob).
        ``False`` restores the paper's uncached ``8 nt``-FFT mat-vec cost
        model; results are bitwise identical either way.
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

    fft_backend: Optional[str] = None
    interp_backend: Optional[str] = None
    workers: Optional[int] = None
    plan_pool_bytes: Optional[int] = None
    gradient_cache: Optional[bool] = None
    trace: Optional[bool] = None
    trace_out: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers is not None and int(self.workers) < 1:
            raise ValueError(f"workers must be a positive count, got {self.workers}")
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
        changes later (``workers``: the *shared* default only, ``None`` when
        unset, so that ``from_env().apply()`` changes no subsystem's count).
        Malformed environment values raise here with the valid choices.
        """
        # imported lazily: repro.core.registration imports this module, so a
        # top-level import of repro.core.* here would be circular
        from repro.core.gradients import gradient_cache_enabled

        return cls(
            fft_backend=fft_backends.default_backend_name(),
            interp_backend=interp_kernels.default_backend_name(),
            workers=default_workers(),
            plan_pool_bytes=get_plan_pool().max_bytes,
            gradient_cache=gradient_cache_enabled(),
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
        fft_backends.get_backend(self.fft_backend)
        interp_kernels.get_backend(self.interp_backend)
        from repro.core.gradients import env_gradient_cache_enabled

        env_gradient_cache_enabled()  # validate $REPRO_GRADIENT_CACHE
        env_pool_budget()  # ... and $REPRO_PLAN_POOL_BYTES
        env_trace_enabled()  # ... and $REPRO_TRACE
        env_http_port()  # ... and $REPRO_HTTP_PORT
        env_service_class_weights()  # ... and $REPRO_SERVICE_CLASS_WEIGHTS
        for subsystem in ("fft", "interp", "service"):  # ... and the worker vars
            resolve_workers(subsystem)
        return self

    def apply(self) -> "RegistrationConfig":
        """Validate, then push the process-wide knobs into the runtime.

        Only fields that are set are applied; ``None`` fields leave the
        corresponding runtime state (and any prior override) untouched, so
        applying a partial config never clobbers another entry point's
        explicit choices.
        """
        self.validate()
        if self.workers is not None:
            set_default_workers(self.workers)
        if self.plan_pool_bytes is not None:
            configure_plan_pool(self.plan_pool_bytes)
        if self.gradient_cache is not None:
            from repro.core.gradients import set_gradient_cache_enabled

            set_gradient_cache_enabled(self.gradient_cache)
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
