"""Unified worker-pool manager for every threaded kernel.

PR 1 introduced ``REPRO_FFT_WORKERS`` for the threaded FFT engines; the
interpolation subsystem of PR 2 stayed single-threaded and every registry
managed its own threading ad hoc.  This module turns the pattern into one
process-wide resource policy:

* ``REPRO_WORKERS`` sets the shared default worker count of *every*
  subsystem.
* ``REPRO_FFT_WORKERS`` / ``REPRO_INTERP_WORKERS`` / ``REPRO_SERVICE_WORKERS``
  override it per subsystem (the FFT variable keeps its original semantics).
* :func:`set_default_workers` is the programmatic/CLI (``--workers``)
  equivalent of ``REPRO_WORKERS``; explicit per-call arguments (e.g.
  ``ScipyFFTBackend(workers=4)``) still win over everything.

Resolution precedence, first match wins::

    explicit argument > per-subsystem env > set_default_workers()
        > REPRO_WORKERS > subsystem default

The subsystem defaults differ by whether a thread can own a core, as each of
the paper's MPI tasks does: a Python thread only does inside native code that
released the GIL.  FFT engines thread inside one C call and default to all
cores; the stencil executor threads over point chunks in Python and defaults
to ``1``; so does the job service, whose workers run whole solves on kernels
that hold the GIL (measured at its :data:`SUBSYSTEMS` entry).  Pools are shared
per size (:func:`get_executor`): subsystems of one width never oversubscribe.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, Optional

#: Environment variable with the shared default worker count of every
#: subsystem (overridden per subsystem by the variables below).
WORKERS_ENV_VAR = "REPRO_WORKERS"

#: Per-subsystem override for the threaded FFT backends (PR-1 semantics).
FFT_WORKERS_ENV_VAR = "REPRO_FFT_WORKERS"

#: Per-subsystem override for the thread-pooled stencil executor.
INTERP_WORKERS_ENV_VAR = "REPRO_INTERP_WORKERS"

#: Per-subsystem override for the registration service's job workers.
SERVICE_WORKERS_ENV_VAR = "REPRO_SERVICE_WORKERS"


def _all_cores() -> int:
    return max(1, os.cpu_count() or 1)


def _one() -> int:
    return 1


@dataclass(frozen=True)
class SubsystemPolicy:
    """Environment variable and fallback default of one subsystem."""

    env_var: str
    default: Callable[[], int]


#: Known subsystems; future engines (GPU streams, distributed launchers)
#: register here by adding a policy.
SUBSYSTEMS: Dict[str, SubsystemPolicy] = {
    "fft": SubsystemPolicy(FFT_WORKERS_ENV_VAR, _all_cores),
    "interp": SubsystemPolicy(INTERP_WORKERS_ENV_VAR, _one),
    # repro.service: every worker thread drives whole solves, and ~70 % of a
    # solve (CSR gather product, spline_filter) holds the GIL, so two workers
    # time-slice one interpreter.  burst16 on 2 -> 1 workers (BENCH_20.json):
    # register job 0.35 -> 0.16 s, 9.2 -> 10.5 jobs/s, CPU 1.23x -> 0.95x wall.
    # Width > 1 (REPRO_SERVICE_WORKERS, num_workers=) buys only that a short
    # job never queues behind a long one, or an engine that releases the GIL.
    "service": SubsystemPolicy(SERVICE_WORKERS_ENV_VAR, _one),
}

_default_workers: Optional[int] = None
_executors: Dict[int, ThreadPoolExecutor] = {}
_lock = threading.Lock()


def set_default_workers(workers: Optional[int]) -> None:
    """Set (or clear, with ``None``) the process-wide default worker count.

    The programmatic twin of ``REPRO_WORKERS`` used by the CLI ``--workers``
    flag; per-subsystem environment variables still override it.
    """
    global _default_workers
    if workers is None:
        _default_workers = None
        return
    _default_workers = max(1, int(workers))


def _env_int(name: str) -> Optional[int]:
    value = os.environ.get(name, "").strip()
    if not value:
        return None
    try:
        return max(1, int(value))
    except ValueError as exc:
        raise ValueError(f"{name} must be an integer worker count, got {value!r}") from exc


def default_workers() -> Optional[int]:
    """The shared default alone: :func:`set_default_workers`, else ``$REPRO_WORKERS``, else None."""
    shared_env = _env_int(WORKERS_ENV_VAR)  # read even when overridden: a malformed value raises
    return _default_workers if _default_workers is not None else shared_env


def resolve_workers(subsystem: str, explicit: Optional[int] = None) -> int:
    """Resolve the worker count of *subsystem* under the unified policy."""
    try:
        policy = SUBSYSTEMS[subsystem]
    except KeyError as exc:
        raise ValueError(
            f"unknown worker subsystem {subsystem!r}; known: {tuple(sorted(SUBSYSTEMS))}"
        ) from exc
    if explicit is not None:
        return max(1, int(explicit))
    for resolved in (_env_int(policy.env_var), default_workers()):
        if resolved is not None:
            return resolved
    return policy.default()


def get_executor(workers: int) -> ThreadPoolExecutor:
    """Shared :class:`ThreadPoolExecutor` of the given width (process-wide).

    Pools are created lazily and kept for the process lifetime, so repeated
    kernel launches never pay thread start-up costs (the "pooled context"
    of the FFT backends, generalized).
    """
    workers = max(1, int(workers))
    with _lock:
        executor = _executors.get(workers)
        if executor is None:
            executor = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix=f"repro-runtime-{workers}"
            )
            _executors[workers] = executor
        return executor


def shutdown_executors() -> None:
    """Shut down every shared executor (used by tests)."""
    with _lock:
        for executor in _executors.values():
            executor.shutdown(wait=True)
        _executors.clear()
