"""Job records, specs and handles of the registration service.

A *job* is one unit of queued work: either a full registration solve
(:class:`RegistrationJobSpec`, executed through the ordinary
:func:`repro.register` path so the service is a thin facade over
:class:`~repro.core.problem.RegistrationProblem`, never a second code
path), or a distributed transport solve (:class:`TransportJobSpec` — apply
a velocity to a field, e.g. the atlas normalization pass), which the
micro-batcher can merge with compatible neighbours into one
``solve_state_many`` stack.

The submitting thread holds a :class:`Job` *handle*; the service mutates
the underlying :class:`JobRecord` as the job moves through its lifecycle::

    QUEUED -> RUNNING -> DONE
                      -> FAILED     (worker exception; traceback recorded)
                      -> CANCELLED  (cancel(force=True): the cooperative
                                     token stops the solve at its next
                                     safe point)
    QUEUED -> CANCELLED             (cancel() before a worker claimed it)

A worker exception never poisons the queue: the failure is recorded on the
job (``status=failed`` + traceback text) and the worker moves on; waiting
callers are released and see :class:`JobFailedError` when they ask for the
result.

Job identifiers are strings of the form ``"<seq>-<suffix>"``: a process-
local monotonic sequence number (submission order stays readable) plus a
random 8-hex-digit suffix, so two service processes — or one service
restarted over the same artifact/journal directory — can never collide on
``job-<id>.json`` and silently overwrite each other's artifacts.  Jobs
recovered from the journal keep their original id, which keeps their
artifact path stable across the restart.

Every spec carries a ``job_class`` (:data:`JOB_CLASS_INTERACTIVE` by
default; the atlas driver submits :data:`JOB_CLASS_ATLAS`): the queue's
weighted claiming uses it so population bursts cannot starve interactive
single registrations.
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from dataclasses import dataclass, field as dataclass_field
from enum import Enum
from typing import Any, Dict, Optional

import numpy as np

from repro.core.optim.gauss_newton import SolverOptions
from repro.core.registration import check_image_pair, check_settings, json_safe
from repro.parallel.pencil import PencilDecomposition
from repro.parallel.transport import check_ghost_width
from repro.runtime.cancellation import CancelToken
from repro.spectral.grid import Grid
from repro.utils.validation import (
    check_finite,
    check_positive_int,
    check_real_dtype,
    check_shape_3d,
)

__all__ = [
    "JOB_CLASS_ATLAS",
    "JOB_CLASS_INTERACTIVE",
    "Job",
    "JobCancelledError",
    "JobFailedError",
    "JobRecord",
    "JobStatus",
    "RegistrationJobSpec",
    "TransportJobSpec",
    "json_safe",
    "new_job_id",
]

#: Default job class: latency-sensitive single submissions.
JOB_CLASS_INTERACTIVE = "interactive"

#: Job class of population (atlas) bursts: throughput-oriented, claimed
#: with a lower weight so interactive jobs keep flowing.
JOB_CLASS_ATLAS = "atlas-burst"


def _check_job_class(job_class: Any) -> None:
    if not isinstance(job_class, str) or not job_class:
        raise ValueError(f"job_class must be a non-empty string, got {job_class!r}")


def _check_values(array: Any, name: str) -> None:
    """Real floating-point or integer values (``TypeError``), all finite."""
    array = np.asarray(array)
    check_real_dtype(array.dtype, name)
    check_finite(array, name)


class JobStatus(str, Enum):
    """Lifecycle state of one service job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def finished(self) -> bool:
        """True for the three terminal states."""
        return self in (JobStatus.DONE, JobStatus.FAILED, JobStatus.CANCELLED)


class JobFailedError(RuntimeError):
    """Raised by :meth:`Job.result` when the worker raised.

    Carries the failed job's record so callers can reach the original
    exception text and traceback without digging through the service.
    """

    def __init__(self, record: "JobRecord") -> None:
        super().__init__(
            f"job {record.job_id} ({record.kind}) failed: {record.error}"
        )
        self.record = record


class JobCancelledError(RuntimeError):
    """Raised by :meth:`Job.result` for a cancelled job.

    Covers both flavours: cancelled while still queued (never ran) and
    cancelled cooperatively while running (``cancel(force=True)``).
    """


@dataclass
class RegistrationJobSpec:
    """One queued registration: the arguments of :func:`repro.register`.

    ``kind = "register"``.  Registrations are never merged by the
    micro-batcher (each solve is an independent Gauss-Newton iteration);
    what they share across requests is the spectral symbol store and the
    worker pools.

    The fields are :func:`repro.register`'s parameters, with its defaults,
    plus ``job_class``.  The constructor defines a valid job (the jobspec
    decoder builds specs through it, from the client's values as sent) and
    raises before anything is journaled or queued: for
    an image pair :func:`~repro.core.registration.check_image_pair` refuses,
    an empty ``job_class``, ``options`` that are not a ``SolverOptions``
    (``TypeError``), and every setting
    :func:`~repro.core.registration.check_settings` or
    :class:`~repro.core.optim.gauss_newton.SolverOptions` refuses.
    """

    template: np.ndarray
    reference: np.ndarray
    beta: float = 1e-2
    regularization: str = "h1"
    incompressible: bool = False
    num_time_steps: int = 4
    gauss_newton: bool = True
    optimizer: str = "gauss_newton"
    smooth_sigma: float = 1.0
    options: Optional[SolverOptions] = None
    grid: Optional[Grid] = None
    job_class: str = JOB_CLASS_INTERACTIVE

    kind = "register"

    def __post_init__(self) -> None:
        _check_job_class(self.job_class)
        check_image_pair(self.template, self.reference, self.grid)
        check_settings(self)
        if self.options is not None and not isinstance(self.options, SolverOptions):
            raise TypeError(
                f"options must be a SolverOptions or None, got {type(self.options).__name__}"
            )


@dataclass
class TransportJobSpec:
    """One queued (distributed, pure-advection) transport solve.

    ``kind = "transport"``.  Transport the scalar *moving* field over
    ``t in [0, 1]`` with *velocity* on a simulated ``num_tasks``-rank pencil
    decomposition.  Jobs that agree on (grid, time step, task layout
    **and velocity content**) are
    micro-batched: the whole group ships through one
    :meth:`~repro.parallel.transport.DistributedTransportSolver.solve_state_many`
    stack — one ghost-exchange round and one return ``alltoallv`` per time
    step for the entire batch — with results bitwise identical to running
    every job alone.

    The constructor raises, as :class:`RegistrationJobSpec`'s does, for a
    *moving* field that is not 3-D, a *velocity* that is not
    ``(3, *moving.shape)``, a ``grid`` of another shape, arrays holding a
    NaN or an infinity or not real, counts below one, an empty
    ``job_class`` and a ``num_tasks`` :meth:`decomposition` refuses.
    """

    velocity: np.ndarray
    moving: np.ndarray
    num_time_steps: int = 4
    num_tasks: int = 4
    grid: Optional[Grid] = None
    job_class: str = JOB_CLASS_INTERACTIVE

    kind = "transport"

    def __post_init__(self) -> None:
        _check_job_class(self.job_class)
        shape = check_shape_3d(np.shape(self.moving), "moving shape")
        if np.shape(self.velocity) != (3, *shape):
            raise ValueError(
                f"velocity must have shape {(3, *shape)} for a moving image of "
                f"shape {shape}, got {np.shape(self.velocity)}"
            )
        if self.grid is not None and self.grid.shape != shape:
            raise ValueError(
                f"grid shape {self.grid.shape} does not match the image shape {shape}"
            )
        _check_values(self.moving, "moving")
        _check_values(self.velocity, "velocity")
        check_positive_int(self.num_time_steps, "num_time_steps")
        check_positive_int(self.num_tasks, "num_tasks")
        self.decomposition()

    def resolved_grid(self) -> Grid:
        """The job's grid (built from the field shape when not given)."""
        return self.grid if self.grid is not None else Grid(self.moving.shape)

    def decomposition(self) -> PencilDecomposition:
        """The job's pencil decomposition; ``ValueError`` when it cannot run.

        ``num_tasks`` must factor into a process grid that fits the grid and
        leaves every pencil at least as wide as the ghost layers
        (:func:`~repro.parallel.transport.check_ghost_width`).
        """
        return check_ghost_width(
            PencilDecomposition.from_num_tasks(self.resolved_grid().shape, self.num_tasks)
        )


@dataclass
class JobRecord:
    """Mutable service-side state of one job (shared with the handle)."""

    job_id: str
    kind: str
    status: JobStatus = JobStatus.QUEUED
    job_class: str = JOB_CLASS_INTERACTIVE
    submitted_at: float = dataclass_field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    batch_size: int = 1
    error: Optional[str] = None
    traceback: Optional[str] = None
    metrics: Dict[str, Any] = dataclass_field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready view (the job section of the artifact schema).

        Metrics are coerced through :func:`json_safe`: numpy scalars from
        the ledger/pool statistics must never poison the artifact write.
        """
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "status": self.status.value,
            "job_class": self.job_class,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "batch_size": self.batch_size,
            "error": self.error,
            "traceback": self.traceback,
            "metrics": json_safe(self.metrics),
        }


_job_seq = itertools.count(1)


def new_job_id() -> str:
    """A collision-free job id: ``"<seq>-<8 hex>"``.

    The monotonic sequence number preserves human-readable submission
    order within one process; the random suffix makes ids (and therefore
    ``job-<id>.json`` artifact paths) unique across processes and across
    restarts of the same artifact directory.
    """
    return f"{next(_job_seq)}-{uuid.uuid4().hex[:8]}"


class Job:
    """Caller-side handle of one submitted job.

    *job_id* is normally minted by :func:`new_job_id`; the journal's
    recovery path passes the original id through so a re-queued job keeps
    its artifact path.
    """

    def __init__(self, spec, service, job_id: Optional[str] = None) -> None:
        self.spec = spec
        self.record = JobRecord(
            job_id=job_id if job_id is not None else new_job_id(),
            kind=spec.kind,
            job_class=getattr(spec, "job_class", JOB_CLASS_INTERACTIVE),
        )
        self.cancel_token = CancelToken()
        self._service = service
        self._done = threading.Event()
        self._result: Any = None

    # ------------------------------------------------------------------ #
    @property
    def job_id(self) -> str:
        return self.record.job_id

    @property
    def job_class(self) -> str:
        return self.record.job_class

    @property
    def status(self) -> JobStatus:
        return self.record.status

    @property
    def done(self) -> bool:
        return self._done.is_set()

    # ------------------------------------------------------------------ #
    def cancel(self, force: bool = False) -> bool:
        """Cancel the job.

        A still-queued job is removed from the queue atomically (it will
        never run; waiting callers see :class:`JobCancelledError`) and the
        method returns ``True``.  Once a worker claimed the job, plain
        ``cancel()`` returns ``False`` — running solves are not interrupted
        — while ``cancel(force=True)`` additionally requests *cooperative*
        cancellation: the job's token is set and the solver stops at its
        next safe point (between Newton iterations / transport time
        steps), recording ``CANCELLED``.  ``force=True`` returns ``True``
        when the cancellation was delivered (the job will terminate
        CANCELLED unless it finishes first) and ``False`` only for jobs
        already in a terminal state.
        """
        return self._service._cancel(self, force=force)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state (or *timeout*)."""
        return self._done.wait(timeout)

    def result(self, timeout: Optional[float] = None):
        """The job's result, blocking until it finishes.

        Raises
        ------
        TimeoutError
            The job did not finish within *timeout* seconds.
        JobFailedError
            The worker raised; the record carries the traceback.
        JobCancelledError
            The job was cancelled before a worker claimed it.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"job {self.job_id} did not finish within {timeout} s "
                f"(status: {self.status.value})"
            )
        if self.record.status is JobStatus.FAILED:
            raise JobFailedError(self.record)
        if self.record.status is JobStatus.CANCELLED:
            raise JobCancelledError(f"job {self.job_id} was cancelled")
        return self._result

    # ------------------------------------------------------------------ #
    # service-side completion hooks
    # ------------------------------------------------------------------ #
    def _complete(self, result) -> None:
        self._result = result
        self.record.status = JobStatus.DONE
        self.record.finished_at = time.time()
        self._done.set()

    def _fail(self, error: str, traceback_text: str) -> None:
        self.record.status = JobStatus.FAILED
        self.record.error = error
        self.record.traceback = traceback_text
        self.record.finished_at = time.time()
        self._done.set()

    def _cancelled(self) -> None:
        self.record.status = JobStatus.CANCELLED
        self.record.finished_at = time.time()
        self._done.set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Job(id={self.job_id}, kind={self.record.kind!r}, status={self.status.value})"
