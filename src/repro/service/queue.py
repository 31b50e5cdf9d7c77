"""Thread-safe submission queue: weighted class claiming + batch merging.

The queue keeps one FIFO per *job class* (``interactive`` submissions vs.
``atlas-burst`` population jobs — see :mod:`repro.service.jobs`) and
claims across them with **stride scheduling**: every class has a virtual
time that advances by ``1 / weight`` per claimed job, and
:meth:`SubmissionQueue.claim_batch` always serves the non-empty class with
the smallest virtual time.  With the fixed weights (``interactive: 4,
atlas-burst: 1``) a thousand-subject atlas burst cannot starve a single
interactive registration: the interactive job is claimed after at most a
handful of burst jobs, while the burst still consumes every idle worker
slot.  A class that was idle re-enters at the live virtual time, so saved
credit never turns into a retaliatory burst.

Within the chosen class, claiming is FIFO with one twist: workers claim
*batches*.  :meth:`claim_batch` pops the oldest queued job and — when it
is batchable — scans the rest of its class for jobs with the same
:func:`batch_key`, pulling up to ``max_batch`` of them out of order.
Compatible jobs therefore coalesce at *claim* time with no artificial
waiting when the queue is short.

Cancellation races are resolved here: a job can be cancelled exactly
while it is still in its deque, and the CANCELLED transition happens
**inside** the queue lock — an observer holding the lock (``claim_batch``,
``close``, a stats reader) can never see a job that is neither queued,
RUNNING, nor terminal.  Once ``claim_batch`` hands a job to a worker it
is RUNNING and :meth:`cancel` returns ``False`` (cooperative cancellation
of running jobs lives above the queue, in the job's cancel token).

Per-class queue depths are published to the process metrics registry as
the ``service.queue_depth`` gauge (labelled by ``job_class``), so the
observability snapshot and ``GET /stats`` expose starvation at a glance.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict, Hashable, List, Optional

from repro.observability.metrics import get_metrics_registry
from repro.runtime.plan_pool import array_fingerprint
from repro.service.jobs import Job, JobStatus

__all__ = ["DEFAULT_CLASS_WEIGHTS", "SubmissionQueue", "batch_key"]

#: Fixed claim weights; any class not listed here claims with weight 1.
#: Interactive jobs get 4x the claim rate of atlas-burst jobs.
DEFAULT_CLASS_WEIGHTS: Dict[str, float] = {
    "interactive": 4.0,
    "atlas-burst": 1.0,
}

_QUEUE_DEPTH_GAUGE = get_metrics_registry().gauge(
    "service.queue_depth", "queued service jobs by job class"
)
_CLAIMED_COUNTER = get_metrics_registry().counter(
    "service.jobs_claimed", "service jobs claimed by workers, by job class"
)


def batch_key(spec) -> Optional[Hashable]:
    """Batch-compatibility key of a job spec, or ``None`` when unbatchable.

    Two specs with equal keys produce bitwise-identical results whether they
    are solved together (one ``solve_state_many`` stack: one ghost exchange
    and one ``alltoallv`` per time step) or alone: the key holds every
    ingredient of the distributed scatter plans — grid, time step, task
    count and the velocity *content* (departure points are ``x - dt·v``).
    Registrations never merge (each is its own Gauss-Newton solve).
    """
    if spec.kind != "transport":
        return None
    return (
        "transport",
        spec.resolved_grid().shape,
        int(spec.num_time_steps),
        int(spec.num_tasks),
        array_fingerprint(spec.velocity),
    )


class SubmissionQueue:
    """Per-class FIFOs with weighted fair claiming and batch merging.

    Claim weights are :data:`DEFAULT_CLASS_WEIGHTS`: higher weight = claimed
    more often under contention; unknown classes claim with weight 1.
    """

    def __init__(self) -> None:
        self._queues: Dict[str, Deque[Job]] = {}
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        #: stride-scheduling virtual time per class (claims / weight)
        self._virtual_time: Dict[str, float] = {}
        #: monotonically increasing submission sequence (FIFO tie-breaks)
        self._submit_seq = 0
        self._seq: Dict[str, int] = {}  # job_id -> submission sequence

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return sum(len(q) for q in self._queues.values())

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def depths(self) -> Dict[str, int]:
        """Current queue depth per job class (snapshot)."""
        with self._lock:
            return {name: len(q) for name, q in self._queues.items()}

    def class_weight(self, job_class: str) -> float:
        """Claim weight of *job_class* (1 for a class not in the table)."""
        return DEFAULT_CLASS_WEIGHTS.get(job_class, 1.0)

    def _publish_depth(self, job_class: str) -> None:
        # caller holds the lock
        queue = self._queues.get(job_class)
        _QUEUE_DEPTH_GAUGE.set(len(queue) if queue else 0, job_class=job_class)

    # ------------------------------------------------------------------ #
    def submit(self, job: Job) -> None:
        """Append *job* to its class FIFO and wake one waiting worker."""
        with self._not_empty:
            if self._closed:
                raise RuntimeError("queue is closed; no further submissions accepted")
            job_class = job.job_class
            queue = self._queues.get(job_class)
            if queue is None:
                queue = self._queues[job_class] = deque()
            if not queue:
                # re-entering class: advance its virtual time to "now" so
                # credit saved while idle cannot starve the active classes
                live = [
                    self._virtual_time.get(name, 0.0)
                    for name, q in self._queues.items()
                    if q and name != job_class
                ]
                if live:
                    self._virtual_time[job_class] = max(
                        self._virtual_time.get(job_class, 0.0), min(live)
                    )
            queue.append(job)
            self._seq[job.job_id] = self._submit_seq
            self._submit_seq += 1
            self._publish_depth(job_class)
            self._not_empty.notify()

    def cancel(self, job: Job) -> bool:
        """Remove *job* if still queued; ``False`` once a worker claimed it.

        The CANCELLED transition happens inside the queue lock so no
        observer can catch the job in limbo between "not queued" and
        "terminal".
        """
        with self._lock:
            queue = self._queues.get(job.job_class)
            try:
                queue.remove(job)  # type: ignore[union-attr]
            except (AttributeError, ValueError):
                return False
            self._seq.pop(job.job_id, None)
            job._cancelled()
            self._publish_depth(job.job_class)
        return True

    def close(self) -> None:
        """Refuse new submissions and wake every blocked worker.

        Jobs already queued stay claimable so a draining shutdown finishes
        them; :meth:`claim_batch` returns ``None`` once the queue is both
        closed and empty.
        """
        with self._not_empty:
            self._closed = True
            self._not_empty.notify_all()

    # ------------------------------------------------------------------ #
    def _pick_class(self) -> Optional[str]:
        """The non-empty class to serve next (stride scheduling).

        Caller holds the lock.  Smallest virtual time wins; ties go to the
        class whose head job was submitted first (global FIFO).
        """
        best: Optional[str] = None
        best_key = None
        for name, queue in self._queues.items():
            if not queue:
                continue
            key = (
                self._virtual_time.get(name, 0.0),
                self._seq.get(queue[0].job_id, 0),
            )
            if best_key is None or key < best_key:
                best, best_key = name, key
        return best

    def claim_batch(self, max_batch: int = 1, timeout: Optional[float] = None) -> Optional[List[Job]]:
        """Claim the next job plus up to ``max_batch - 1`` compatible peers.

        Blocks until a job is available; returns ``None`` when the queue is
        closed and drained (worker shutdown) or, with a *timeout*, when
        nothing arrived in time.  Every returned job is marked ``RUNNING``
        before the lock is released, closing the cancellation window.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._not_empty:
            while True:
                job_class = self._pick_class()
                if job_class is not None:
                    break
                if self._closed:
                    return None
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                self._not_empty.wait(remaining)
            queue = self._queues[job_class]
            lead = queue.popleft()
            batch = [lead]
            key = batch_key(lead.spec)
            if key is not None and max_batch > 1:
                kept: List[Job] = []
                for job in queue:
                    if len(batch) < max_batch and batch_key(job.spec) == key:
                        batch.append(job)
                    else:
                        kept.append(job)
                if len(batch) > 1:
                    self._queues[job_class] = deque(kept)
            self._virtual_time[job_class] = (
                self._virtual_time.get(job_class, 0.0) + len(batch) / self.class_weight(job_class)
            )
            now = time.time()
            for job in batch:
                self._seq.pop(job.job_id, None)
                job.record.status = JobStatus.RUNNING
                job.record.started_at = now
                job.record.batch_size = len(batch)
            self._publish_depth(job_class)
            _CLAIMED_COUNTER.inc(len(batch), job_class=job_class)
        return batch
