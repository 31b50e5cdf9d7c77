"""The registration service: queued jobs, one compute lane, micro-batching.

:class:`RegistrationService` is the async front end of the solver: callers
submit work (full registrations or distributed transport solves) and get
:class:`~repro.service.jobs.Job` handles back immediately; daemon worker
threads — one unless asked otherwise: solves hold the GIL, a second thread
only time-slices the first (:data:`DEFAULT_SERVICE_WORKERS`) —
drain the :class:`~repro.service.queue.SubmissionQueue` and execute every
job through the *existing* synchronous paths — :func:`repro.register` and
:class:`~repro.parallel.transport.DistributedTransportSolver` — so a queued
solve is numerically the very solve a direct call would have produced.

What the service adds over a loop of direct calls:

* **Cross-request plan reuse.**  Transport jobs share the process-wide plan
  pool's scatter plans: a velocity an earlier batch scattered with is a warm
  hit, and with several workers N concurrent batches planning it
  single-flight into one build and N-1 hits.  A register job's per-velocity
  data belongs to its problem and is released when the job's solve ends.
* **Micro-batching.**  Compatible transport jobs (same grid, time step,
  task layout and velocity — see
  :func:`~repro.service.queue.batch_key`) are claimed together and ride
  one ``solve_state_many`` stack: one ghost-exchange round and one return
  ``alltoallv`` per time step for the whole batch, results bitwise
  identical to solving each job alone.
* **Observability.**  Every job records metrics (the registration result
  document; for transport batches the batch's own communication-ledger
  summary, whose ``interp_scatter`` calls show whether it planned cold) and
  can be journaled to a per-job JSON artifact
  (:mod:`repro.service.artifacts`).
* **Durability.**  With a journal directory
  (``journal_dir`` / ``--journal``), every submission is
  fsync'd to an append-only journal before the submit call returns, and a
  restarted service re-queues every journaled job that never reached a
  terminal state — a kill -9 mid-solve loses no work
  (:mod:`repro.service.journal`).
* **Cooperative cancellation.**  ``Job.cancel(force=True)`` (or an HTTP
  ``DELETE``) sets the job's cancel token; RUNNING solves stop at their
  next safe point — between Newton iterations, between transport time
  steps — and record ``CANCELLED``.  A micro-batched solve is only
  abandoned once every rider cancelled; peers keep their results.
"""

from __future__ import annotations

import dataclasses
import threading
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.config import check_environment
from repro.core.optim.gauss_newton import SolverOptions
from repro.core.registration import register
from repro.observability import snapshot as observability_snapshot
from repro.observability import trace_span
from repro.parallel.comm import SimulatedCommunicator
from repro.parallel.transport import DistributedTransportSolver
from repro.runtime.cancellation import CombinedCancelToken, SolveCancelled
from repro.service.artifacts import write_job_artifact
from repro.service.jobs import (
    Job,
    JobStatus,
    RegistrationJobSpec,
    TransportJobSpec,
)
from repro.service.journal import JobJournal
from repro.service.queue import SubmissionQueue
from repro.utils.logging import get_logger
from repro.utils.validation import check_positive_int

LOGGER = get_logger("service.workers")

__all__ = ["DEFAULT_SERVICE_WORKERS", "RegistrationService"]

#: Service width when ``num_workers=`` is not given.  Every worker thread
#: drives whole solves, and most of a solve (the CSR gather product, the
#: window copies) holds the GIL, so two workers time-slice one interpreter.
#: burst16 on 2 -> 1 workers (BENCH_20.json): register job 0.35 -> 0.16 s,
#: 9.2 -> 10.5 jobs/s, CPU 1.23x -> 0.95x wall.  Width > 1 buys only that a
#: short job never queues behind a long one.
DEFAULT_SERVICE_WORKERS = 1


class RegistrationService:
    """Queued job service over the registration solver.

    Parameters
    ----------
    num_workers:
        Worker threads draining the queue, a positive integer; ``None`` is
        :data:`DEFAULT_SERVICE_WORKERS` (1: see the module docstring).
    max_batch:
        Upper bound on the micro-batch size, a positive integer (1 disables
        batching).
    artifacts_dir:
        When set, every finished job (including failures) is journaled to
        ``<artifacts_dir>/job-<id>.json``.
    journal_dir:
        Directory of the durable job journal (``None`` = no journal: jobs
        live in memory only).  On start, journaled jobs without a terminal
        record are compacted and re-queued with their original ids.

    A count that is not a positive integer (``0``, ``2.5``, ``True``) and a
    malformed ``REPRO_PLAN_POOL_BYTES`` or ``REPRO_TRACE`` raise here, before
    the journal is opened or a worker starts.  The service writes no
    process-wide setting.

    The service is a context manager; leaving the ``with`` block drains the
    queue and joins the workers::

        with RegistrationService(max_batch=4) as service:
            jobs = [service.submit_transport(spec) for spec in specs]
            results = service.gather(jobs)
    """

    def __init__(
        self,
        num_workers: Optional[int] = None,
        max_batch: int = 4,
        artifacts_dir: Optional[Union[str, Path]] = None,
        journal_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        if num_workers is None:
            num_workers = DEFAULT_SERVICE_WORKERS
        self.num_workers = check_positive_int(num_workers, "num_workers")
        self.max_batch = check_positive_int(max_batch, "max_batch")
        check_environment()
        self.artifacts_dir = Path(artifacts_dir) if artifacts_dir is not None else None
        self.journal = JobJournal(journal_dir) if journal_dir is not None else None
        self.queue = SubmissionQueue()
        self._jobs: List[Job] = []
        self._jobs_by_id: Dict[str, Job] = {}
        self._stats_lock = threading.Lock()
        self._batches_executed = 0
        self._batched_jobs = 0
        self._shutdown = False
        self.recovered_jobs: List[Job] = self._recover()
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-service-{index}",
                daemon=True,
            )
            for index in range(self.num_workers)
        ]
        for thread in self._threads:
            thread.start()

    def _recover(self) -> List[Job]:
        """Re-queue journaled jobs that never finished (before workers start).

        Compaction first: the surviving ``submitted`` records stay live in
        the compacted file, so a *second* crash before these jobs finish
        still replays them — no re-journaling needed.  A journal an older
        version wrote, or a spec that does not decode, is a
        :class:`ValueError`: an acknowledged job is never dropped.
        """
        if self.journal is None:
            return []
        recovered = [
            self._enqueue(entry.spec(), job_id=entry.job_id, journal=False)
            for entry in self.journal.compact()
        ]
        if recovered:
            LOGGER.info("journal: re-queued %d unfinished job(s)", len(recovered))
        return recovered

    # ------------------------------------------------------------------ #
    # submission API
    # ------------------------------------------------------------------ #
    def submit_registration(self, spec: RegistrationJobSpec) -> Job:
        """Queue one registration solve; returns immediately with a handle."""
        return self._enqueue(spec)

    def submit_transport(self, spec: TransportJobSpec) -> Job:
        """Queue one distributed transport solve (micro-batchable)."""
        return self._enqueue(spec)

    def _enqueue(self, spec, job_id: Optional[str] = None, journal: bool = True) -> Job:
        job = Job(spec, self, job_id=job_id)
        with self._stats_lock:
            self._jobs.append(job)
            self._jobs_by_id[job.job_id] = job
        if journal and self.journal is not None:
            # journal BEFORE queueing: once the caller holds the handle the
            # submission is durable, even if the process dies immediately
            self.journal.record_submitted(job)
        self.queue.submit(job)
        return job

    def job(self, job_id: str) -> Optional[Job]:
        """The job handle of *job_id* (``None`` when unknown) — HTTP lookup."""
        with self._stats_lock:
            return self._jobs_by_id.get(job_id)

    def _cancel(self, job: Job, force: bool = False) -> bool:
        if self.queue.cancel(job):
            # queued -> CANCELLED happened inside the queue lock; persist it
            self._finalize(job)
            return True
        if not force or job.done:
            return False
        # cooperative path: the RUNNING solve observes the token at its next
        # safe point and the worker records CANCELLED; if the solve finishes
        # first, DONE wins (the result exists — nothing worth discarding)
        job.cancel_token.cancel()
        return True

    def gather(
        self,
        jobs: Sequence[Job],
        timeout: Optional[float] = None,
        raise_on_error: bool = True,
    ) -> List[Any]:
        """Results of *jobs* in submission order, blocking until all finish.

        With ``raise_on_error=False``, failed/cancelled jobs yield ``None``
        instead of raising, so a partial atlas run can keep its survivors.
        """
        results: List[Any] = []
        for job in jobs:
            if raise_on_error:
                results.append(job.result(timeout))
            else:
                try:
                    results.append(job.result(timeout))
                except Exception:  # noqa: BLE001 - deliberate partial gather
                    results.append(None)
        return results

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def drain(self) -> None:
        """Block until every submitted job has reached a terminal state."""
        with self._stats_lock:
            jobs = list(self._jobs)
        for job in jobs:
            job.wait()

    def shutdown(self, drain: bool = True) -> None:
        """Stop the service: optionally drain, then join the workers.

        ``drain=True`` (default) lets queued jobs finish; ``drain=False``
        cancels everything still queued.  Idempotent.
        """
        if self._shutdown:
            return
        self._shutdown = True
        if not drain:
            with self._stats_lock:
                jobs = list(self._jobs)
            for job in jobs:
                if job.status is JobStatus.QUEUED:
                    self._cancel(job)
        self.queue.close()
        for thread in self._threads:
            thread.join()
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "RegistrationService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def service_stats(self) -> Dict[str, Any]:
        """Aggregate service counters plus the observability snapshot, whose
        ``plan_pool`` block holds the shared pool's statistics."""
        with self._stats_lock:
            jobs = list(self._jobs)
            batches = self._batches_executed
            batched_jobs = self._batched_jobs
        by_status: Dict[str, int] = {}
        for job in jobs:
            by_status[job.status.value] = by_status.get(job.status.value, 0) + 1
        return {
            "num_workers": self.num_workers,
            "max_batch": self.max_batch,
            "jobs_submitted": len(jobs),
            "jobs_by_status": by_status,
            "jobs_recovered": len(self.recovered_jobs),
            "queue_depths": self.queue.depths(),
            "batches_executed": batches,
            "batched_jobs": batched_jobs,
            "journal": self.journal.stats() if self.journal is not None else None,
            "observability": observability_snapshot(),
        }

    # ------------------------------------------------------------------ #
    # worker side
    # ------------------------------------------------------------------ #
    def _worker_loop(self) -> None:
        while True:
            with trace_span("service.claim", max_batch=self.max_batch) as claim_span:
                batch = self.queue.claim_batch(self.max_batch)
                claim_span.set_attr("jobs", 0 if batch is None else len(batch))
            if batch is None:
                return
            try:
                self._execute_batch(batch)
            except Exception as exc:  # noqa: BLE001 - worker must survive
                # _execute_batch already records failures per job; this only
                # triggers on bookkeeping bugs.  Fail the batch, keep going.
                text = traceback.format_exc()
                for job in batch:
                    if not job.done:
                        job._fail(str(exc), text)
                LOGGER.exception("service worker error while executing a batch")

    def _execute_batch(self, batch: List[Job]) -> None:
        with self._stats_lock:
            self._batches_executed += 1
            if len(batch) > 1:
                self._batched_jobs += len(batch)
        kind = batch[0].record.kind
        with trace_span("service.batch", kind=kind, jobs=len(batch)):
            if kind == "transport" and len(batch) >= 1:
                self._execute_transport_batch(batch)
            else:
                for job in batch:
                    self._execute_registration(job)

    def _execute_registration(self, job: Job) -> None:
        """One register job: its metrics are the result document."""
        spec: RegistrationJobSpec = job.spec
        # the spec's fields are register()'s parameters, plus job_class
        arguments = {
            field.name: getattr(spec, field.name)
            for field in dataclasses.fields(spec)
            if field.name != "job_class"
        }
        # hand the job's cancel token to the Newton loop on a per-job copy:
        # the caller's options object is never mutated
        arguments["options"] = dataclasses.replace(
            spec.options if spec.options is not None else SolverOptions(),
            cancel_token=job.cancel_token,
        )
        try:
            with trace_span("service.job", kind="registration", job_id=job.job_id):
                result = register(**arguments)
        except SolveCancelled:
            job._cancelled()
            self._finalize(job)
            return
        except Exception as exc:  # noqa: BLE001 - job-level isolation
            job._fail(str(exc), traceback.format_exc())
            self._finalize(job)
            return
        job.record.metrics = {"result": result.to_dict()}
        job._complete(result)
        self._finalize(job)

    def _execute_transport_batch(self, batch: List[Job]) -> None:
        """One micro-batch; its metrics (batch size, ledger) are its own."""
        lead: TransportJobSpec = batch[0].spec
        grid = lead.resolved_grid()
        decomposition = lead.decomposition()
        comm = SimulatedCommunicator(decomposition.num_tasks)
        # a merged solve is only abandoned once EVERY rider cancelled;
        # individually cancelled riders are sorted out after the solve
        batch_token = CombinedCancelToken([job.cancel_token for job in batch])
        try:
            with trace_span(
                "service.job",
                kind="transport",
                jobs=len(batch),
                num_tasks=lead.num_tasks,
            ):
                solver = DistributedTransportSolver(
                    grid,
                    decomposition,
                    num_time_steps=lead.num_time_steps,
                    comm=comm,
                )
                templates = np.stack([job.spec.moving for job in batch], axis=0)
                transported = solver.solve_state_many(
                    lead.velocity, templates, cancel_token=batch_token
                )
        except SolveCancelled:
            for job in batch:
                job._cancelled()
                self._finalize(job)
            return
        except Exception as exc:  # noqa: BLE001 - job-level isolation
            text = traceback.format_exc()
            for job in batch:
                job._fail(str(exc), text)
                self._finalize(job)
            return
        ledger = comm.ledger.summary()
        metrics = {
            "batch_size": len(batch),
            "communication": ledger,
            "ghost_exchange_calls": ledger.get("ghost_exchange", {}).get("calls", 0),
        }
        for index, job in enumerate(batch):
            job.record.metrics = dict(metrics)
            if job.cancel_token.cancelled:
                # this rider asked out mid-batch; its peers keep their
                # results, the rider records CANCELLED (no result delivery)
                job._cancelled()
            else:
                job._complete(transported[index])
            self._finalize(job)

    def _finalize(self, job: Job) -> None:
        """Persist a terminal job: journal terminal record + JSON artifact."""
        if self.journal is not None:
            try:
                self.journal.record_terminal(job)
            except Exception:  # noqa: BLE001 - persistence must never fail a job
                LOGGER.exception("failed to journal the end of job %s", job.job_id)
        if self.artifacts_dir is None:
            return
        try:
            with trace_span("service.artifact", job_id=job.job_id):
                write_job_artifact(self.artifacts_dir, job)
        except Exception:  # noqa: BLE001 - journaling must never fail a job
            LOGGER.exception("failed to write the artifact of job %s", job.job_id)
