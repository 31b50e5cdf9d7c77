"""The registration service: queued jobs, one compute lane, micro-batching.

:class:`RegistrationService` is the async front end of the solver: callers
submit work (full registrations or distributed transport solves) and get
:class:`~repro.service.jobs.Job` handles back immediately; daemon worker
threads — one unless asked otherwise: solves hold the GIL, a second thread
only time-slices the first (:mod:`repro.runtime.workers`) — drain the
:class:`~repro.service.queue.SubmissionQueue` and execute every job through
the *existing* synchronous paths — :func:`repro.register` and
:class:`~repro.parallel.transport.DistributedTransportSolver` — so a queued
solve is numerically the very solve a direct call would have produced.

What the service adds over a loop of direct calls:

* **Cross-request plan reuse.**  All jobs share the process-wide plan pool:
  a velocity an earlier job planned is a warm hit, and with several workers
  N concurrent jobs planning it single-flight into one build and N-1 hits.
* **Micro-batching.**  Compatible transport jobs (same grid, time step,
  task layout, backend and velocity — see
  :func:`~repro.service.batching.batch_key`) are claimed together and ride
  one ``solve_state_many`` stack: one ghost-exchange round and one return
  ``alltoallv`` per time step for the whole batch, results bitwise
  identical to solving each job alone.
* **Observability.**  Every job records metrics (plan-pool delta, pool hit
  rate, communication-ledger summary, timings) and
  can be journaled to a per-job JSON artifact
  (:mod:`repro.service.artifacts`).
* **Durability.**  With a journal directory
  (``journal_dir`` / ``REPRO_SERVICE_JOURNAL``), every submission is
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

from repro.config import RegistrationConfig, env_service_journal
from repro.core.optim.gauss_newton import SolverOptions
from repro.core.registration import register
from repro.observability import snapshot as observability_snapshot
from repro.observability import trace_span
from repro.parallel.comm import SimulatedCommunicator
from repro.parallel.pencil import PencilDecomposition
from repro.parallel.transport import DistributedTransportSolver
from repro.runtime.cancellation import CombinedCancelToken, SolveCancelled
from repro.runtime.plan_pool import get_plan_pool
from repro.runtime.workers import resolve_workers
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

LOGGER = get_logger("service.workers")

__all__ = ["RegistrationService"]


def _hit_rate(hits: int, misses: int) -> float:
    total = hits + misses
    return hits / total if total else 0.0


class RegistrationService:
    """Queued job service over the registration solver.

    Parameters
    ----------
    config:
        Execution configuration applied process-wide at service start and
        passed to every registration solve
        (:class:`repro.config.RegistrationConfig`); ``None`` keeps the
        ambient environment-driven defaults.
    num_workers:
        Worker threads draining the queue.  ``None`` resolves the unified
        worker policy for the ``"service"`` subsystem
        (``REPRO_SERVICE_WORKERS`` > ``REPRO_WORKERS`` > 1: see the module docstring).
    max_batch:
        Upper bound on the micro-batch size (1 disables batching).
    artifacts_dir:
        When set, every finished job (including failures) is journaled to
        ``<artifacts_dir>/job-<id>.json``.
    journal_dir:
        Directory of the durable job journal; defaults to
        ``$REPRO_SERVICE_JOURNAL`` (unset = no journal, PR-6 in-memory
        behavior).  On start, journaled jobs without a terminal record are
        compacted and re-queued with their original ids.
    journal_fsync:
        ``False`` skips the per-commit fsync (crash-safe, not
        power-loss-safe); the journal-overhead benchmark's knob.
    class_weights:
        Claim-weight overrides per job class (see
        :class:`~repro.service.queue.SubmissionQueue`).

    The service is a context manager; leaving the ``with`` block drains the
    queue and joins the workers::

        with RegistrationService(max_batch=4) as service:
            jobs = [service.submit_transport(spec) for spec in specs]
            results = service.gather(jobs)
    """

    def __init__(
        self,
        config: Optional[RegistrationConfig] = None,
        num_workers: Optional[int] = None,
        max_batch: int = 4,
        artifacts_dir: Optional[Union[str, Path]] = None,
        journal_dir: Optional[Union[str, Path]] = None,
        journal_fsync: bool = True,
        class_weights: Optional[Dict[str, float]] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.config = config
        if config is not None:
            config.apply()
        self.num_workers = resolve_workers("service", num_workers)
        self.max_batch = int(max_batch)
        self.artifacts_dir = Path(artifacts_dir) if artifacts_dir is not None else None
        if journal_dir is None:
            journal_dir = env_service_journal()
        self.journal = (
            JobJournal(journal_dir, fsync_on_commit=journal_fsync)
            if journal_dir is not None
            else None
        )
        self.queue = SubmissionQueue(class_weights=class_weights)
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
        the fresh segment, so a *second* crash before these jobs finish
        still replays them — no re-journaling needed.
        """
        if self.journal is None:
            return []
        recovered: List[Job] = []
        for entry in self.journal.compact():
            try:
                spec = entry.spec()
            except ValueError:
                LOGGER.exception(
                    "journal: dropping unreadable spec of job %s", entry.job_id
                )
                continue
            recovered.append(self._enqueue(spec, job_id=entry.job_id, journal=False))
        if recovered:
            LOGGER.info("journal: re-queued %d unfinished job(s)", len(recovered))
        return recovered

    # ------------------------------------------------------------------ #
    # submission API
    # ------------------------------------------------------------------ #
    def submit_registration(self, spec: RegistrationJobSpec) -> Job:
        """Queue one registration solve; returns immediately with a handle."""
        return self._submit(spec)

    def submit_transport(self, spec: TransportJobSpec) -> Job:
        """Queue one distributed transport solve (micro-batchable)."""
        return self._submit(spec)

    def _submit(self, spec) -> Job:
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
        """Aggregate service counters plus the shared pool's statistics."""
        with self._stats_lock:
            jobs = list(self._jobs)
            batches = self._batches_executed
            batched_jobs = self._batched_jobs
        by_status: Dict[str, int] = {}
        for job in jobs:
            by_status[job.status.value] = by_status.get(job.status.value, 0) + 1
        pool = get_plan_pool().stats
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
            "plan_pool": pool.as_dict(),
            "plan_pool_hit_rate": _hit_rate(pool.hits, pool.misses),
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
        """One register job; its pool deltas difference *process-wide* counters,
        so with several workers they also carry the concurrent jobs' hits and misses."""
        spec: RegistrationJobSpec = job.spec
        pool = get_plan_pool()
        pool_before = pool.stats
        # hand the job's cancel token to the Newton loop on a per-job copy:
        # the caller's options object is never mutated
        options = dataclasses.replace(
            spec.options if spec.options is not None else SolverOptions(),
            cancel_token=job.cancel_token,
        )
        try:
            with trace_span("service.job", kind="registration", job_id=job.job_id):
                result = register(
                    spec.template,
                    spec.reference,
                    beta=spec.beta,
                    regularization=spec.regularization,
                    incompressible=spec.incompressible,
                    num_time_steps=spec.num_time_steps,
                    gauss_newton=spec.gauss_newton,
                    optimizer=spec.optimizer,
                    options=options,
                    grid=spec.grid,
                    smooth_sigma=spec.smooth_sigma,
                    normalize=spec.normalize,
                    interpolation=spec.interpolation,
                    config=self.config,
                )
        except SolveCancelled:
            job._cancelled()
            self._finalize(job)
            return
        except Exception as exc:  # noqa: BLE001 - job-level isolation
            job._fail(str(exc), traceback.format_exc())
            self._finalize(job)
            return
        delta = pool.stats - pool_before
        job.record.metrics = {
            "result": result.to_dict(),
            "plan_pool_delta": delta.as_dict(),
            "plan_pool_hit_rate": _hit_rate(delta.hits, delta.misses),
        }
        job._complete(result)
        self._finalize(job)

    def _execute_transport_batch(self, batch: List[Job]) -> None:
        """One micro-batch; pool deltas as in :meth:`_execute_registration`
        (attributable on one lane only), the ledger is the batch's own."""
        lead: TransportJobSpec = batch[0].spec
        grid = lead.resolved_grid()
        decomposition = PencilDecomposition.from_num_tasks(grid.shape, lead.num_tasks)
        comm = SimulatedCommunicator(decomposition.num_tasks)
        pool = get_plan_pool()
        pool_before = pool.stats
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
        delta = pool.stats - pool_before
        ledger = comm.ledger.summary()
        metrics = {
            "batch_size": len(batch),
            "plan_pool_delta": delta.as_dict(),
            "plan_pool_hit_rate": _hit_rate(delta.hits, delta.misses),
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
