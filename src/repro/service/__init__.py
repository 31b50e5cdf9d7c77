"""Async job layer over the registration solver (``repro.service``).

The paper's target workloads are *services*, not single solves: population
("atlas") studies run thousands of registrations against one template, and
the stated clinical constraint is throughput.  This subsystem turns the
synchronous :func:`repro.register` path into a queued, observable job
service without forking the numerics:

:mod:`repro.service.jobs`
    Job specs (registration / distributed transport) — whose constructors
    are the one definition of a valid job, for Python and HTTP submissions
    alike —, records, statuses and the caller-side
    :class:`~repro.service.jobs.Job` handle.
:mod:`repro.service.queue`
    Thread-safe submission queue whose claim path coalesces compatible
    transport jobs into micro-batches (:func:`~repro.service.queue.batch_key`:
    which jobs may bitwise-safely share one ``solve_state_many`` stack).
:mod:`repro.service.workers`
    :class:`~repro.service.workers.RegistrationService` — the worker
    thread(s) (one by default: solves hold the GIL) executing jobs through the
    existing solver paths, transport jobs sharing the process-wide plan
    pool's scatter plans across requests.
:mod:`repro.service.artifacts`
    Versioned per-job JSON artifacts (result report, batch ledger metrics).
:mod:`repro.service.journal`
    Durable, crash-safe job journal (versioned jobspec documents, one
    append-only fsync'd ``journal.jsonl``, replay + compaction on restart).
:mod:`repro.service.http`
    Stdlib HTTP front (``POST /jobs``, ``GET /jobs/<id>``,
    ``DELETE /jobs/<id>``, ``GET /stats``).
:mod:`repro.service.atlas`
    Atlas/population registration driver, the first batch workload.

A script owns its service; leaving the ``with`` block drains the queue and
joins the workers::

    from repro.service import RegistrationJobSpec, RegistrationService

    with RegistrationService() as service:
        jobs = [
            service.submit_registration(
                RegistrationJobSpec(template=moving, reference=atlas)
            )
            for moving in subjects
        ]
        results = service.gather(jobs)
"""

from __future__ import annotations

from repro.service.artifacts import (
    ARTIFACT_SCHEMA,
    ARTIFACT_SCHEMA_VERSION,
    job_artifact,
    write_job_artifact,
)
from repro.service.atlas import AtlasResult, run_atlas, submit_atlas
from repro.service.http import ServiceHTTPServer, serve_http
from repro.service.jobs import (
    JOB_CLASS_ATLAS,
    JOB_CLASS_INTERACTIVE,
    Job,
    JobCancelledError,
    JobFailedError,
    JobRecord,
    JobStatus,
    RegistrationJobSpec,
    TransportJobSpec,
)
from repro.service.journal import (
    JOURNAL_SCHEMA,
    JOURNAL_SCHEMA_VERSION,
    SPEC_SCHEMA,
    SPEC_SCHEMA_VERSION,
    JobJournal,
    MalformedSpecError,
    spec_from_dict,
    spec_to_dict,
)
from repro.service.queue import SubmissionQueue, batch_key
from repro.service.workers import RegistrationService

__all__ = [
    "ARTIFACT_SCHEMA",
    "ARTIFACT_SCHEMA_VERSION",
    "AtlasResult",
    "JOB_CLASS_ATLAS",
    "JOB_CLASS_INTERACTIVE",
    "JOURNAL_SCHEMA",
    "JOURNAL_SCHEMA_VERSION",
    "Job",
    "JobCancelledError",
    "JobFailedError",
    "JobJournal",
    "JobRecord",
    "JobStatus",
    "MalformedSpecError",
    "RegistrationJobSpec",
    "RegistrationService",
    "SPEC_SCHEMA",
    "SPEC_SCHEMA_VERSION",
    "ServiceHTTPServer",
    "SubmissionQueue",
    "TransportJobSpec",
    "batch_key",
    "job_artifact",
    "run_atlas",
    "serve_http",
    "spec_from_dict",
    "spec_to_dict",
    "submit_atlas",
    "write_job_artifact",
]
