"""Per-job JSON artifacts of the registration service.

Every finished job (succeeded, failed or cancelled) can be journaled to a
small JSON document, ``job-<id>.json``, in the service's artifact
directory.  The document is versioned (:data:`ARTIFACT_SCHEMA`); for
registration jobs it embeds the registration result's own versioned report
(:meth:`repro.core.registration.RegistrationResult.to_dict`) under
``"result"`` — one result schema shared by the CLI's verbose report and the
service — and for every job kind it carries the job record (status,
timestamps, batch size, error/traceback) plus the execution metrics the
worker collected (plan-pool delta and hit rate, communication-ledger
summary for distributed batches).

Writes are atomic (temp file + ``os.replace``), so a crash mid-write never
leaves a torn document for a collector to trip over.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Union

from repro.observability import snapshot as observability_snapshot
from repro.service.jobs import Job

#: Name and version of the per-job artifact document; bump the version on
#: any breaking field change (v2: the job metrics no longer carry
#: ``layout_decisions``, and the embedded snapshot is v2; v3: the embedded
#: result and snapshot are v3 — no tile-traffic blocks, the result's
#: ``optimization`` carries ``termination_reason``).
ARTIFACT_SCHEMA = "repro.service-job"
ARTIFACT_SCHEMA_VERSION = 3

__all__ = [
    "ARTIFACT_SCHEMA",
    "ARTIFACT_SCHEMA_VERSION",
    "artifact_path",
    "job_artifact",
    "write_job_artifact",
]


def artifact_path(directory: Union[str, Path], job: Job) -> Path:
    """Where *job*'s artifact lives under *directory*."""
    return Path(directory) / f"job-{job.job_id}.json"


def job_artifact(job: Job) -> Dict[str, Any]:
    """The artifact document of *job* (JSON-ready).

    Carries the process-wide ``repro.observability-snapshot`` document
    under ``"observability"`` (additive; the job record is unchanged).
    """
    return {
        "schema": ARTIFACT_SCHEMA,
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "job": job.record.as_dict(),
        "observability": observability_snapshot(),
    }


def write_job_artifact(directory: Union[str, Path], job: Job) -> Path:
    """Write *job*'s artifact atomically; returns the written path.

    The temp file is unlinked on *any* failure (serialization included),
    so an artifact that cannot be written never leaks ``job-<id>.json.tmp``
    litter into the directory.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = artifact_path(directory, job)
    tmp = path.with_suffix(".json.tmp")
    try:
        tmp.write_text(json.dumps(job_artifact(job), indent=2, sort_keys=True))
        os.replace(tmp, path)
    finally:
        # after a successful replace the tmp name no longer exists;
        # on any failure this removes the partial file
        tmp.unlink(missing_ok=True)
    return path
