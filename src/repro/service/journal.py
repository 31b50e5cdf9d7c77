"""Durable job journal: crash-safe persistence of queued service jobs.

PR 6's job layer is purely in-process: a killed worker process takes every
queued and running job with it, and the submitting side never learns.
This module makes submissions *durable* with nothing but the standard
library and the existing versioned-document discipline:

* **Spec documents.**  :func:`spec_to_dict` / :func:`spec_from_dict`
  serialize :class:`~repro.service.jobs.RegistrationJobSpec` and
  :class:`~repro.service.jobs.TransportJobSpec` as versioned JSON
  (``repro.service-jobspec`` v2).  Arrays are embedded bitwise (base64 of
  the C-contiguous buffer + dtype + shape), so a replayed job computes the
  *identical* result the original submission would have.  The same schema
  is the wire format of the HTTP front's ``POST /jobs``.  The ``spec``
  section has one key per field of the kind's spec class; only arrays, the
  grid and the solver options have a codec.  The decoder only decodes:
  every other value reaches the spec constructor as sent, and every rule of
  a valid job — types included — is the constructor's, so a document and a
  Python-built spec are rejected with the same message.

* **One append-only file.**  A journal is a directory holding
  ``journal.jsonl``.  Every submission appends one ``submitted`` record
  (spec included) and fsyncs before the submit call returns, so an
  acknowledged job survives a crash of the very next instruction.
  Terminal transitions append small ``done`` / ``failed`` / ``cancelled``
  records.  Appends never rewrite existing bytes; a torn final line (killed
  mid-append) is detected and skipped at replay.

* **Replay + compaction.**  :meth:`JobJournal.replay` folds the records
  into the set of jobs that were submitted but never reached a terminal
  state — exactly the work a restarted service must re-queue.
  :meth:`JobJournal.compact` rewrites the file down to those pending
  records through the atomic temp-file + ``os.replace`` pattern (fsync'd
  before the swap), bounding the journal's size by the live backlog
  instead of the service's lifetime; the service compacts on every start.
  A journal an older version wrote — a v1 spec, or the ``segment-<n>.jsonl``
  files those versions rotated through — is a :class:`ValueError` naming
  the file and the version: replay re-queues nothing it cannot run as
  submitted, and drops nothing that was acknowledged.

Journal sizing: a record is ~1.4x the spec's array payload (base64) plus
~300 bytes of envelope; terminal records are ~150 bytes.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

import numpy as np

from repro.core.optim.gauss_newton import SolverOptions
from repro.core.optim.line_search import ArmijoLineSearch
from repro.core.registration import json_safe
from repro.observability.trace import trace_span
from repro.service.jobs import (
    JOB_CLASS_INTERACTIVE,
    JobStatus,
    RegistrationJobSpec,
    TransportJobSpec,
)
from repro.spectral.grid import Grid
from repro.utils.logging import get_logger

LOGGER = get_logger("service.journal")

__all__ = [
    "JOURNAL_SCHEMA",
    "JOURNAL_SCHEMA_VERSION",
    "JobJournal",
    "MalformedSpecError",
    "PendingJob",
    "SPEC_SCHEMA",
    "SPEC_SCHEMA_VERSION",
    "spec_from_dict",
    "spec_to_dict",
]

#: Name and version of the serialized job-spec document (also the HTTP
#: submission wire format); bump the version on any breaking field change.
SPEC_SCHEMA = "repro.service-jobspec"
SPEC_SCHEMA_VERSION = 2

#: Name and version of one journal record (one JSON line per event).
JOURNAL_SCHEMA = "repro.service-journal"
JOURNAL_SCHEMA_VERSION = 1

#: The journal file inside the journal directory.
JOURNAL_FILE = "journal.jsonl"


class MalformedSpecError(ValueError):
    """A spec document failed validation (the HTTP 400 error path)."""


# --------------------------------------------------------------------- #
# spec documents
# --------------------------------------------------------------------- #
def _encode_array(array: np.ndarray) -> Dict[str, Any]:
    array = np.ascontiguousarray(array)
    return {
        "__ndarray__": True,
        "dtype": str(array.dtype),
        "shape": list(array.shape),
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def _decode_array(doc: Any, name: str) -> np.ndarray:
    if not isinstance(doc, dict) or not doc.get("__ndarray__"):
        raise MalformedSpecError(f"{name} must be an encoded ndarray document")
    try:
        dtype = np.dtype(doc["dtype"])
        shape = tuple(int(n) for n in doc["shape"])
        raw = base64.b64decode(doc["data"], validate=True)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedSpecError(f"{name} is not a valid ndarray document: {exc}") from None
    expected = dtype.itemsize * int(np.prod(shape, dtype=np.int64)) if shape else dtype.itemsize
    if len(raw) != expected:
        raise MalformedSpecError(
            f"{name} payload has {len(raw)} bytes, expected {expected} "
            f"for dtype {dtype} and shape {shape}"
        )
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


def _encode_grid(grid: Grid) -> Dict[str, Any]:
    return {
        "shape": list(grid.shape),
        "lengths": list(grid.lengths),
        "dtype": str(grid.dtype),
    }


def _decode_grid(doc: Any, name: str) -> Grid:
    try:
        return Grid(doc["shape"], lengths=doc["lengths"], dtype=np.dtype(doc["dtype"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedSpecError(f"invalid {name} document: {exc}") from None


def _encode_options(options: SolverOptions) -> Dict[str, Any]:
    # field by field, NOT dataclasses.asdict: asdict deep-copies every
    # value, and a live cancel token holds a threading lock (unpicklable);
    # the token is a handle of THIS process and is never serialized anyway
    doc: Dict[str, Any] = {}
    for field in dataclasses.fields(options):
        if field.name == "cancel_token":
            continue
        value = getattr(options, field.name)
        if isinstance(value, ArmijoLineSearch):
            value = dataclasses.asdict(value)
        doc[field.name] = json_safe(value)
    return doc


def _decode_options(doc: Any, name: str) -> SolverOptions:
    if not isinstance(doc, dict):
        raise MalformedSpecError(f"{name} must be a solver-options document (a JSON object)")
    fields = dict(doc)
    fields.pop("cancel_token", None)
    line_search = fields.pop("line_search", None)
    if line_search is not None:
        fields["line_search"] = ArmijoLineSearch(**line_search)
    return SolverOptions(**fields)


#: The spec class of each jobspec kind.
_SPEC_TYPES = {"register": RegistrationJobSpec, "transport": TransportJobSpec}

#: ``(encode, decode)`` of the spec fields that are not JSON scalars, for a
#: value other than ``None``; every other value is written through
#: ``json_safe`` and read back as sent.
_FIELD_CODECS = {
    "template": (_encode_array, _decode_array),
    "reference": (_encode_array, _decode_array),
    "velocity": (_encode_array, _decode_array),
    "moving": (_encode_array, _decode_array),
    "grid": (_encode_grid, _decode_grid),
    "options": (_encode_options, _decode_options),
}

#: The spec field the document carries in its envelope, not in ``spec``.
_ENVELOPE_FIELD = "job_class"


def _payload_fields(spec_type: type) -> List[str]:
    """The ``spec`` section's keys: the spec's fields, in declaration order."""
    return [f.name for f in dataclasses.fields(spec_type) if f.name != _ENVELOPE_FIELD]


def spec_to_dict(spec: Union[RegistrationJobSpec, TransportJobSpec]) -> Dict[str, Any]:
    """Serialize a job spec as a versioned, JSON-ready document.

    One key per spec field, in declaration order.  Arrays are embedded
    bitwise; :func:`spec_from_dict` reconstructs a spec whose solve is
    numerically identical to the original's.
    """
    payload = {}
    for name in _payload_fields(type(spec)):
        value = getattr(spec, name)
        has_codec = name in _FIELD_CODECS and value is not None
        payload[name] = _FIELD_CODECS[name][0](value) if has_codec else json_safe(value)
    return {
        "schema": SPEC_SCHEMA,
        "schema_version": SPEC_SCHEMA_VERSION,
        "kind": spec.kind,
        "job_class": spec.job_class,
        "spec": payload,
    }


def spec_from_dict(document: Any) -> Union[RegistrationJobSpec, TransportJobSpec]:
    """Reconstruct a job spec from :func:`spec_to_dict` output.

    Decodes the arrays, grid and solver options and hands every value to
    the spec constructor as sent — a missing key takes the constructor's
    default —, so the constructor owns every rule of a valid job, types
    included.

    Raises
    ------
    MalformedSpecError
        The document is not a valid v2 jobspec (schema, version, kind, a
        key the spec does not have, an array or grid document that does not
        decode), or a constructor — the spec's, ``SolverOptions``' or
        ``ArmijoLineSearch``' — raised, with that constructor's message.
        The message is clean and client-facing: the HTTP front returns it
        verbatim with a 400, before anything is journaled.
    """
    if not isinstance(document, dict):
        raise MalformedSpecError("jobspec document must be a JSON object")
    if document.get("schema") != SPEC_SCHEMA:
        raise MalformedSpecError(
            f"jobspec schema must be {SPEC_SCHEMA!r}, got {document.get('schema')!r}"
        )
    if document.get("schema_version") != SPEC_SCHEMA_VERSION:
        raise MalformedSpecError(
            f"unsupported jobspec schema version {document.get('schema_version')!r} "
            f"(this service reads version {SPEC_SCHEMA_VERSION})"
        )
    kind = document.get("kind")
    payload = document.get("spec")
    if not isinstance(payload, dict):
        raise MalformedSpecError("jobspec 'spec' section must be a JSON object")
    spec_type = _SPEC_TYPES.get(kind)
    if spec_type is None:
        raise MalformedSpecError(
            f"jobspec kind must be 'register' or 'transport', got {kind!r}"
        )
    # v2 carries exactly the spec's fields: a retired key is an error, not ignored
    unknown = sorted(set(payload) - set(_payload_fields(spec_type)))
    if unknown:
        raise MalformedSpecError(f"unknown {kind} jobspec key(s) {unknown}")
    try:
        fields = {
            name: _FIELD_CODECS[name][1](value, name)
            if name in _FIELD_CODECS and value is not None
            else value
            for name, value in payload.items()
        }
        if _ENVELOPE_FIELD in document:
            fields[_ENVELOPE_FIELD] = document[_ENVELOPE_FIELD]
        return spec_type(**fields)
    except (TypeError, ValueError) as exc:
        raise MalformedSpecError(str(exc)) from None


# --------------------------------------------------------------------- #
# the journal
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class PendingJob:
    """One journaled job that never reached a terminal state."""

    job_id: str
    job_class: str
    spec_document: Dict[str, Any]

    def spec(self) -> Union[RegistrationJobSpec, TransportJobSpec]:
        return spec_from_dict(self.spec_document)


class JobJournal:
    """Append-only, fsync'd journal of service jobs in one file.

    Parameters
    ----------
    directory:
        Journal directory (created on first use); the records go to
        ``<directory>/journal.jsonl``.  One directory belongs to one service
        process at a time.

    Every record is forced to stable storage before its append returns —
    the durability the kill -9 test pins.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / JOURNAL_FILE
        self._lock = threading.Lock()
        self._active: Optional[Any] = None  # open append handle of the file

    def close(self) -> None:
        """Close the append handle (the journal stays replayable)."""
        with self._lock:
            if self._active is not None and not self._active.closed:
                self._active.close()

    # ------------------------------------------------------------------ #
    # appends
    # ------------------------------------------------------------------ #
    def _append(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            if self._active is None or self._active.closed:
                self._active = open(self.path, "a", encoding="utf-8")  # noqa: SIM115
            self._active.write(line + "\n")
            self._active.flush()
            os.fsync(self._active.fileno())

    def _record(self, event: str, job_id: str, **extra: Any) -> Dict[str, Any]:
        return {
            "schema": JOURNAL_SCHEMA,
            "schema_version": JOURNAL_SCHEMA_VERSION,
            "event": event,
            "job_id": job_id,
            # integer nanoseconds: fixed width, so the journal's size is an
            # exact count of what was journaled (replay ignores the key)
            "at": time.time_ns(),
            **extra,
        }

    def record_submitted(self, job) -> None:
        """Journal one submission (spec included) before it is queued."""
        with trace_span("service.journal.append", event="submitted"):
            self._append(
                self._record(
                    "submitted",
                    job.job_id,
                    job_class=job.job_class,
                    kind=job.record.kind,
                    spec=spec_to_dict(job.spec),
                )
            )

    def record_terminal(self, job) -> None:
        """Journal a terminal transition (done / failed / cancelled)."""
        status = job.record.status
        if not status.finished:  # pragma: no cover - service-side invariant
            raise ValueError(f"job {job.job_id} is not terminal ({status.value})")
        with trace_span("service.journal.append", event=status.value):
            self._append(self._record(status.value, job.job_id))

    # ------------------------------------------------------------------ #
    # replay + compaction
    # ------------------------------------------------------------------ #
    def _iter_records(self) -> Iterator[Dict[str, Any]]:
        segments = sorted(self.directory.glob("segment-*.jsonl"))
        if segments:
            raise ValueError(
                f"journal {segments[0]} is a segment file, which only versions "
                f"writing jobspec v1 rotated through; this service reads "
                f"{JOURNAL_FILE} with jobspec v{SPEC_SCHEMA_VERSION}"
            )
        if not self.path.exists():
            return
        text = self.path.read_text(encoding="utf-8")
        lines = text.split("\n")
        # a file killed mid-append may end in a torn line (no trailing
        # newline); only the FINAL line may be legitimately torn — anything
        # else is corruption worth a warning
        for line_number, line in enumerate(lines):
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                torn = line_number == len(lines) - 1 and not text.endswith("\n")
                LOGGER.warning(
                    "journal %s:%d: skipping %s record",
                    self.path.name,
                    line_number + 1,
                    "torn final (crash mid-append)" if torn else "unreadable",
                )
                continue
            if record.get("schema") != JOURNAL_SCHEMA:
                LOGGER.warning(
                    "journal %s:%d: skipping foreign record (schema %r)",
                    self.path.name,
                    line_number + 1,
                    record.get("schema"),
                )
                continue
            yield record

    def replay(self) -> List[PendingJob]:
        """Jobs submitted but never finished, in submission order.

        A ``segment-<n>.jsonl`` file in the directory, or a submitted record
        whose spec is missing or of another jobspec version, is a
        :class:`ValueError` naming the file and the version.
        """
        with trace_span("service.journal.replay"):
            pending: Dict[str, PendingJob] = {}
            for record in self._iter_records():
                job_id = record.get("job_id")
                event = record.get("event")
                if event == "submitted":
                    spec_doc = record.get("spec")
                    version = spec_doc.get("schema_version") if isinstance(spec_doc, dict) else None
                    if version != SPEC_SCHEMA_VERSION:
                        raise ValueError(
                            f"journal {self.path}: job {job_id} holds a jobspec "
                            f"v{version} spec; this service reads v{SPEC_SCHEMA_VERSION}"
                        )
                    pending[job_id] = PendingJob(
                        job_id=job_id,
                        job_class=record.get("job_class", JOB_CLASS_INTERACTIVE),
                        spec_document=spec_doc,
                    )
                elif event in (status.value for status in JobStatus if status.finished):
                    pending.pop(job_id, None)
            return list(pending.values())

    def compact(self) -> List[PendingJob]:
        """Rewrite the journal down to its pending records; return them.

        The surviving records are written to a temp file, fsync'd and swapped
        in with ``os.replace``.  A crash at any point leaves either the old
        records or the compacted ones, never a journal missing a live record;
        a journal :meth:`replay` refuses is left as it is.
        """
        with self._lock:
            if self._active is not None and not self._active.closed:
                self._active.close()
            pending = self.replay()
            tmp = self.path.with_suffix(self.path.suffix + ".tmp")
            with open(tmp, "w", encoding="utf-8") as handle:
                for entry in pending:
                    record = self._record(
                        "submitted",
                        entry.job_id,
                        job_class=entry.job_class,
                        kind=entry.spec_document.get("kind"),
                        spec=entry.spec_document,
                    )
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.path)
            self._active = None
            return pending

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        """Journal shape for ``service_stats()`` / ``GET /stats``."""
        with self._lock:
            return {
                "directory": str(self.directory),
                "bytes": self.path.stat().st_size if self.path.exists() else 0,
            }
