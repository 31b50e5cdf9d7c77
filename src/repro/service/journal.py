"""Durable job journal: crash-safe persistence of queued service jobs.

PR 6's job layer is purely in-process: a killed worker process takes every
queued and running job with it, and the submitting side never learns.
This module makes submissions *durable* with nothing but the standard
library and the existing versioned-document discipline:

* **Spec documents.**  :func:`spec_to_dict` / :func:`spec_from_dict`
  serialize :class:`~repro.service.jobs.RegistrationJobSpec` and
  :class:`~repro.service.jobs.TransportJobSpec` as versioned JSON
  (``repro.service-jobspec`` v1).  Arrays are embedded bitwise (base64 of
  the C-contiguous buffer + dtype + shape), so a replayed job computes the
  *identical* result the original submission would have.  The same schema
  is the wire format of the HTTP front's ``POST /jobs``.

* **Append-only segments.**  A journal is a directory of
  ``segment-<n>.jsonl`` files.  Every submission appends one
  ``submitted`` record (spec included) to the active segment and — with
  ``fsync_on_commit`` (the default) — fsyncs before the submit call
  returns, so an acknowledged job survives a crash of the very next
  instruction.  Terminal transitions append small ``done`` / ``failed`` /
  ``cancelled`` records.  Appends never rewrite existing bytes; a torn
  final line (killed mid-append) is detected and skipped at replay.

* **Replay + compaction.**  :meth:`JobJournal.replay` folds the segments
  into the set of jobs that were submitted but never reached a terminal
  state — exactly the work a restarted service must re-queue.
  :meth:`JobJournal.compact` rewrites those pending records into one
  fresh segment through the atomic temp-file + ``os.replace`` pattern
  (fsync'd before the swap), then deletes the dead segments, bounding the
  journal's size by the live backlog instead of the service's lifetime.

Journal sizing: a record is ~1.4x the spec's array payload (base64) plus
~300 bytes of envelope; terminal records are ~150 bytes.  With the default
16 MiB segment cap, a 64^3 transport job (~4 MB of fields) rotates every
~3 jobs, and compaction on service start keeps dead segments from
accumulating.
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
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.core.optim.gauss_newton import SolverOptions
from repro.core.optim.line_search import ArmijoLineSearch
from repro.observability.trace import trace_span
from repro.service.jobs import (
    JOB_CLASS_INTERACTIVE,
    JobStatus,
    RegistrationJobSpec,
    TransportJobSpec,
)
from repro.spectral.grid import Grid
from repro.utils.logging import get_logger
from repro.utils.validation import check_finite

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
SPEC_SCHEMA_VERSION = 1

#: Name and version of one journal record (one JSON line per event).
JOURNAL_SCHEMA = "repro.service-journal"
JOURNAL_SCHEMA_VERSION = 1

_SEGMENT_PREFIX = "segment-"
_SEGMENT_SUFFIX = ".jsonl"

#: Default rotation threshold of the active segment.
DEFAULT_SEGMENT_BYTES = 16 * 1024 * 1024


class MalformedSpecError(ValueError):
    """A spec document failed validation (the HTTP 400 error path)."""


# --------------------------------------------------------------------- #
# array / dataclass encoding
# --------------------------------------------------------------------- #
def _encode_array(array: np.ndarray) -> Dict[str, Any]:
    array = np.ascontiguousarray(array)
    return {
        "__ndarray__": True,
        "dtype": str(array.dtype),
        "shape": list(array.shape),
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def _decode_array(doc: Any, what: str) -> np.ndarray:
    if not isinstance(doc, dict) or not doc.get("__ndarray__"):
        raise MalformedSpecError(f"{what} must be an encoded ndarray document")
    try:
        dtype = np.dtype(doc["dtype"])
        shape = tuple(int(n) for n in doc["shape"])
        raw = base64.b64decode(doc["data"], validate=True)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedSpecError(f"{what} is not a valid ndarray document: {exc}") from None
    expected = dtype.itemsize * int(np.prod(shape, dtype=np.int64)) if shape else dtype.itemsize
    if len(raw) != expected:
        raise MalformedSpecError(
            f"{what} payload has {len(raw)} bytes, expected {expected} "
            f"for dtype {dtype} and shape {shape}"
        )
    array = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    try:
        return check_finite(array, what)
    except ValueError as exc:
        raise MalformedSpecError(str(exc)) from None


def _encode_grid(grid: Optional[Grid]) -> Optional[Dict[str, Any]]:
    if grid is None:
        return None
    return {
        "shape": list(grid.shape),
        "lengths": list(grid.lengths),
        "dtype": str(grid.dtype),
    }


def _decode_grid(doc: Any) -> Optional[Grid]:
    if doc is None:
        return None
    try:
        return Grid(doc["shape"], lengths=doc["lengths"], dtype=np.dtype(doc["dtype"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedSpecError(f"invalid grid document: {exc}") from None


def _encode_options(options: Optional[SolverOptions]) -> Optional[Dict[str, Any]]:
    if options is None:
        return None
    # field-by-field, NOT dataclasses.asdict: asdict deep-copies every
    # value, and a live cancel token holds a threading lock (unpicklable);
    # the token is a handle of THIS process and is never serialized anyway
    doc: Dict[str, Any] = {}
    for field in dataclasses.fields(options):
        if field.name == "cancel_token":
            continue
        value = getattr(options, field.name)
        if isinstance(value, ArmijoLineSearch):
            value = dataclasses.asdict(value)
        doc[field.name] = value
    return doc


def _decode_options(doc: Any) -> Optional[SolverOptions]:
    if doc is None:
        return None
    try:
        fields = dict(doc)
        fields.pop("cancel_token", None)
        line_search = fields.pop("line_search", None)
        if line_search is not None:
            fields["line_search"] = ArmijoLineSearch(**line_search)
        return SolverOptions(**fields)
    except (TypeError, ValueError) as exc:
        raise MalformedSpecError(f"invalid solver-options document: {exc}") from None


# --------------------------------------------------------------------- #
# spec documents
# --------------------------------------------------------------------- #
def spec_to_dict(spec: Union[RegistrationJobSpec, TransportJobSpec]) -> Dict[str, Any]:
    """Serialize a job spec as a versioned, JSON-ready document.

    Arrays are embedded bitwise; :func:`spec_from_dict` reconstructs a
    spec whose solve is numerically identical to the original's.
    """
    if spec.kind == "register":
        payload: Dict[str, Any] = {
            "template": _encode_array(spec.template),
            "reference": _encode_array(spec.reference),
            "beta": float(spec.beta),
            "regularization": spec.regularization,
            "incompressible": bool(spec.incompressible),
            "num_time_steps": int(spec.num_time_steps),
            "gauss_newton": bool(spec.gauss_newton),
            "optimizer": spec.optimizer,
            "smooth_sigma": float(spec.smooth_sigma),
            "normalize": bool(spec.normalize),
            "interpolation": spec.interpolation,
            "options": _encode_options(spec.options),
            "grid": _encode_grid(spec.grid),
        }
    elif spec.kind == "transport":
        payload = {
            "velocity": _encode_array(spec.velocity),
            "moving": _encode_array(spec.moving),
            "num_time_steps": int(spec.num_time_steps),
            "num_tasks": int(spec.num_tasks),
            "grid": _encode_grid(spec.grid),
        }
    else:  # pragma: no cover - new spec kinds must extend this module
        raise ValueError(f"unknown job-spec kind {spec.kind!r}")
    return {
        "schema": SPEC_SCHEMA,
        "schema_version": SPEC_SCHEMA_VERSION,
        "kind": spec.kind,
        "job_class": getattr(spec, "job_class", JOB_CLASS_INTERACTIVE),
        "spec": payload,
    }


def spec_from_dict(document: Any) -> Union[RegistrationJobSpec, TransportJobSpec]:
    """Reconstruct a job spec from :func:`spec_to_dict` output.

    Raises
    ------
    MalformedSpecError
        The document is not a valid v1 jobspec, a float array holds a NaN or
        an infinity, or the arrays' shapes disagree (clean, client-facing
        message — the HTTP front returns it verbatim with a 400, before
        anything is journaled).
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
    job_class = document.get("job_class", JOB_CLASS_INTERACTIVE)
    if not isinstance(job_class, str) or not job_class:
        raise MalformedSpecError("jobspec 'job_class' must be a non-empty string")
    try:
        if kind == "register":
            template = _decode_array(payload.get("template"), "template")
            reference = _decode_array(payload.get("reference"), "reference")
            if template.shape != reference.shape:
                raise MalformedSpecError(
                    f"template and reference must share a shape, got {template.shape} "
                    f"and {reference.shape}"
                )
            return RegistrationJobSpec(
                template=template,
                reference=reference,
                beta=float(payload.get("beta", 1e-2)),
                regularization=str(payload.get("regularization", "h1")),
                incompressible=bool(payload.get("incompressible", False)),
                num_time_steps=int(payload.get("num_time_steps", 4)),
                gauss_newton=bool(payload.get("gauss_newton", True)),
                optimizer=str(payload.get("optimizer", "gauss_newton")),
                smooth_sigma=float(payload.get("smooth_sigma", 1.0)),
                normalize=bool(payload.get("normalize", True)),
                interpolation=str(payload.get("interpolation", "cubic_bspline")),
                options=_decode_options(payload.get("options")),
                grid=_decode_grid(payload.get("grid")),
                job_class=job_class,
            )
        if kind == "transport":
            velocity = _decode_array(payload.get("velocity"), "velocity")
            moving = _decode_array(payload.get("moving"), "moving")
            if velocity.shape != (3, *moving.shape):
                raise MalformedSpecError(
                    f"velocity must have shape {(3, *moving.shape)} for a moving "
                    f"image of shape {moving.shape}, got {velocity.shape}"
                )
            return TransportJobSpec(
                velocity=velocity,
                moving=moving,
                num_time_steps=int(payload.get("num_time_steps", 4)),
                num_tasks=int(payload.get("num_tasks", 4)),
                grid=_decode_grid(payload.get("grid")),
                job_class=job_class,
            )
    except MalformedSpecError:
        raise
    except (TypeError, ValueError) as exc:
        raise MalformedSpecError(f"invalid {kind} jobspec: {exc}") from None
    raise MalformedSpecError(
        f"jobspec kind must be 'register' or 'transport', got {kind!r}"
    )


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
    """Append-only, fsync'd, segmented journal of service jobs.

    Parameters
    ----------
    directory:
        Journal directory (created on first use).  One directory belongs
        to one service process at a time.
    max_segment_bytes:
        Rotation threshold of the active segment.
    fsync_on_commit:
        ``True`` (default) forces every record to stable storage before
        the append returns — the durability the kill -9 test pins.
        ``False`` trades that for lower submit latency (data survives a
        process crash but not a host power loss).
    """

    def __init__(
        self,
        directory: Union[str, Path],
        max_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        fsync_on_commit: bool = True,
    ) -> None:
        if max_segment_bytes < 1:
            raise ValueError(
                f"max_segment_bytes must be positive, got {max_segment_bytes}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_segment_bytes = int(max_segment_bytes)
        self.fsync_on_commit = bool(fsync_on_commit)
        self._lock = threading.Lock()
        self._active: Optional[Any] = None  # open file handle of the active segment
        indices = [index for index, _ in self._segments()]
        self._active_index = max(indices) if indices else 0

    # ------------------------------------------------------------------ #
    # segment bookkeeping
    # ------------------------------------------------------------------ #
    def _segment_path(self, index: int) -> Path:
        return self.directory / f"{_SEGMENT_PREFIX}{index:08d}{_SEGMENT_SUFFIX}"

    def _segments(self) -> List[Tuple[int, Path]]:
        """(index, path) of every segment on disk, sorted by index."""
        segments: List[Tuple[int, Path]] = []
        for path in self.directory.glob(f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}"):
            stem = path.name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
            try:
                segments.append((int(stem), path))
            except ValueError:  # foreign file; never touch it
                continue
        segments.sort()
        return segments

    def _open_active(self) -> Any:
        if self._active is None or self._active.closed:
            if self._active_index == 0:
                self._active_index = 1
            self._active = open(  # noqa: SIM115 - long-lived append handle
                self._segment_path(self._active_index), "a", encoding="utf-8"
            )
        return self._active

    def _rotate_if_needed(self) -> None:
        # caller holds the lock; the active handle is open
        if self._active.tell() < self.max_segment_bytes:
            return
        self._active.close()
        self._active_index += 1
        self._active = open(  # noqa: SIM115 - long-lived append handle
            self._segment_path(self._active_index), "a", encoding="utf-8"
        )

    def close(self) -> None:
        """Close the active segment handle (the journal stays replayable)."""
        with self._lock:
            if self._active is not None and not self._active.closed:
                self._active.close()

    # ------------------------------------------------------------------ #
    # appends
    # ------------------------------------------------------------------ #
    def _append(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            handle = self._open_active()
            handle.write(line + "\n")
            handle.flush()
            if self.fsync_on_commit:
                os.fsync(handle.fileno())
            self._rotate_if_needed()

    def _record(self, event: str, job_id: str, **extra: Any) -> Dict[str, Any]:
        return {
            "schema": JOURNAL_SCHEMA,
            "schema_version": JOURNAL_SCHEMA_VERSION,
            "event": event,
            "job_id": job_id,
            "at": time.time(),
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
        segments = self._segments()
        for position, (_, path) in enumerate(segments):
            text = path.read_text(encoding="utf-8")
            lines = text.split("\n")
            # a file killed mid-append may end in a torn line (no trailing
            # newline); only the FINAL line of the FINAL segment may be
            # legitimately torn — anything else is corruption worth a warning
            for line_number, line in enumerate(lines):
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    last_segment = position == len(segments) - 1
                    torn_tail = line_number == len(lines) - 1 and not text.endswith("\n")
                    if last_segment and torn_tail:
                        LOGGER.warning(
                            "journal %s: skipping torn final record (crash mid-append)",
                            path.name,
                        )
                    else:
                        LOGGER.warning(
                            "journal %s:%d: skipping unreadable record",
                            path.name,
                            line_number + 1,
                        )
                    continue
                if record.get("schema") != JOURNAL_SCHEMA:
                    LOGGER.warning(
                        "journal %s:%d: skipping foreign record (schema %r)",
                        path.name,
                        line_number + 1,
                        record.get("schema"),
                    )
                    continue
                yield record

    def replay(self) -> List[PendingJob]:
        """Jobs submitted but never finished, in submission order."""
        with trace_span("service.journal.replay"):
            pending: Dict[str, PendingJob] = {}
            for record in self._iter_records():
                job_id = record.get("job_id")
                event = record.get("event")
                if event == "submitted":
                    spec_doc = record.get("spec")
                    if not isinstance(spec_doc, dict):
                        LOGGER.warning(
                            "journal: submitted record of job %s has no spec; skipping",
                            job_id,
                        )
                        continue
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

        The surviving records are written to a fresh segment through the
        atomic temp-file + ``os.replace`` pattern (fsync'd before the
        swap), and the dead segments are removed afterwards — a crash at
        any point leaves either the old segment set or the compacted one,
        never a mix missing live records.
        """
        with self._lock:
            if self._active is not None and not self._active.closed:
                self._active.close()
            pending = self.replay()
            old_segments = self._segments()
            next_index = (old_segments[-1][0] + 1) if old_segments else 1
            target = self._segment_path(next_index)
            tmp = target.with_suffix(target.suffix + ".tmp")
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
            os.replace(tmp, target)
            for _, path in old_segments:
                path.unlink(missing_ok=True)
            self._active_index = next_index
            self._active = None
            return pending

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        """Journal shape for ``service_stats()`` / ``GET /stats``."""
        with self._lock:
            segments = self._segments()
            return {
                "directory": str(self.directory),
                "segments": len(segments),
                "bytes": sum(path.stat().st_size for _, path in segments),
                "fsync_on_commit": self.fsync_on_commit,
                "max_segment_bytes": self.max_segment_bytes,
            }
