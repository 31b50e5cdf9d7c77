"""Stdlib HTTP front of the registration service.

A thin :class:`http.server.ThreadingHTTPServer` layer that makes a running
:class:`~repro.service.workers.RegistrationService` reachable from outside
the process — no web framework, no new dependencies, just ``http.server``
and ``json``:

``POST /jobs``
    Body: a ``repro.service-jobspec`` v1 document (exactly the journal's
    spec schema — :func:`repro.service.journal.spec_to_dict` is the client
    encoder).  Returns ``202`` with ``{"job_id": ...}``; a malformed request
    or spec returns ``400`` with the validation message — the message the
    spec constructor gives a Python caller.
``GET /jobs/<id>``
    Status plus the full ``repro.service-job`` v6 artifact document of the
    job (the same document the artifact directory holds); ``404`` for an
    unknown id.
``DELETE /jobs/<id>``
    Cancels the job (cooperatively when RUNNING: the solve stops at its
    next safe point and records ``CANCELLED``).  Returns the delivery
    outcome and the status observed right after.
``GET /stats``
    ``service_stats()`` — queue depths, journal shape, plan-pool counters
    and the process observability snapshot.

The server threads only *submit, look up and cancel*; all solving stays in
the service's own worker pool, so an HTTP burst cannot oversubscribe the
compute workers.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.observability import trace_span
from repro.service.artifacts import job_artifact
from repro.core.registration import json_safe
from repro.service.journal import MalformedSpecError, spec_from_dict
from repro.service.workers import RegistrationService
from repro.utils.logging import get_logger

LOGGER = get_logger("service.http")

__all__ = ["ServiceHTTPServer", "serve_http"]

#: Upper bound on an accepted request body; a 64^3 registration spec
#: (two fields, base64) is ~5.6 MB, so this admits realistic jobs while
#: refusing accidental multi-GB uploads before reading them.
MAX_BODY_BYTES = 256 * 1024 * 1024


class ServiceHTTPServer(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` bound to one :class:`RegistrationService`."""

    daemon_threads = True

    def __init__(
        self,
        service: RegistrationService,
        address: Tuple[str, int] = ("127.0.0.1", 0),
    ) -> None:
        super().__init__(address, _ServiceRequestHandler)
        self.service = service

    @property
    def port(self) -> int:
        """The bound port (useful with port 0 — pick any free port)."""
        return self.server_address[1]


class _ServiceRequestHandler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        LOGGER.debug("%s %s", self.address_string(), format % args)

    def _send_json(self, status: int, document: Dict[str, Any]) -> None:
        body = json.dumps(json_safe(document)).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_json_body(self) -> Any:
        header = self.headers.get("Content-Length", "0")
        try:
            length = int(header)
        except ValueError:
            # the body was never read: the connection cannot carry another request
            self.close_connection = True
            raise MalformedSpecError(
                f"Content-Length must be an integer, got {header!r}"
            ) from None
        if length <= 0:
            raise MalformedSpecError("request body must be a JSON document")
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise MalformedSpecError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise MalformedSpecError(f"request body is not valid JSON: {exc}") from None

    def _job_id_from_path(self) -> Optional[str]:
        parts = [part for part in self.path.split("?", 1)[0].split("/") if part]
        if len(parts) == 2 and parts[0] == "jobs":
            return parts[1]
        return None

    # ------------------------------------------------------------------ #
    # routes
    # ------------------------------------------------------------------ #
    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        if self.path.split("?", 1)[0].rstrip("/") != "/jobs":
            self._send_error_json(404, f"no such route: POST {self.path}")
            return
        try:
            with trace_span("service.http.submit"):
                document = self._read_json_body()
                spec = spec_from_dict(document)
                job = self.server.service._enqueue(spec)
        except MalformedSpecError as exc:
            self._send_error_json(400, str(exc))
            return
        except Exception as exc:  # noqa: BLE001 - client-facing boundary
            LOGGER.exception("HTTP submission failed")
            self._send_error_json(500, f"submission failed: {exc}")
            return
        self._send_json(
            202,
            {
                "job_id": job.job_id,
                "kind": job.record.kind,
                "job_class": job.job_class,
                "status": job.status.value,
            },
        )

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        path = self.path.split("?", 1)[0]
        if path.rstrip("/") == "/stats":
            self._send_json(200, self.server.service.service_stats())
            return
        job_id = self._job_id_from_path()
        if job_id is None:
            self._send_error_json(404, f"no such route: GET {self.path}")
            return
        job = self.server.service.job(job_id)
        if job is None:
            self._send_error_json(404, f"unknown job id {job_id!r}")
            return
        self._send_json(
            200,
            {
                "job_id": job.job_id,
                "status": job.status.value,
                "artifact": job_artifact(job),
            },
        )

    def do_DELETE(self) -> None:  # noqa: N802 - http.server naming
        job_id = self._job_id_from_path()
        if job_id is None:
            self._send_error_json(404, f"no such route: DELETE {self.path}")
            return
        job = self.server.service.job(job_id)
        if job is None:
            self._send_error_json(404, f"unknown job id {job_id!r}")
            return
        with trace_span("service.http.cancel", job_id=job_id):
            delivered = job.cancel(force=True)
        self._send_json(
            200,
            {
                "job_id": job.job_id,
                "cancelled": delivered,
                "status": job.status.value,
            },
        )


def serve_http(
    service: RegistrationService,
    port: int,
    host: str = "127.0.0.1",
    background: bool = True,
) -> ServiceHTTPServer:
    """Expose *service* over HTTP; returns the bound server.

    With ``background=True`` (default) the accept loop runs on a daemon
    thread and the call returns immediately — ``server.shutdown()`` stops
    it.  ``port=0`` binds any free port (read it back from
    ``server.port``).
    """
    server = ServiceHTTPServer(service, (host, port))
    if background:
        thread = threading.Thread(
            target=server.serve_forever, name="repro-service-http", daemon=True
        )
        thread.start()
    LOGGER.info("service HTTP front listening on %s:%d", host, server.port)
    return server
