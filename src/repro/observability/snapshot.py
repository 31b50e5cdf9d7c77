"""The versioned ``repro.observability-snapshot`` document.

:func:`snapshot` unifies the process's observability state — the metrics
registry, plan-pool statistics (pool-wide and per tag) and the tracing
summary — into one JSON-safe document:

.. code-block:: python

    {
        "schema": "repro.observability-snapshot",
        "schema_version": 3,
        "metrics": {"fft.transforms": {"direction=forward": 42.0, ...}, ...},
        "plan_pool": {"hits": ..., "misses": ..., ...},
        "plan_pool_by_tag": {"scatter-plan": {...}, ...},
        "trace": {"enabled": ..., "spans": ..., "span_counts": {...},
                  "span_durations_seconds": {...}},
    }

The document is embedded in ``RegistrationResult.to_dict()``, per-job
service artifacts, and ``RegistrationService.service_stats()``; the CI
``observability-smoke`` job validates emitted snapshots with
:func:`validate_snapshot`.

Schema evolution: additive fields bump ``SNAPSHOT_SCHEMA_VERSION`` only on
breaking changes, mirroring the other versioned documents
(``repro.registration-result``, ``repro.service-job``).  Version 2 dropped
v1's ``layout_decisions`` block with the stencil-layout policy it reported;
version 3 dropped v2's tile-traffic block with the out-of-core gather
pipeline it counted.

Unlike the stdlib-only :mod:`trace`/:mod:`metrics` leaves, this module
reads the stat mechanisms across the codebase — imports happen lazily
inside :func:`snapshot` to stay cycle-free.
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = [
    "SNAPSHOT_SCHEMA",
    "SNAPSHOT_SCHEMA_VERSION",
    "snapshot",
    "validate_snapshot",
    "validate_chrome_trace",
]

SNAPSHOT_SCHEMA = "repro.observability-snapshot"
SNAPSHOT_SCHEMA_VERSION = 3


def snapshot() -> Dict[str, Any]:
    """Collect the process-wide observability snapshot document."""
    from repro.observability.metrics import get_metrics_registry
    from repro.observability.trace import get_trace_recorder, tracing_enabled
    from repro.runtime.plan_pool import get_plan_pool

    pool = get_plan_pool()
    recorder = get_trace_recorder()
    return {
        "schema": SNAPSHOT_SCHEMA,
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "metrics": get_metrics_registry().collect(),
        "plan_pool": pool.stats.as_dict(),
        "plan_pool_by_tag": {
            tag: stats.as_dict() for tag, stats in sorted(pool.stats_by_tag().items())
        },
        "trace": {
            "enabled": tracing_enabled(),
            "spans": len(recorder),
            "span_counts": dict(sorted(recorder.span_counts().items())),
            "span_durations_seconds": dict(
                sorted(recorder.span_durations().items())
            ),
        },
    }


def validate_snapshot(document: Any, *, path: str = "snapshot") -> None:
    """Structurally validate a snapshot document; raise ``ValueError`` if bad.

    A lightweight hand-rolled check (no jsonschema dependency) used by the
    CI smoke job and the test suite.
    """

    def fail(message: str) -> None:
        raise ValueError(f"{path}: {message}")

    if not isinstance(document, dict):
        fail(f"expected a dict, got {type(document).__name__}")
    if document.get("schema") != SNAPSHOT_SCHEMA:
        fail(f"schema must be {SNAPSHOT_SCHEMA!r}, got {document.get('schema')!r}")
    if document.get("schema_version") != SNAPSHOT_SCHEMA_VERSION:
        fail(
            f"schema_version must be {SNAPSHOT_SCHEMA_VERSION}, "
            f"got {document.get('schema_version')!r}"
        )
    for key in ("metrics", "plan_pool", "plan_pool_by_tag", "trace"):
        if key not in document:
            fail(f"missing required block {key!r}")
        if not isinstance(document[key], dict):
            fail(f"block {key!r} must be a dict")
    metrics = document["metrics"]
    for name, series in metrics.items():
        if not isinstance(series, dict):
            fail(f"metrics[{name!r}] must map label keys to values")
    for key, value in document["plan_pool"].items():
        if not isinstance(value, int):
            fail(f"plan_pool[{key!r}] must be an integer, got {value!r}")
    trace = document["trace"]
    if not isinstance(trace.get("enabled"), bool):
        fail("trace.enabled must be a boolean")
    if not isinstance(trace.get("spans"), int):
        fail("trace.spans must be an integer")
    for key in ("span_counts", "span_durations_seconds"):
        if not isinstance(trace.get(key), dict):
            fail(f"trace.{key} must be a dict")


def validate_chrome_trace(document: Any, *, path: str = "trace") -> None:
    """Structurally validate a Chrome trace-event JSON document."""

    def fail(message: str) -> None:
        raise ValueError(f"{path}: {message}")

    if not isinstance(document, dict):
        fail(f"expected a dict, got {type(document).__name__}")
    events = document.get("traceEvents")
    if not isinstance(events, list):
        fail("traceEvents must be a list")
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            fail(f"traceEvents[{index}] must be a dict")
        for key, kinds in (
            ("name", str),
            ("ph", str),
            ("ts", (int, float)),
            ("pid", int),
            ("tid", int),
        ):
            if not isinstance(event.get(key), kinds):
                fail(f"traceEvents[{index}].{key} missing or mistyped")
        if event["ph"] == "X" and not isinstance(event.get("dur"), (int, float)):
            fail(f"traceEvents[{index}].dur missing for complete event")
