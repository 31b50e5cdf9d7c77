"""Unified observability layer: tracing spans, metrics, snapshot, exporters.

The paper's headline evidence is its per-kernel cost breakdown — FFT vs
interpolation vs communication time per matvec and per Newton iteration
(Tables I-IV) — and :mod:`repro.parallel.performance` *models* those costs
analytically, but until this subsystem the running code could not *measure*
them: timing, counter and traffic data were scattered across ad-hoc
mechanisms (FFT counters, interpolation sweep counters, plan-pool
statistics, the communication ledger) with no shared
schema and no timing for solver phases.

Three pieces, deliberately layered so the hot kernels stay untouched when
observability is off:

:mod:`repro.observability.trace`
    Structured tracing: :func:`trace_span` wraps a code region in a nested
    span (monotonic start/duration, thread id, attributes) recorded into a
    process-wide :class:`TraceRecorder`.  Disabled by default; the
    disabled path is one module-level boolean check returning a shared
    no-op context manager — no span objects, no recorder traffic.  Enabled
    via ``REPRO_TRACE=1``, the ``--trace`` CLI flag, or
    :func:`enable_tracing`.  Exports Chrome trace-event JSON
    (``--trace-out run.trace.json``), loadable in Perfetto.

:mod:`repro.observability.metrics`
    A process-wide registry of :class:`Counter`/:class:`Gauge` metrics
    with label sets, plus pull *collectors* so
    the existing stat mechanisms publish into one place without changing
    their own APIs.

:mod:`repro.observability.snapshot`
    One versioned ``repro.observability-snapshot`` v4 document
    (:func:`snapshot`) unifying all of it: the registry, the plan pool's
    stats and the trace summary.
    Embedded in ``RegistrationResult.to_dict()``, per-job service
    artifacts, and ``RegistrationService.service_stats()``.

The tracing/metrics modules import only the standard library, so every
kernel frontend (spectral, transport, runtime, parallel) can instrument
itself without import cycles; :func:`snapshot` reaches into the stat
mechanisms lazily.
"""

from repro.observability.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    get_metrics_registry,
)
from repro.observability.report import format_phase_table
from repro.observability.snapshot import (
    SNAPSHOT_SCHEMA,
    SNAPSHOT_SCHEMA_VERSION,
    snapshot,
    validate_chrome_trace,
    validate_snapshot,
)
from repro.observability.trace import (
    TRACE_ENV_VAR,
    TraceRecorder,
    TraceSpan,
    chrome_trace_document,
    disable_tracing,
    enable_tracing,
    env_trace_enabled,
    get_trace_recorder,
    trace_span,
    tracing_enabled,
    write_chrome_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "get_metrics_registry",
    "format_phase_table",
    "SNAPSHOT_SCHEMA",
    "SNAPSHOT_SCHEMA_VERSION",
    "snapshot",
    "validate_chrome_trace",
    "validate_snapshot",
    "TRACE_ENV_VAR",
    "TraceRecorder",
    "TraceSpan",
    "chrome_trace_document",
    "disable_tracing",
    "enable_tracing",
    "env_trace_enabled",
    "get_trace_recorder",
    "trace_span",
    "tracing_enabled",
    "write_chrome_trace",
]
