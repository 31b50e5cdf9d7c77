"""Observability overhead and span-accounting pins (16^3, nt = 4).

The tracing layer promises two things the evaluation section depends on:

* **zero-cost when off** — the disabled ``trace_span`` path is one module
  boolean check returning a shared no-op context manager, so leaving the
  instrumentation compiled into every hot kernel (FFT, gather, matvec)
  must not move the solver's wall-clock time;
* **honest when on** — every span stands for exactly one unit of counted
  kernel work, so span totals must agree with the independent work
  counters, and recording spans must never change the numerics.

This bench pins both on the deterministic 16^3 / nt = 4 synthetic
registration: the disabled-path per-span cost (microbenchmark), the
enabled/disabled solve-time ratio, bitwise identity of the velocity with
tracing on vs off, the span-count/work-counter cross-checks, and run-to-run
determinism of the full span-count table.  Artifacts go to
``benchmarks/results/observability.{txt,json}``.
"""

import os
import time

import numpy as np
import pytest

from repro.analysis.reporting import format_rows
from repro.core.registration import register
from repro.data.synthetic import synthetic_registration_problem
from repro.observability import (
    disable_tracing,
    enable_tracing,
    get_metrics_registry,
    get_trace_recorder,
    trace_span,
    tracing_enabled,
)

RESOLUTION = 16
NUM_TIME_STEPS = 4

#: Upper bound on the disabled-path cost of one ``trace_span`` call.  The
#: real cost is a boolean check plus one kwargs dict (~1 us); the bound is
#: generous so shared runners do not flip it.
DISABLED_SPAN_BUDGET_US = 10.0

#: Upper bound on the enabled/disabled solve-time ratio.  Tracing records a
#: few thousand spans per 16^3 solve; the bound allows for timer noise at
#: this tiny (sub-second) problem size.
ENABLED_OVERHEAD_RATIO = 1.5


def _solve(problem):
    return register(
        problem.template,
        problem.reference,
        grid=problem.grid,
        num_time_steps=NUM_TIME_STEPS,
    )


def _timed_solve(problem):
    start = time.perf_counter()
    result = _solve(problem)
    return result, time.perf_counter() - start


def _metric_totals():
    collected = get_metrics_registry().collect()
    return {name: sum(series.values()) for name, series in collected.items()}


def _disabled_span_cost_us(iterations: int = 50_000) -> float:
    assert not tracing_enabled()
    start = time.perf_counter()
    for _ in range(iterations):
        with trace_span("bench.noop", index=0):
            pass
    return (time.perf_counter() - start) / iterations * 1e6


def test_observability_overhead(benchmark, record_text, record_json):
    problem = synthetic_registration_problem(RESOLUTION)
    recorder = get_trace_recorder()

    def measure():
        # -- disabled path: microbenchmark + solve timings ------------------
        disable_tracing()
        span_cost_us = _disabled_span_cost_us()
        _solve(problem)  # warm plan pool and symbol store once
        result_off, time_off = _timed_solve(problem)
        _, time_off_repeat = _timed_solve(problem)

        # -- enabled path: timed solve plus span accounting -----------------
        enable_tracing()
        recorder.clear()
        before = _metric_totals()
        result_on, time_on = _timed_solve(problem)
        counts_first = recorder.span_counts()
        after = _metric_totals()

        # run-to-run determinism of the span-count table
        recorder.clear()
        result_repeat = _solve(problem)
        counts_repeat = recorder.span_counts()
        disable_tracing()
        return {
            "span_cost_us": span_cost_us,
            "time_off": min(time_off, time_off_repeat),
            "time_on": time_on,
            "result_off": result_off,
            "result_on": result_on,
            "result_repeat": result_repeat,
            "counts": counts_first,
            "counts_repeat": counts_repeat,
            "fft_delta": after.get("fft.transforms", 0) - before.get("fft.transforms", 0),
            "sweep_delta": after.get("interp.sweeps", 0) - before.get("interp.sweeps", 0),
        }

    m = benchmark.pedantic(measure, rounds=1, iterations=1)
    counts = m["counts"]
    summary_on = m["result_on"].summary()
    overhead_ratio = m["time_on"] / m["time_off"]
    rows = [
        {
            "grid": f"{RESOLUTION}^3",
            "nt": NUM_TIME_STEPS,
            "disabled_span_cost_us": m["span_cost_us"],
            "solve_disabled_s": m["time_off"],
            "solve_enabled_s": m["time_on"],
            "overhead_ratio": overhead_ratio,
            "spans_recorded": sum(counts.values()),
        }
    ]
    record_text(
        "observability",
        format_rows(rows, title="Observability overhead (16^3 synthetic, nt = 4)")
        + "\n\nspan counts: "
        + str(dict(sorted(counts.items()))),
    )
    record_json(
        "observability",
        {
            "overhead": rows[0],
            "span_counts": dict(sorted(counts.items())),
            "work_counters": {
                "fft_transforms": m["fft_delta"],
                "interpolation_sweeps": m["sweep_delta"],
                "hessian_matvecs": summary_on["hessian_matvecs"],
                "newton_iterations": summary_on["newton_iterations"],
            },
        },
    )

    # tracing never changes the numerics: bitwise identical velocities
    assert np.array_equal(m["result_off"].velocity, m["result_on"].velocity)
    assert np.array_equal(m["result_on"].velocity, m["result_repeat"].velocity)

    # span accounting: every span stands for one unit of counted kernel work
    fft_spans = counts.get("fft.forward", 0) + counts.get("fft.backward", 0)
    assert fft_spans == m["fft_delta"]
    assert counts.get("interp.gather", 0) == m["sweep_delta"]
    assert counts.get("pcg.matvec", 0) == summary_on["hessian_matvecs"]
    assert counts.get("newton.iteration", 0) == summary_on["newton_iterations"]
    assert counts.get("registration.solve", 0) == 1
    # ... and the whole span-count table is deterministic run to run
    assert counts == m["counts_repeat"]

    # wall-clock pins; REPRO_BENCH_NONSTRICT=1 downgrades a loss to a skip
    # for noisy shared runners where timing comparisons can flip
    failures = []
    if m["span_cost_us"] > DISABLED_SPAN_BUDGET_US:
        failures.append(
            f"disabled trace_span cost {m['span_cost_us']:.2f}us exceeds "
            f"{DISABLED_SPAN_BUDGET_US}us"
        )
    if overhead_ratio > ENABLED_OVERHEAD_RATIO:
        failures.append(
            f"enabled tracing overhead ratio {overhead_ratio:.2f} exceeds "
            f"{ENABLED_OVERHEAD_RATIO}"
        )
    if failures:
        message = "; ".join(failures)
        if os.environ.get("REPRO_BENCH_NONSTRICT"):
            pytest.skip(message)
        raise AssertionError(message)
