"""One workload in one process: set-up, untraced reps, optionally traced reps.

Started by ``run.py`` with a scrubbed environment; prints one JSON document
as the last line of standard output.  Timed reps always run before the span
wrappers are installed, so no timed number pays for tracing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"

#: (name, unit) of every end-to-end metric but ``setup_s``, which the parent
#: takes as the median over several set-ups
END_TO_END_UNITS = {"solve_s": "s", "jobs_per_s": "1/s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "transport.gather_self_s": "s",
    "transport.gather_sweeps": "count",
    "transport.gather_mpts_per_s": "Mpts/s",
    "transport.gather_stack_self_s": "s",
    "transport.plan_build_self_s": "s",
    "transport.solver_self_s": "s",
    "transport.state_s": "s",
    "transport.adjoint_s": "s",
    "transport.inc_state_s": "s",
    "transport.inc_adjoint_s": "s",
    "transport.detgrad_s": "s",
    "spectral.fft_self_s": "s",
    "spectral.fft_count": "count",
    "spectral.fft_gbps": "GB/s",
    "spectral.ops_self_s": "s",
    "runtime.pool_get_self_s": "s",
    "runtime.pool_hits": "count",
    "runtime.pool_misses": "count",
    "runtime.pool_hit_ratio": "ratio",
    "runtime.pool_bytes": "B",
    "core.newton_iterations": "count",
    "core.hessian_matvecs": "count",
    "core.pcg_iterations": "count",
    "core.line_search_trials": "count",
    "core.continuation_levels": "count",
    "core.matvec_ms": "ms",
    "core.linearize_s": "s",
    "core.objective_s": "s",
    "core.preprocess_s": "s",
    "core.driver_self_s": "s",
    "core.accumulate_self_s": "s",
    "core.relative_residual": "ratio",
    "core.det_grad_min": "ratio",
    "service.submit_ms_p50": "ms",
    "service.queue_wait_s_p50": "s",
    "service.register_job_s_p50": "s",
    "service.worker_busy_ratio": "ratio",
    "service.transport_batches": "count",
    "service.mean_batch_size": "count",
    "service.journal_bytes": "B",
    "service.failed_jobs": "count",
    "service.self_s": "s",
    "service.gather_wait_s": "s",
    "parallel.ghost_rounds": "count",
    "parallel.messages": "count",
    "parallel.bytes": "B",
    "parallel.self_s": "s",
    "bench.unattributed_s": "s",
    "bench.cpu_s": "s",
    "bench.trace_overhead_ratio": "ratio",
    "bench.span_count": "count",
    "bench.wall_s": "s",
}


def run_reps(rep: Callable, seconds: float, min_reps: int, machine, before: float) -> list:
    """Reps until *seconds* are measured (at least *min_reps*).

    A further rep starts only while half of it still fits, so a run
    overshoots its budget by at most half a rep.  The machine's slowdown is
    sampled between reps (*before* is the sample preceding the first one);
    each rep carries the mean of its two neighbours.
    """
    reps = []
    start = time.perf_counter()
    while True:
        result = rep()
        after = machine.slowdown()
        result.slowdown = 0.5 * (before + after)
        before = after
        reps.append(result)
        elapsed = time.perf_counter() - start
        if len(reps) >= min_reps and elapsed + 0.5 * elapsed / len(reps) > seconds:
            return reps


def summary(values: Sequence[float], unit: str) -> Dict[str, object]:
    """Median with quartiles and sample count beside it."""
    values = [float(v) for v in values]
    out = {"value": statistics.median(values), "unit": unit, "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def layer_metrics(workload, rep, profile) -> Dict[str, float]:
    """Every per-layer metric of one traced rep."""
    layer, total, counts, wall = profile.self_by_layer, profile.total, rep.counts, rep.wall_s
    gather_self = layer["transport.gather"]
    fft_self = layer["spectral.fft"]
    lookups = counts["runtime.pool_hits"] + counts["runtime.pool_misses"]
    matvecs = profile.calls("core.matvec")
    submits = profile.durations_by_name["service.submit"]
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    # the program's own counters and the workload's result values carry the
    # metric names already
    metrics.update((name, value) for name, value in {**rep.values, **counts}.items()
                   if name in metrics)
    metrics.update({
        "transport.gather_self_s": gather_self,
        # computed: points the frontend counted over the gathers' self time
        "transport.gather_mpts_per_s":
            counts["transport.gather_points"] / 1e6 / gather_self if gather_self else 0.0,
        "transport.gather_stack_self_s": profile.stack_gather_self,
        "transport.plan_build_self_s": layer["transport.plan_build"],
        "transport.solver_self_s": layer["transport.solver"],
        "transport.state_s":
            total("transport.solve_state") + total("transport.solve_state_final"),
        "transport.adjoint_s": total("transport.solve_adjoint"),
        "transport.inc_state_s": total("transport.solve_incremental_state"),
        "transport.inc_adjoint_s": total("transport.solve_incremental_adjoint"),
        "transport.detgrad_s": total("transport.detgrad"),
        "spectral.fft_self_s": fft_self,
        # computed: a real field read and its half spectrum written (or the
        # reverse), 16 B per grid point and transform; cache misses ignored
        "spectral.fft_gbps":
            counts["spectral.fft_count"] * 16 * workload.grid_points / 1e9 / fft_self
            if fft_self else 0.0,
        "spectral.ops_self_s": layer["spectral.ops"],
        "runtime.pool_get_self_s": layer["runtime.pool"],
        "runtime.pool_hit_ratio": counts["runtime.pool_hits"] / lookups if lookups else 0.0,
        "core.matvec_ms": 1e3 * total("core.matvec") / matvecs if matvecs else 0.0,
        "core.linearize_s": total("core.linearize"),
        "core.objective_s": total("core.objective"),
        "core.preprocess_s": total("core.preprocess"),
        "core.driver_self_s": layer["core.driver"],
        "core.accumulate_self_s": layer["core.accumulate"],
        "service.submit_ms_p50": 1e3 * statistics.median(submits) if submits else 0.0,
        "service.worker_busy_ratio":
            profile.worker_busy / (rep.values["service.workers"] * wall)
            if "service.workers" in rep.values else 0.0,
        "service.self_s": layer["service"],
        "service.gather_wait_s": layer["service.wait"],
        "parallel.self_s": layer["parallel"],
        "bench.unattributed_s": layer["bench.unattributed"],
        "bench.cpu_s": rep.cpu_s,
        "bench.span_count": profile.span_count,
        "bench.wall_s": wall,
    })
    return metrics


def trace_checks(rep, profile, span_cost: float) -> List[str]:
    """Cross-checks of one traced rep's spans against the program's counters."""
    problems = []
    lookups = rep.counts["runtime.pool_hits"] + rep.counts["runtime.pool_misses"]
    if profile.calls("pool.get") != lookups:
        problems.append(
            f"{profile.calls('pool.get')} PlanPool.get spans != {lookups:g} hits + misses")
    if not math.isclose(profile.main_self_sum, profile.root_wall, rel_tol=1e-6):
        problems.append(
            f"self times sum to {profile.main_self_sum:.6f} s, root span is "
            f"{profile.root_wall:.6f} s")
    if abs(profile.root_wall - rep.wall_s) > 1e-3:
        problems.append(
            f"root span {profile.root_wall:.6f} s != rep wall {rep.wall_s:.6f} s")
    unattributed = profile.self_by_layer["bench.unattributed"]
    if unattributed > 0.05 * rep.wall_s:
        problems.append(
            f"{unattributed:.3f} s of {rep.wall_s:.3f} s belong to no wrapped callable (> 5 %)")
    if profile.span_count * span_cost > 0.01 * rep.wall_s:
        problems.append(
            f"{profile.span_count} spans x {span_cost * 1e6:.2f} us exceed 1 % of "
            f"{rep.wall_s:.3f} s")
    return problems


def determinism_checks(workload, reps) -> List[str]:
    """The exact counters must agree across every rep of the run."""
    problems = []
    for name in workload.exact:
        seen = sorted({rep.counts[name] for rep in reps})
        if len(seen) > 1:
            problems.append(f"{name} differs between reps: {seen}")
    return problems


def traced_phase(workload, timed: list, seconds: float, min_reps: int, machine):
    """Install the wrappers, run traced reps, reduce their spans to metrics.

    Returns the reps, the per-layer metrics, the layer split (median share
    of rep wall per layer) and the failed cross-checks.
    """
    from spans import Recorder, RepProfile, per_span_cost

    recorder = Recorder()
    span_cost = per_span_cost()
    recorder.install()
    workload.span = recorder.root_span

    def traced_rep():
        recorder.rep += 1
        return workload.rep()

    try:
        traced = run_reps(traced_rep, seconds, min_reps, machine, timed[-1].slowdown)
    finally:
        recorder.uninstall()
    per_rep, shares, check_failures = [], {}, []
    for index, rep in enumerate(traced):
        profile = RepProfile(recorder, index)
        per_rep.append(layer_metrics(workload, rep, profile))
        check_failures += [f"traced rep {index}: {problem}"
                           for problem in trace_checks(rep, profile, span_cost)]
        for layer, self_s in profile.self_by_layer.items():
            shares.setdefault(layer, []).append(self_s / rep.wall_s)
    per_layer = {name: summary([metrics[name] for metrics in per_rep], unit)
                 for name, unit in PER_LAYER_UNITS.items()}
    overhead = (statistics.median(rep.wall_s / rep.slowdown for rep in traced)
                / statistics.median(rep.wall_s / rep.slowdown for rep in timed) - 1.0)
    per_layer["bench.trace_overhead_ratio"] = {"value": overhead, "unit": "ratio", "n": 1}
    layer_split = {layer: statistics.median(values) for layer, values in shares.items()}
    RESULTS.mkdir(exist_ok=True)
    recorder.write(RESULTS / f"trace-{workload.name}.json")
    return traced, per_layer, layer_split, check_failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.time() of the parent just before it started this process")
    args = parser.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.time()

    import numpy
    import scipy
    from calibration import MachineSpeed
    from workloads import all_workloads

    workload = all_workloads()[args.workload]
    workload.setup(args.seed, args.smoke)
    setup_raw_s = time.time() - spawned_at
    machine = MachineSpeed()
    slowdown = machine.slowdown()
    document = {
        "workload": workload.name,
        "seed": args.seed,
        "setup_raw_s": setup_raw_s,
        "setup_slowdown": slowdown,
    }
    if args.setup_only:
        print(json.dumps(document))
        return 0

    # a traced run gives most of its window to the traced reps; the untraced
    # ones give the overhead ratio its base and the determinism check its partner
    timed = run_reps(workload.rep, (0.35 if args.trace else 1.0) * args.seconds,
                     1 if args.smoke else (2 if args.trace else 3), machine, slowdown)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced, per_layer, layer_split, check_failures = [], {}, {}, []
    if args.trace:
        traced, per_layer, layer_split, check_failures = traced_phase(
            workload, timed, 0.65 * args.seconds, 1 if args.smoke else 2, machine)

    reps = timed + traced
    check_failures += determinism_checks(workload, reps)
    failures = [f"rep {i}: {text}" for i, rep in enumerate(reps) for text in rep.failures]
    document.update(
        attempted=sum(rep.attempted for rep in reps),
        failed=len(failures),
        failures=failures,
        check_failures=check_failures,
        end_to_end={
            # at reference machine speed (see calibration.py); raw walls below
            "solve_s": summary(
                [wall / rep.slowdown for rep in timed for wall in rep.solve_walls]
                or [rep.wall_s / rep.slowdown for rep in timed],  # no registration finished
                END_TO_END_UNITS["solve_s"]),
            "jobs_per_s": summary(
                [rep.attempted * rep.slowdown / rep.wall_s for rep in timed],
                END_TO_END_UNITS["jobs_per_s"]),
            "peak_rss_mb": {"value": peak_rss_mb, "unit": END_TO_END_UNITS["peak_rss_mb"],
                            "n": 1},
        },
        per_layer=per_layer,
        layer_split=layer_split,
        rep_walls_s=[rep.wall_s for rep in timed],
        rep_slowdowns=[rep.slowdown for rep in timed],
        counts=timed[0].counts,
        hygiene={
            "repro_env": sorted(k for k in os.environ if k.startswith("REPRO_")),
            "blas_threads": {k: os.environ.get(k) for k in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
            "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                         "scipy": scipy.__version__},
        },
    )
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
