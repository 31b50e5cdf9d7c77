#!/usr/bin/env python3
"""End-to-end registration benchmark: one command, every metric by name.

    python benchmarks/e2e/run.py                      # all workloads, timed + traced
    python benchmarks/e2e/run.py --workload solve32 --seed 3 --seconds 20 --trace 0
    python benchmarks/e2e/run.py --check-repeat       # two sets, compared to the bounds
    python benchmarks/e2e/run.py --smoke              # tiny sizes, one rep each

Every workload runs in fresh child processes (``worker.py``) whose
environment carries no ``REPRO_*`` variable and pins the BLAS pools to one
thread.  With ``--workload`` the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``BENCHMARK.json`` at the repository root declares the workloads, the
metrics, their units and the bounds this file compares against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"

#: set-ups timed per run (the measuring process plus this many that only set
#: up); ``setup_s`` is their median
SETUP_PROBES = 4
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: a worker that runs longer than this is killed (a whole run must end in 180 s)
CHILD_TIMEOUT_S = 150


class WorkerError(RuntimeError):
    """A worker process crashed, hung, or could not import the program."""


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def child_environment() -> Dict[str, str]:
    """The parent's environment minus every program knob, BLAS pinned to one thread.

    An ambient ``REPRO_*`` variable would silently change what is measured;
    unpinned BLAS pools oversubscribe the service's worker threads.
    """
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    for name in BLAS_THREAD_VARS:
        env[name] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int, smoke: bool,
              setup_only: bool = False) -> dict:
    """One ``worker.py`` process; its JSON document, or an error on failure."""
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--spawned-at", repr(time.time())]
    if smoke:
        command.append("--smoke")
    if setup_only:
        command.append("--setup-only")
    try:
        finished = subprocess.run(command, env=child_environment(), cwd=ROOT,
                                  stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{workload}: worker killed after {CHILD_TIMEOUT_S} s") from None
    if finished.returncode != 0:
        raise WorkerError(f"{workload}: worker exited with code {finished.returncode}")
    return json.loads(finished.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """One run of one workload; ``setup_s`` joins the end-to-end metrics.

    ``setup_s`` is the median raw set-up over the median machine slowdown the
    set-ups saw (one calibration sample each, see ``calibration.py``).
    """
    probes = 0 if (trace or smoke) else SETUP_PROBES
    setups = [run_child(workload, seed, seconds, trace, smoke, setup_only=True)
              for _ in range(probes)]
    document = run_child(workload, seed, seconds, trace, smoke)
    setups.append(document)
    raw = statistics.median(child["setup_raw_s"] for child in setups)
    slowdown = statistics.median(child["setup_slowdown"] for child in setups)
    document["end_to_end"]["setup_s"] = {
        "value": raw / slowdown, "unit": "s", "n": len(setups), "raw": raw}
    document["correct"] = not document["failed"] and not document["check_failures"]
    return document


def contract_line(document: dict, trace: int) -> str:
    """The result object the benchmark contract asks for, as one line."""
    metrics = document["per_layer"] if trace else document["end_to_end"]
    return json.dumps({
        "correct": document["correct"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in metrics.items()},
    })


def report(document: dict, trace: int) -> None:
    """Human-readable metrics of one run, by name with unit."""
    workload = document["workload"]
    print(f"== {workload}  seed {document['seed']}  "
          f"{'traced' if trace else 'timed'}  attempted {document['attempted']}  "
          f"failed {document['failed']}")
    for text in document["failures"] + document["check_failures"]:
        print(f"   FAILED  {text}")
    metrics = document["per_layer"] if trace else document["end_to_end"]
    for name, entry in metrics.items():
        spread = (f"  [q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}]" if "q1" in entry else "")
        print(f"   {name:32s} {entry['value']:14.6g} {entry['unit']:7s} n={entry['n']}{spread}")
    if trace:
        shares = sorted(document["layer_split"].items(), key=lambda item: -item[1])
        print("   layer split (self time / rep wall): "
              + ", ".join(f"{layer} {share:.1%}" for layer, share in shares))
    else:
        walls, slowdowns = document["rep_walls_s"], document["rep_slowdowns"]
        print(f"   raw (uncalibrated): rep wall median {statistics.median(walls):.4f} s, "
              f"set-up median {metrics['setup_s']['raw']:.4f} s, "
              f"machine slowdown median {statistics.median(slowdowns):.3f} "
              f"[{min(slowdowns):.3f}, {max(slowdowns):.3f}]")
        hygiene = document["hygiene"]
        print(f"   hygiene: REPRO_* in child {hygiene['repro_env']}, "
              f"BLAS threads {hygiene['blas_threads']}")


def run_set(workloads: List[str], seed: int, seconds: float, smoke: bool) -> Dict[str, dict]:
    """Timed and traced run of every workload; ``{workload: {"timed", "traced"}}``."""
    results = {}
    for workload in workloads:
        results[workload] = {}
        for trace, label in ((0, "timed"), (1, "traced")):
            document = measure(workload, seed, seconds, trace, smoke)
            report(document, trace)
            results[workload][label] = document
    return results


def all_correct(results: Dict[str, dict]) -> bool:
    return all(run["correct"] for runs in results.values() for run in runs.values())


def check_repeat(first: Dict[str, dict], second: Dict[str, dict], spec: dict) -> bool:
    """Both medians and their relative change per (metric, workload) against the bound."""
    within = True
    print(f"{'workload':14s} {'metric':12s} {'first':>12s} {'second':>12s} "
          f"{'worse by':>9s} {'bound':>6s}")
    for workload in first:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = first[workload]["timed"]["end_to_end"][name]["value"]
            b = second[workload]["timed"]["end_to_end"][name]["value"]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            verdict = "" if worse <= metric["bound"] else "  EXCEEDS BOUND"
            within &= worse <= metric["bound"]
            print(f"{workload:14s} {name:12s} {a:12.5g} {b:12.5g} {worse:+9.1%} "
                  f"{metric['bound']:6.2f}{verdict}")
    return within


def write_baseline(results: Dict[str, dict], seed: int, seconds: float) -> None:
    """The trajectory's first point: every rep, quartile and host fact of a set."""
    any_run = next(iter(results.values()))["timed"]
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / "baseline.json", "w") as handle:
        json.dump({
            "schema": "repro.e2e-baseline", "schema_version": 1,
            "seed": seed, "seconds": seconds,
            "host": {"nproc": os.cpu_count(), **any_run["hygiene"]["versions"]},
            "workloads": results,
        }, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    spec = declared()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names, help="run this workload only")
    parser.add_argument("--seed", type=int, default=0,
                        help="the only source of randomness of the inputs")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: timed run, end-to-end metrics; 1: traced run, per-layer "
                             "metrics (default: both)")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run everything twice, compare the medians with the bounds, "
                             "write results/baseline.json from the first set")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids, one rep per workload (the harness self-test)")
    args = parser.parse_args(argv)
    seconds = 0.0 if args.smoke else args.seconds

    try:
        return dispatch(args, names, seconds, spec)
    except WorkerError as error:
        # no result line: the run is void, not merely incorrect
        print(f"error: {error}", file=sys.stderr)
        return 2


def dispatch(args, names: List[str], seconds: float, spec: dict) -> int:
    if args.check_repeat:
        first = run_set(names, args.seed, seconds, args.smoke)
        second = run_set(names, args.seed, seconds, args.smoke)
        write_baseline(first, args.seed, seconds)
        within = check_repeat(first, second, spec)
        correct = all_correct(first) and all_correct(second)
        print(f"repeat within bounds: {within}; all operations correct: {correct}")
        return 0 if within and correct else 1

    if args.workload and args.trace is not None:
        document = measure(args.workload, args.seed, seconds, args.trace, args.smoke)
        report(document, args.trace)
        print(contract_line(document, args.trace))
        return 0 if document["correct"] else 1

    results = run_set([args.workload] if args.workload else names, args.seed, seconds,
                      args.smoke)
    return 0 if all_correct(results) else 1


if __name__ == "__main__":
    sys.exit(main())
