#!/usr/bin/env python
"""Where a registration solve's memory goes: traced peaks per phase, and RSS.

One cold ``repro.register()`` of the synthetic problem (the ``solve32``
settings of ``benchmarks/e2e``: ``beta = 1e-2``, H1, ``nt = 4``,
Gauss-Newton, ``gtol = 1e-2``) runs under :mod:`tracemalloc` (NumPy reports
its array buffers to it), with four seams wrapped as phases:

=========  ==================================================================
linearize  ``RegistrationProblem.linearize``: adjoint, gradient stack, body force
trial      ``RegistrationProblem.trial_objective``: one line-search trial
plan       ``TransportSolver.plan``: flow expansion and both gather plans
mat-vec    ``RegistrationProblem.hessian_matvec``: one Gauss-Newton mat-vec
=========  ==================================================================

A phase's peak is the most memory traced at any moment inside it — what the
solve held from before plus what the phase allocates — so the largest one is
where the solve peaks (``plan`` runs inside ``trial`` and inside the first
``linearize``).  Then a fresh interpreter runs the same solve untraced and
reports its ``ru_maxrss`` (imports, problem set-up and solve), the number the
end-to-end harness's ``peak_rss_mb`` reads.

What outlives a solve is the finished result: the bench reports the array
bytes one ``register()`` result still reaches (:func:`retained_array_bytes`,
per grid point) and the bytes the results of a 12-job 16^3 service burst
hold together — what a service keeps per finished job.

Usage::

    python benchmarks/bench_memory.py                        # traced 32^3, 64^3; RSS 64^3
    python benchmarks/bench_memory.py --sizes 16 --rss 16    # smoke size
    python benchmarks/bench_memory.py --rss 64 128           # adds the RSS of 128^3 (~2 GB)

Writes ``benchmarks/results/memory_phases.{txt,json}`` (the JSON in the
``repro.bench-result`` envelope).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import subprocess
import sys
import tracemalloc
import types
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List

import numpy as np

import repro
from repro import RegistrationService, register
from repro.core.optim.gauss_newton import SolverOptions
from repro.core.problem import RegistrationProblem
from repro.data.synthetic import synthetic_population, synthetic_registration_problem
from repro.service import RegistrationJobSpec
from repro.transport.solvers import TransportSolver

RESULTS_DIR = Path(__file__).parent / "results"
MIB = 2.0**20

#: (owner, method, phase) of every wrapped seam
PHASES = [
    (RegistrationProblem, "linearize", "linearize"),
    (RegistrationProblem, "trial_objective", "trial"),
    (TransportSolver, "plan", "plan"),
    (RegistrationProblem, "hessian_matvec", "mat-vec"),
]

#: :func:`solve`, in a fresh interpreter: prints its ``ru_maxrss`` in MB
RSS_PROGRAM = """
import resource, sys
from bench_memory import solve
from repro.data.synthetic import synthetic_registration_problem
solve(synthetic_registration_problem(int(sys.argv[1])))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
"""


def solve(problem):
    """The measured solve: ``solve32``'s settings of ``benchmarks/e2e``."""
    return register(
        problem.template, problem.reference, beta=1e-2, regularization="h1",
        num_time_steps=4, gauss_newton=True, options=SolverOptions(gradient_tolerance=1e-2),
    )


def retained_array_bytes(root) -> int:
    """Bytes of the distinct array buffers reachable from *root*.

    Walks instance attributes and containers (not modules, classes or
    functions) and counts each reachable array's base buffer once, so views
    of one history and arrays two objects share are not counted twice.
    """
    seen, buffers, stack = set(), {}, [root]
    skipped = (type, types.ModuleType, types.FunctionType, types.MethodType)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skipped):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            buffers[id(obj)] = obj.nbytes
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return sum(buffers.values())


def burst_results(size: int = 16, jobs: int = 12) -> dict:
    """Array bytes the register results of a *jobs*-job *size*^3 burst hold."""
    population = synthetic_population(size, num_subjects=jobs)
    options = SolverOptions(gradient_tolerance=1e-2)
    with RegistrationService() as service:
        results = service.gather([
            service.submit_registration(
                RegistrationJobSpec(template=subject, reference=population.atlas, options=options))
            for subject in population.subjects
        ])
    held = retained_array_bytes(results)
    return {
        "size": size,
        "jobs": jobs,
        "held_bytes": held,
        "bytes_per_point_per_result": held / (jobs * size**3),
    }


class PhasePeaks:
    """Traced peak of every phase: the peak since the last fold goes to every open one."""

    def __init__(self) -> None:
        self.open: List[str] = []
        self.peaks: Dict[str, int] = {}
        self.calls: Counter = Counter()
        self.solve_peak = 0

    def fold(self) -> None:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        self.solve_peak = max(self.solve_peak, peak)
        for name in self.open:
            self.peaks[name] = max(self.peaks.get(name, 0), peak)

    def wrapped(self, original, name: str):
        @functools.wraps(original)
        def phase(*args, **kwargs):
            self.fold()
            self.open.append(name)
            self.calls[name] += 1
            try:
                return original(*args, **kwargs)
            finally:
                self.fold()
                self.open.pop()

        return phase


def traced_phases(size: int) -> dict:
    """Traced peaks of one solve at *size*^3, per phase and overall."""
    problem = synthetic_registration_problem(size)  # set-up is not the solve's
    peaks = PhasePeaks()
    originals = [(owner, method, getattr(owner, method)) for owner, method, _ in PHASES]
    for (owner, method, original), (_, _, name) in zip(originals, PHASES):
        setattr(owner, method, peaks.wrapped(original, name))
    tracemalloc.start()
    try:
        result = solve(problem)
        peaks.fold()
    finally:
        tracemalloc.stop()
        for owner, method, original in originals:
            setattr(owner, method, original)
    return {
        "size": size,
        "solve_peak_mib": peaks.solve_peak / MIB,
        "phases": [
            {"phase": name, "calls": peaks.calls[name], "peak_mib": peaks.peaks.get(name, 0) / MIB}
            for _, _, name in PHASES
        ],
        "newton_iterations": result.num_newton_iterations,
        "hessian_matvecs": result.num_hessian_matvecs,
        "result_bytes_per_point": retained_array_bytes(result) / size**3,
    }


def fresh_rss_mb(size: int) -> float:
    """``ru_maxrss`` (MB) of a fresh interpreter that sets up and solves *size*^3."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    here = str(Path(__file__).resolve().parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, here, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", RSS_PROGRAM, str(size)],
        env=env, check=True, capture_output=True, text=True,
    )
    return float(out.stdout.split()[-1])


def table(traced: List[dict], rss: List[dict], burst: dict) -> str:
    lines = [
        "Traced peak of one register() per phase (MiB; tracemalloc, NumPy buffers included)",
        f"{'grid':>6} {'phase':>10} {'calls':>6} {'peak MiB':>10}",
    ]
    for run in traced:
        grid = f"{run['size']}^3"
        for row in run["phases"]:
            lines.append(f"{grid:>6} {row['phase']:>10} {row['calls']:>6} {row['peak_mib']:>10.1f}")
        lines.append(f"{grid:>6} {'solve':>10} {1:>6} {run['solve_peak_mib']:>10.1f}")
        lines.append(
            f"{'':>6} ({run['newton_iterations']} Newton iterations, "
            f"{run['hessian_matvecs']} mat-vecs)"
        )
    lines.append("")
    lines.append("Fresh-process ru_maxrss (MB): imports, problem set-up and one solve")
    for row in rss:
        lines.append(f"{row['size']:>5}^3 {row['ru_maxrss_mb']:>10.1f}")
    lines.append("")
    lines.append("Finished result: array bytes it still reaches (B/point)")
    for run in traced:
        lines.append(f"{run['size']:>5}^3 {run['result_bytes_per_point']:>10.1f}")
    lines.append(
        f"{burst['jobs']}-job {burst['size']}^3 service burst: its results hold "
        f"{burst['held_bytes'] / MIB:.2f} MiB "
        f"({burst['bytes_per_point_per_result']:.1f} B/point per result)"
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[32, 64],
                        help="grids of the traced solves (default: 32 64)")
    parser.add_argument("--rss", type=int, nargs="*", default=[64],
                        help="grids of the fresh-process RSS solves (default: 64; "
                        "128 takes about 2 GB and minutes)")
    args = parser.parse_args(argv)

    traced = [traced_phases(size) for size in args.sizes]
    rss = [{"size": size, "ru_maxrss_mb": fresh_rss_mb(size)} for size in args.rss]
    burst = burst_results()
    text = table(traced, rss, burst)
    print(text)

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "memory_phases.txt").write_text(text + "\n")
    document = {
        "schema": "repro.bench-result",
        "schema_version": 1,
        "bench": "memory_phases",
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "solve_peak_mib": {f"{run['size']}^3": run["solve_peak_mib"] for run in traced},
        "ru_maxrss_mb": {f"{row['size']}^3": row["ru_maxrss_mb"] for row in rss},
        "result_bytes_per_point": {
            f"{run['size']}^3": run["result_bytes_per_point"] for run in traced
        },
        "burst_results": burst,
        "traced": traced,
    }
    (RESULTS_DIR / "memory_phases.json").write_text(json.dumps(document, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
