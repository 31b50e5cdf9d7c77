"""The four workloads: inputs from the seed, one rep, its checks, its counters.

Every workload goes through the public facade only (``repro.register``,
``RegistrationSolver.build_problem`` + ``BetaContinuation.run``,
``RegistrationService``) and hands the program arrays, never the seed.

The seed varies the inputs without varying the *work*: the driver compares
runs of different seeds, so a seed that changed the Newton/Krylov counts
would show up as timing spread.  Inputs are therefore jittered by a small
amplitude (within which the counts were verified constant) and rolled by a
whole number of voxels per axis (a symmetry of the periodic discretization),
and the burst draws its subject amplitudes from fixed strata.
"""

from __future__ import annotations

import contextlib
import gc
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro import RegistrationService, RegistrationSolver, SolverOptions, register
from repro.core.gradients import gradient_cache_decision_log
from repro.core.metrics import relative_residual
from repro.core.optim.continuation import BetaContinuation
from repro.data.brain import brain_registration_pair
from repro.data.synthetic import (
    sinusoidal_template,
    synthetic_registration_problem,
    synthetic_velocity,
)
from repro.observability.metrics import get_metrics_registry
from repro.parallel.pencil import PencilDecomposition
from repro.parallel.transport import DistributedTransportSolver
from repro.runtime.layout import layout_decision_log
from repro.runtime.plan_pool import get_plan_pool, reset_plan_pool
from repro.service import JobStatus, RegistrationJobSpec, TransportJobSpec
from repro.spectral.grid import Grid
from repro.transport.solvers import TransportSolver

#: journal/artifact directories live here (inside the checkout, ignored)
WORK_ROOT = Path(__file__).resolve().parent / ".work"

#: counters whose per-rep value must repeat exactly within a run
EXACT_SOLVER = (
    "core.newton_iterations", "core.hessian_matvecs", "core.pcg_iterations",
    "core.line_search_trials", "core.continuation_levels",
)
EXACT_KERNEL = (
    "spectral.fft_count", "transport.gather_sweeps", "runtime.pool_hits",
    "runtime.pool_misses", "parallel.ghost_rounds", "parallel.messages", "parallel.bytes",
)


@dataclass
class Rep:
    """Outcome of one rep: its wall, its operations, its counters."""

    wall_s: float
    cpu_s: float
    attempted: int
    failures: List[str]
    counts: Dict[str, float]
    values: Dict[str, float]
    #: wall of each registration inside the rep (the rep itself for a solve)
    solve_walls: List[float] = field(default_factory=list)
    #: machine slowdown around the rep (set by the worker, see calibration.py)
    slowdown: float = 1.0


class Stopwatch:
    """Wall and process-CPU seconds of a ``with`` block."""

    def __enter__(self) -> "Stopwatch":
        self._wall, self._cpu = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc_info) -> None:
        self.wall_s = time.perf_counter() - self._wall
        self.cpu_s = time.process_time() - self._cpu


def program_counters() -> Dict[str, float]:
    """The program's own process-wide work counters (metrics registry)."""
    collected = get_metrics_registry().collect()

    def total(name: str, label: str = "") -> float:
        series = collected.get(name, {})
        return float(sum(v for key, v in series.items() if label in key))

    return {
        "spectral.fft_count": total("fft.transforms"),
        "transport.gather_sweeps": total("interp.sweeps"),
        "transport.gather_points": total("interp.points"),
        "parallel.ghost_rounds": total("comm.calls", "ghost_exchange"),
        "parallel.messages": total("comm.messages"),
        "parallel.bytes": total("comm.bytes"),
    }


def reset_program_state() -> None:
    """Cold start for one rep: pool, decision logs, garbage."""
    reset_plan_pool()
    layout_decision_log().reset()
    gradient_cache_decision_log().reset()
    gc.collect()


def counter_delta(before: Dict[str, float]) -> Dict[str, float]:
    after = program_counters()
    counts = {key: after[key] - before[key] for key in after}
    pool = get_plan_pool().stats  # zeroed by reset_program_state
    counts["runtime.pool_hits"] = pool.hits
    counts["runtime.pool_misses"] = pool.misses
    counts["runtime.pool_bytes"] = pool.peak_bytes
    return counts


def optimization_counts(results) -> Dict[str, float]:
    """Solver counts summed over ``OptimizationResult`` objects."""
    results = list(results)
    return {
        "core.newton_iterations": sum(r.num_iterations for r in results),
        "core.hessian_matvecs": sum(r.total_hessian_matvecs for r in results),
        "core.pcg_iterations": sum(r.total_pcg_iterations for r in results),
        "core.line_search_trials": sum(
            rec.line_search_evaluations for r in results for rec in r.iterations
        ),
        "core.continuation_levels": 0,
    }


def one_failure(problems: List[str]) -> List[str]:
    """At most one failure per operation, so that failed <= attempted."""
    return ["; ".join(problems)] if problems else []


def rolled(rng: np.random.Generator, *images: np.ndarray) -> List[np.ndarray]:
    """*images* shifted together by a seed-drawn whole number of voxels per axis."""
    shifts = [int(rng.integers(0, n)) for n in images[0].shape]
    return [np.ascontiguousarray(np.roll(image, shifts, axis=(0, 1, 2))) for image in images]


class Workload:
    """Base: set-up once from the seed, then any number of reps."""

    name = ""
    #: points of the grid the kernels sweep (for computed rates)
    grid_points = 0
    #: counters that must repeat exactly across the reps of a run
    exact = EXACT_SOLVER + EXACT_KERNEL
    #: context manager around the timed region; the traced reps put the
    #: recorder's root span here
    span = staticmethod(contextlib.nullcontext)

    def setup(self, seed: int, smoke: bool) -> None:
        raise NotImplementedError

    def rep(self) -> Rep:
        raise NotImplementedError


class SyntheticSolve(Workload):
    """One cold ``repro.register()`` on the paper's synthetic problem."""

    def __init__(self, name: str, size: int, incompressible: bool,
                 residual_max: float) -> None:
        self.name = name
        self.size, self.incompressible, self.residual_max = size, incompressible, residual_max

    def setup(self, seed: int, smoke: bool) -> None:
        rng = np.random.default_rng(seed)
        if smoke:
            self.size, self.residual_max = 12, 0.8
        problem = synthetic_registration_problem(
            self.size,
            amplitude=1.0 + rng.uniform(-0.02, 0.02),
            incompressible=self.incompressible,
        )
        self.grid_points = problem.grid.num_points
        self.template, self.reference = rolled(rng, problem.template, problem.reference)
        tiny = synthetic_registration_problem(8, incompressible=self.incompressible)
        register(tiny.template, tiny.reference, incompressible=self.incompressible,
                 options=SolverOptions(max_newton_iterations=1))

    def rep(self) -> Rep:
        reset_program_state()
        before = program_counters()
        with Stopwatch() as watch, self.span():
            result = register(
                self.template, self.reference, beta=1e-2, regularization="h1",
                incompressible=self.incompressible, num_time_steps=4, gauss_newton=True,
                options=SolverOptions(gradient_tolerance=1e-2),
            )
        counts = counter_delta(before)
        counts.update(optimization_counts([result.optimization]))
        det = result.det_grad_stats
        problems = []
        if result.optimization.termination_reason != "gradient_tolerance":
            problems.append(f"terminated by {result.optimization.termination_reason}")
        if det["min"] <= 0.0:
            problems.append(f"min det grad y = {det['min']:.4f} <= 0")
        if not result.relative_residual <= self.residual_max:
            problems.append(
                f"relative residual {result.relative_residual:.4f} > {self.residual_max}")
        if self.incompressible and max(abs(det["min"] - 1), abs(det["max"] - 1)) > 0.05:
            problems.append(f"det grad y in [{det['min']:.4f}, {det['max']:.4f}], not 1 +- 0.05")
        values = {"core.relative_residual": result.relative_residual,
                  "core.det_grad_min": det["min"]}
        return Rep(watch.wall_s, watch.cpu_s, 1, one_failure(problems), counts, values,
                   [watch.wall_s])


class BrainContinuation(Workload):
    """``build_problem`` + ``BetaContinuation.run`` on the brain phantom."""

    name = "brain16_cont"
    base_resolution = 16

    def setup(self, seed: int, smoke: bool) -> None:
        rng = np.random.default_rng(seed)
        if smoke:
            self.base_resolution = 8
        # the anatomy is fixed (its seed changes the mat-vec count by 2x);
        # the benchmark seed only rolls the pair on the periodic grid
        pair = brain_registration_pair(base_resolution=self.base_resolution, seed=42)
        self.grid_points = pair.grid.num_points
        self.template, self.reference = rolled(rng, pair.template, pair.reference)
        tiny = brain_registration_pair(base_resolution=8, seed=42)
        self._continuation(tiny.template, tiny.reference, target_beta=1e-1,
                           options=SolverOptions(max_newton_iterations=1))

    @staticmethod
    def _continuation(template, reference, target_beta=1e-3, options=None):
        problem = RegistrationSolver(beta=1e-1, num_time_steps=4).build_problem(
            template, reference)
        continuation = BetaContinuation(
            problem, options or SolverOptions(gradient_tolerance=1e-2),
            initial_beta=1e-1, target_beta=target_beta, reduction=0.1, det_grad_bound=0.1,
        )
        return problem, continuation.run()

    def rep(self) -> Rep:
        reset_program_state()
        before = program_counters()
        with Stopwatch() as watch, self.span():
            problem, result = self._continuation(self.template, self.reference)
        counts = counter_delta(before)
        counts.update(optimization_counts(step.result for step in result.steps))
        counts["core.continuation_levels"] = result.num_levels
        problems = []
        for step in result.steps:
            if step.result.termination_reason != "gradient_tolerance":
                problems.append(
                    f"beta={step.beta:g} terminated by {step.result.termination_reason}")
        if not np.isclose(result.final_beta, 1e-3, rtol=1e-9):
            problems.append(f"final beta {result.final_beta:g} != 1e-3")
        det_min = result.steps[-1].det_grad_min
        if det_min <= 0.0:
            problems.append(f"min det grad y = {det_min:.4f} <= 0")
        deformed = result.steps[-1].result.final_iterate.deformed_template
        residual = relative_residual(problem.reference, problem.template, deformed,
                                     problem.grid)
        if not residual < 1.0:
            problems.append(f"relative residual {residual:.4f} >= 1")
        values = {"core.relative_residual": residual, "core.det_grad_min": det_min}
        return Rep(watch.wall_s, watch.cpu_s, 1, one_failure(problems), counts, values,
                   [watch.wall_s])


class ServiceBurst(Workload):
    """A closed-loop burst of register + transport jobs through the service."""

    name = "burst16"
    size = 16
    subjects = 12
    # which jobs share a micro-batch, and which thread builds a shared plan,
    # depend on claim timing: only the per-registration solver counts repeat
    exact = EXACT_SOLVER

    def setup(self, seed: int, smoke: bool) -> None:
        rng = np.random.default_rng(seed)
        if smoke:
            self.size, self.subjects = 12, 3
        grid = Grid((self.size,) * 3)
        self.grid_points = grid.num_points
        self.atlas = sinusoidal_template(grid)
        # one amplitude per fixed stratum of [0.75, 1.25]: the seed moves each
        # subject inside its stratum and shuffles the submit order, the total
        # work of the burst stays put
        edges = np.linspace(0.75, 1.25, self.subjects + 1)
        centres = 0.5 * (edges[:-1] + edges[1:])
        amplitudes = centres * (1.0 + rng.uniform(-0.005, 0.005, self.subjects))
        transport = TransportSolver(grid, num_time_steps=4)
        self.moving = [
            transport.solve_state(
                transport.plan(synthetic_velocity(grid, amplitude)), self.atlas)[-1]
            for amplitude in rng.permutation(amplitudes)
        ]
        self.velocity = synthetic_velocity(grid, 1.0 + rng.uniform(-0.02, 0.02))
        reference_solver = DistributedTransportSolver(
            grid, PencilDecomposition.from_num_tasks(grid.shape, 4), num_time_steps=4)
        self.transported = [
            reference_solver.solve_state(self.velocity, moving) for moving in self.moving
        ]
        WORK_ROOT.mkdir(exist_ok=True)
        # warm-up burst: service start, journal, artifacts, both job kinds
        tiny = Grid((8,) * 3)
        self._burst(
            [sinusoidal_template(tiny)] * 2, sinusoidal_template(tiny),
            synthetic_velocity(tiny, 0.5), SolverOptions(max_newton_iterations=1),
        )

    def _burst(self, moving, atlas, velocity, options=None):
        workdir = Path(tempfile.mkdtemp(dir=WORK_ROOT))
        service = RegistrationService(
            num_workers=None, max_batch=4,
            artifacts_dir=workdir / "artifacts", journal_dir=workdir / "journal",
        )
        try:
            jobs = []
            with Stopwatch() as watch, self.span():
                for image in moving:
                    jobs.append(service.submit_registration(
                        RegistrationJobSpec(template=image, reference=atlas, options=options)))
                    jobs.append(service.submit_transport(
                        TransportJobSpec(velocity=velocity, moving=image, num_tasks=4)))
                results = service.gather(jobs, raise_on_error=False)
            stats = service.service_stats()
        finally:
            service.shutdown()
            shutil.rmtree(workdir, ignore_errors=True)
        return watch, jobs, results, stats

    def rep(self) -> Rep:
        reset_program_state()
        before = program_counters()
        watch, jobs, results, stats = self._burst(self.moving, self.atlas, self.velocity)
        counts = counter_delta(before)
        failures, solve_walls, residuals, det_mins, optimizations = [], [], [], [], []
        for index, (job, result) in enumerate(zip(jobs, results)):
            record = job.record
            label = f"{record.kind} job of subject {index // 2}"
            if record.status is not JobStatus.DONE:
                failures.append(f"{label}: {record.status.value} ({record.error})")
            elif record.kind == "transport":
                if not np.array_equal(result, self.transported[index // 2]):
                    failures.append(f"{label}: differs from the unbatched solve_state")
            else:
                optimizations.append(result.optimization)
                solve_walls.append(record.finished_at - record.started_at)
                residuals.append(result.relative_residual)
                det_mins.append(result.det_grad_stats["min"])
                if result.optimization.termination_reason != "gradient_tolerance":
                    failures.append(
                        f"{label}: terminated by {result.optimization.termination_reason}")
                elif det_mins[-1] <= 0.0:
                    failures.append(f"{label}: min det grad y = {det_mins[-1]:.4f} <= 0")
        counts.update(optimization_counts(optimizations))
        records = [job.record for job in jobs]
        started = [r for r in records if r.started_at is not None]
        batch_sizes = [r.batch_size for r in records if r.kind == "transport"]
        batches = round(sum(1.0 / size for size in batch_sizes))
        values = {
            "core.relative_residual": max(residuals, default=0.0),
            "core.det_grad_min": min(det_mins, default=0.0),
            "service.queue_wait_s_p50": float(np.median(
                [r.started_at - r.submitted_at for r in started])) if started else 0.0,
            "service.register_job_s_p50": float(np.median(solve_walls)) if solve_walls else 0.0,
            "service.transport_batches": batches,
            "service.mean_batch_size": len(batch_sizes) / batches if batches else 0.0,
            "service.journal_bytes": stats["journal"]["bytes"],
            "service.failed_jobs": sum(r.status is not JobStatus.DONE for r in records),
            "service.workers": stats["num_workers"],
        }
        return Rep(watch.wall_s, watch.cpu_s, len(jobs), failures, counts, values, solve_walls)


def all_workloads() -> Dict[str, Workload]:
    """Fresh instances by name; BENCHMARK.json records why each one exists."""
    workloads = [
        SyntheticSolve("solve32", size=32, incompressible=False, residual_max=0.26),
        SyntheticSolve("incomp32", size=32, incompressible=True, residual_max=0.37),
        BrainContinuation(),
        ServiceBurst(),
    ]
    return {workload.name: workload for workload in workloads}
