"""Service throughput benchmark: N serial solves vs N queued jobs (PR 6).

The scenario the job service exists for: four same-grid requests arrive
together (an atlas normalization pass — apply one population-average
velocity to four subject images, plus a four-subject registration burst).
The transport workload runs twice:

* **serial** — four independent solves through the plain synchronous path,
* **queued** — the same four solves submitted as service jobs, where the
  micro-batcher merges compatible transport jobs into shared
  ``solve_state_many`` stacks and the plan pool serves later batches warm.

The registration burst measures the service's default width instead: after
one discarded warm-up (direct ``register()`` calls, kept as the bitwise
reference) the four *distinct* subjects run as jobs on **one** worker thread
and on **two**, and the burst wall, the process CPU and the median
RUNNING -> DONE time of a job are recorded for both.  Most of a solve holds
the GIL, so the second thread roughly doubles every job's latency and buys
little or no throughput (``repro.service.workers.DEFAULT_SERVICE_WORKERS``);
the numbers are recorded, not asserted — four jobs do not resolve the burst
wall.

The deterministic results (asserted, so no wall-clock gate can flake):

* the queued transport path performs **strictly fewer ghost-exchange
  rounds** than four independent solves (batches share one round per step),
* the plan-pool **hit rate of the queued jobs is >= 50 %** (the first
  batch builds the two scatter plans, every later batch reuses them),
* the queued results are **bitwise equal** to the serial ones,
* **the pool holds two entries per distinct transport velocity after a
  burst** — its star and departure scatter plans, what transport jobs
  share — and nothing else: a register job's departure data, gather
  operators and gradient stack belong to its problem and are released when
  its solve ends.

Every measured run starts from a reset pool, so its ``plan_pool`` block is
the pool's own statistics at the end of the burst; the process's peak RSS
(``ru_maxrss``) is recorded beside them.

Wall times are reported for context.  Artifacts go to
``benchmarks/results/service_throughput.{txt,json}``; the ``acceptance``
block in the JSON is what the CI service-smoke job checks.

A second phase (``test_bench_journal_overhead``) prices the durable job
journal: the same submission burst runs against the in-memory queue and
against a journaled service (fsync on commit), and the pin asserts the
journal's end-to-end overhead stays **under 10 %** of the in-memory wall
(``REPRO_BENCH_NONSTRICT=1`` downgrades a wall-clock loss to a skip; the
bitwise-equality and durability checks stay hard).

Run with ``pytest benchmarks/bench_service.py``.
"""

from __future__ import annotations

import os
import resource
import time

import numpy as np
import pytest

from repro.core.optim.gauss_newton import SolverOptions
from repro.core.registration import register
from repro.data.synthetic import synthetic_population, synthetic_registration_problem
from repro.parallel.comm import SimulatedCommunicator
from repro.parallel.pencil import PencilDecomposition
from repro.parallel.transport import DistributedTransportSolver
from repro.runtime.plan_pool import get_plan_pool, reset_plan_pool
from repro.service import RegistrationService, RegistrationJobSpec, TransportJobSpec
from repro.spectral.grid import Grid

#: Grid edge of both scenarios (p = 4 simulated ranks).
N = int(os.environ.get("REPRO_BENCH_SERVICE_N", "16"))

#: Concurrent same-grid jobs per scenario (the acceptance criterion's N).
NUM_JOBS = 4

#: Micro-batch cap of the queued transport run: 4 jobs -> 2 batches, so the
#: second batch demonstrates warm plan reuse (hit rate exactly 1/2).
MAX_BATCH = 2

NUM_TASKS = 4
NUM_TIME_STEPS = 4

#: The only pool entries that outlive a job: the star and the departure
#: scatter plan of each transport velocity.  Anything more is a finished
#: solve's leftovers.
PLANS_PER_VELOCITY = 2


def _pool_stats() -> dict:
    """The pool's statistics since the run's reset, and its hit rate."""
    stats = get_plan_pool().stats
    total = stats.hits + stats.misses
    return {
        "plan_pool": stats.as_dict(),
        "plan_pool_hit_rate": stats.hits / total if total else 0.0,
    }


def _peak_rss_mb() -> float:
    """Peak resident set of this process so far (``ru_maxrss`` is in kB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _transport_workload():
    """One population-average velocity + four subject images."""
    population = synthetic_population(
        N, num_subjects=NUM_JOBS, num_time_steps=NUM_TIME_STEPS
    )
    problem = synthetic_registration_problem(N, num_time_steps=NUM_TIME_STEPS)
    return population.grid, problem.true_velocity, population.subjects


def _serial_transport(grid, velocity, movings):
    deco = PencilDecomposition.from_num_tasks(grid.shape, NUM_TASKS)
    comm = SimulatedCommunicator(deco.num_tasks)
    reset_plan_pool()
    start = time.perf_counter()
    results = [
        DistributedTransportSolver(
            grid, deco, num_time_steps=NUM_TIME_STEPS, comm=comm
        ).solve_state(velocity, moving)
        for moving in movings
    ]
    wall = time.perf_counter() - start
    return {
        "results": results,
        "wall_seconds": wall,
        "ghost_exchange_calls": comm.ledger.summary()["ghost_exchange"]["calls"],
        "ledger": comm.ledger.summary(),
        **_pool_stats(),
    }


def _queued_transport(grid, velocity, movings):
    reset_plan_pool()
    with RegistrationService(num_workers=1, max_batch=MAX_BATCH) as service:
        # a blocker job keeps the single worker busy so all four measured
        # jobs are queued when the claim happens — the deterministic 2+2
        # batching the acceptance numbers assume; a registration touches no
        # pool entry, so the pool's statistics are the measured jobs' own
        blocker = service.submit_registration(
            RegistrationJobSpec(
                template=movings[0],
                reference=movings[1],
                options=SolverOptions(max_newton_iterations=1),
            )
        )
        jobs = [
            service.submit_transport(
                TransportJobSpec(
                    velocity=velocity,
                    moving=moving,
                    num_time_steps=NUM_TIME_STEPS,
                    num_tasks=NUM_TASKS,
                    grid=grid,
                )
            )
            for moving in movings
        ]
        blocker.result(timeout=600)
        start = time.perf_counter()
        results = service.gather(jobs, timeout=600)
        wall = time.perf_counter() - start
    # every job reports its batch's ledger; dividing by the batch size and
    # summing charges each batch exactly once
    ghost_calls = sum(
        job.record.metrics["ghost_exchange_calls"] / job.record.metrics["batch_size"]
        for job in jobs
    )
    return {
        "results": results,
        "wall_seconds": wall,
        "ghost_exchange_calls": int(round(ghost_calls)),
        "batch_sizes": sorted(job.record.batch_size for job in jobs),
        **_pool_stats(),
    }


def _registration_workload():
    """Four *distinct* subjects to one atlas (identical jobs would measure the
    pool's single-flight builds and the submit order, not the lanes), solved
    to the default tolerance (a one-iteration job is mostly set-up)."""
    return synthetic_population(N, num_subjects=NUM_JOBS, num_time_steps=NUM_TIME_STEPS)


def _direct_registration(population):
    """The discarded warm-up; its results are the bitwise reference."""
    reset_plan_pool()
    return [register(subject, population.atlas) for subject in population.subjects]


def _queued_registration(population, num_workers):
    """The four-subject burst on *num_workers* worker threads, pool cold."""
    reset_plan_pool()
    cpu_start = time.process_time()
    start = time.perf_counter()
    with RegistrationService(num_workers=num_workers) as service:
        jobs = [
            service.submit_registration(
                RegistrationJobSpec(template=subject, reference=population.atlas)
            )
            for subject in population.subjects
        ]
        results = service.gather(jobs, timeout=600)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    return {
        "results": results,
        "num_workers": num_workers,
        "wall_seconds": wall,
        "cpu_seconds": cpu,
        "job_seconds_median": float(
            np.median([job.record.finished_at - job.record.started_at for job in jobs])
        ),
        **_pool_stats(),
    }


def test_service_throughput(record_text, record_json):
    grid, velocity, movings = _transport_workload()
    assert isinstance(grid, Grid)

    serial_t = _serial_transport(grid, velocity, movings)
    queued_t = _queued_transport(grid, velocity, movings)
    bitwise_equal = all(
        np.array_equal(expected, got)
        for expected, got in zip(serial_t["results"], queued_t["results"])
    )

    # recorded, not asserted: which width wins is a wall-clock fact, and
    # wall-clock pins flake on shared hosts (benchmarks/e2e's burst16 is the
    # judge: BENCH_20.json)
    population = _registration_workload()
    direct_r = _direct_registration(population)
    lanes_r = [_queued_registration(population, width) for width in (1, 2)]
    register_bitwise = all(
        np.array_equal(expected.velocity, got.velocity)
        for lane in lanes_r
        for expected, got in zip(direct_r, lane["results"])
    )

    # burst -> (its section, the distinct transport velocities it ran)
    bursts = {
        "queued_transport": (queued_t, 1),
        **{f"registration_{lane['num_workers']}_workers": (lane, 0) for lane in lanes_r},
    }
    acceptance = {
        "num_jobs": NUM_JOBS,
        "pool_entries_after_burst": {
            burst: section["plan_pool"]["entries"] for burst, (section, _) in bursts.items()
        },
        "two_scatter_plans_per_velocity_after_burst": all(
            section["plan_pool"]["entries"] == PLANS_PER_VELOCITY * velocities
            for section, velocities in bursts.values()
        ),
        "plan_pool_hit_rate": queued_t["plan_pool_hit_rate"],
        "hit_rate_ge_50_percent": queued_t["plan_pool_hit_rate"] >= 0.5,
        "queued_ghost_exchange_calls": queued_t["ghost_exchange_calls"],
        "serial_ghost_exchange_calls": serial_t["ghost_exchange_calls"],
        "strictly_fewer_ghost_rounds": (
            queued_t["ghost_exchange_calls"] < serial_t["ghost_exchange_calls"]
        ),
        "bitwise_equal_to_serial": bitwise_equal,
    }

    def _public(section):
        return {key: value for key, value in section.items() if key != "results"}

    payload = {
        "grid": f"{N}^3",
        "num_jobs": NUM_JOBS,
        "num_tasks": NUM_TASKS,
        "num_time_steps": NUM_TIME_STEPS,
        "max_batch": MAX_BATCH,
        "ru_maxrss_mb": _peak_rss_mb(),
        "acceptance": acceptance,
        "transport": {
            "serial": _public(serial_t),
            "queued": _public(queued_t),
            "bitwise_equal": bitwise_equal,
        },
        "registration": {
            "one_worker": _public(lanes_r[0]),
            "two_workers": _public(lanes_r[1]),
            "bitwise_equal": register_bitwise,
            "relative_residuals": [result.relative_residual for result in direct_r],
        },
    }
    record_json("service_throughput", payload)

    lines = [
        f"service throughput: {NUM_JOBS} same-grid jobs at {N}^3, "
        f"{NUM_TASKS} simulated ranks, nt={NUM_TIME_STEPS}, max_batch={MAX_BATCH}",
        "",
        "transport (atlas normalization pass: one velocity, four subjects)",
        f"  serial : {serial_t['wall_seconds']:8.3f} s, "
        f"{serial_t['ghost_exchange_calls']:3d} ghost-exchange calls",
        f"  queued : {queued_t['wall_seconds']:8.3f} s, "
        f"{queued_t['ghost_exchange_calls']:3d} ghost-exchange calls, "
        f"batches {queued_t['batch_sizes']}, "
        f"pool hit rate {queued_t['plan_pool_hit_rate']:.0%}",
        f"  bitwise equal to serial: {bitwise_equal}",
        "",
        "registration (four distinct subjects to the default tolerance, "
        "after one discarded warm-up; recorded, not asserted)",
        *(
            f"  {lane['num_workers']} worker(s): burst wall {lane['wall_seconds']:6.3f} s, "
            f"process CPU {lane['cpu_seconds']:6.3f} s, "
            f"median job {lane['job_seconds_median']:6.3f} s, "
            f"pool hit rate {lane['plan_pool_hit_rate']:.0%}"
            for lane in lanes_r
        ),
        f"  velocities bitwise equal to direct register() calls: {register_bitwise}",
        "",
        "pool entries after each burst (two scatter plans per transport velocity):",
        *(
            f"  {burst}: {section['plan_pool']['entries']} entries, "
            f"{section['plan_pool']['current_bytes']} bytes"
            for burst, (section, _) in bursts.items()
        ),
        f"peak RSS of the bench process: {payload['ru_maxrss_mb']:.1f} MB",
    ]
    record_text("service_throughput", "\n".join(lines))

    # the acceptance criteria are structural, not wall-clock, so assert them
    assert acceptance["hit_rate_ge_50_percent"], acceptance
    assert acceptance["strictly_fewer_ghost_rounds"], acceptance
    assert acceptance["bitwise_equal_to_serial"], acceptance
    assert acceptance["two_scatter_plans_per_velocity_after_burst"], acceptance
    assert register_bitwise, "a queued registration differs from the direct call"


# --------------------------------------------------------------------------- #
# journal-overhead phase (PR 9): pricing durability on the submit path
# --------------------------------------------------------------------------- #

#: Time steps of the journal-overhead phase.  The journal charges a fixed
#: per-job price (one fsync'd append per submit and per completion), so the
#: workload must be long enough to represent a real job, where solve time
#: dominates — nt=4 at 16^3 finishes in tens of milliseconds and would make
#: any constant cost look enormous.
JOURNAL_PHASE_STEPS = int(os.environ.get("REPRO_BENCH_JOURNAL_STEPS", "32"))


def _burst(service, grid, velocity, movings):
    """Submit the four-job burst, timing each submit call; gather results."""
    submit_seconds = []
    jobs = []
    for moving in movings:
        spec = TransportJobSpec(
            velocity=velocity,
            moving=moving,
            num_time_steps=JOURNAL_PHASE_STEPS,
            num_tasks=NUM_TASKS,
            grid=grid,
        )
        start = time.perf_counter()
        jobs.append(service.submit_transport(spec))
        submit_seconds.append(time.perf_counter() - start)
    results = service.gather(jobs, timeout=600)
    return submit_seconds, results


def _journal_run(grid, velocity, movings, journal_dir):
    reset_plan_pool()
    start = time.perf_counter()
    with RegistrationService(
        num_workers=1, max_batch=MAX_BATCH, journal_dir=journal_dir
    ) as service:
        submit_seconds, results = _burst(service, grid, velocity, movings)
        journal_stats = service.journal.stats() if service.journal else None
    wall = time.perf_counter() - start
    return {
        "submit_seconds_total": sum(submit_seconds),
        "submit_seconds_max": max(submit_seconds),
        "wall_seconds": wall,
        "results": results,
        "journal": journal_stats,
    }


def test_bench_journal_overhead(record_text, record_json, tmp_path):
    """The fsync'd journal must cost < 10 % of the in-memory burst wall."""
    grid, velocity, movings = _transport_workload()

    # warm the plan pool once so neither measured run pays the cold build
    _journal_run(grid, velocity, movings, journal_dir=None)

    memory = _journal_run(grid, velocity, movings, journal_dir=None)
    journaled = _journal_run(
        grid, velocity, movings, journal_dir=tmp_path / "journal"
    )

    bitwise_equal = all(
        np.array_equal(expected, got)
        for expected, got in zip(memory["results"], journaled["results"])
    )
    submit_overhead = (
        journaled["submit_seconds_total"] - memory["submit_seconds_total"]
    )
    overhead_ratio = submit_overhead / memory["wall_seconds"]

    def _public(section):
        return {key: value for key, value in section.items() if key != "results"}

    payload = {
        "grid": f"{N}^3",
        "num_jobs": NUM_JOBS,
        "num_time_steps": JOURNAL_PHASE_STEPS,
        "fsync_on_commit": True,
        "in_memory": _public(memory),
        "journaled": _public(journaled),
        "submit_overhead_seconds": submit_overhead,
        "submit_overhead_ratio_of_wall": overhead_ratio,
        "bitwise_equal": bitwise_equal,
        "acceptance": {
            "overhead_ratio_lt_10_percent": overhead_ratio < 0.10,
            "bitwise_equal": bitwise_equal,
        },
    }
    record_json("service_journal_overhead", payload)

    per_submit_us = journaled["submit_seconds_total"] / NUM_JOBS * 1e6
    record_text(
        "service_journal_overhead",
        "\n".join(
            [
                f"journal overhead: {NUM_JOBS} transport jobs at {N}^3, "
                f"nt={JOURNAL_PHASE_STEPS}, fsync on commit",
                "",
                f"  in-memory : submits {memory['submit_seconds_total'] * 1e3:8.3f} ms, "
                f"burst wall {memory['wall_seconds']:7.3f} s",
                f"  journaled : submits {journaled['submit_seconds_total'] * 1e3:8.3f} ms "
                f"({per_submit_us:,.0f} us/job), "
                f"burst wall {journaled['wall_seconds']:7.3f} s, "
                f"{journaled['journal']['bytes']:,} journal bytes",
                f"  submit-path overhead: {submit_overhead * 1e3:8.3f} ms "
                f"= {overhead_ratio:.1%} of the in-memory wall (pin: < 10%)",
                f"  results bitwise equal: {bitwise_equal}",
            ]
        ),
    )

    # durability is structural: assert it unconditionally
    assert bitwise_equal, "journaled submissions changed the results"
    assert journaled["journal"]["bytes"] > 0, "nothing was journaled"

    # the wall-clock pin; REPRO_BENCH_NONSTRICT=1 downgrades to a skip on
    # noisy shared runners
    if overhead_ratio >= 0.10:
        message = (
            f"journal submit overhead {overhead_ratio:.1%} of the in-memory "
            f"wall exceeds the 10% pin: {payload}"
        )
        if os.environ.get("REPRO_BENCH_NONSTRICT"):
            pytest.skip(message)
        raise AssertionError(message)
