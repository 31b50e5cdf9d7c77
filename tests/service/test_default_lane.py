"""The service's default width — one compute lane — and what it buys.

A solve's kernels hold the GIL, so ``RegistrationService()`` starts one worker
thread (``repro.config.DEFAULT_SERVICE_WORKERS``); ``num_workers=`` beats
``REPRO_SERVICE_WORKERS`` beats that default.  On one lane two things the
artifacts report become deterministic: the rest of a burst is queued while the
first job runs, so the micro-batcher claims *full* batches, and the first
transport batch of a velocity is the one whose own ledger shows the cold
plan.  The two-worker race / recovery suites next door are why
``num_workers`` stays.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.optim.gauss_newton import SolverOptions
from repro.data.synthetic import synthetic_registration_problem
from repro.parallel.comm import SimulatedCommunicator
from repro.parallel.pencil import PencilDecomposition
from repro.parallel.transport import DistributedTransportSolver
from repro.config import SERVICE_WORKERS_ENV_VAR, env_service_workers
from repro.runtime.plan_pool import get_plan_pool
from repro.service import RegistrationJobSpec, RegistrationService, TransportJobSpec

from tests.fixtures import make_grid, smooth_scalar_field, smooth_velocity_field

NUM_TASKS = 4
MAX_BATCH = 4


@pytest.fixture(autouse=True)
def no_worker_env(monkeypatch):
    monkeypatch.delenv(SERVICE_WORKERS_ENV_VAR, raising=False)


class TestDefaultWidth:
    def test_a_default_service_runs_one_worker(self):
        with RegistrationService() as service:
            assert service.num_workers == 1
            assert service.service_stats()["num_workers"] == 1
            assert len(service._threads) == 1

    def test_argument_and_environment_still_start_two(self, monkeypatch):
        with RegistrationService(num_workers=2) as service:
            assert len(service._threads) == service.service_stats()["num_workers"] == 2
        monkeypatch.setenv(SERVICE_WORKERS_ENV_VAR, "2")
        with RegistrationService() as service:
            assert len(service._threads) == service.service_stats()["num_workers"] == 2
        with RegistrationService(num_workers=1) as service:  # explicit beats the variable
            assert service.num_workers == 1

    def test_the_retired_shared_variable_is_not_read(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        with RegistrationService() as service:
            assert service.num_workers == 1
        monkeypatch.setenv("REPRO_WORKERS", "three")  # not even validated
        with RegistrationService() as service:
            assert service.num_workers == 1

    def test_counts_are_clamped_to_one(self, monkeypatch):
        monkeypatch.setenv(SERVICE_WORKERS_ENV_VAR, "0")
        assert env_service_workers() == 1
        with RegistrationService(num_workers=-3) as service:
            assert service.num_workers == 1

    @pytest.mark.parametrize("bad", ["two", "3.5"])
    def test_malformed_variable_is_a_clean_value_error(self, monkeypatch, bad):
        monkeypatch.setenv(SERVICE_WORKERS_ENV_VAR, bad)
        with pytest.raises(ValueError, match=SERVICE_WORKERS_ENV_VAR):
            env_service_workers()
        with pytest.raises(ValueError, match=SERVICE_WORKERS_ENV_VAR):
            RegistrationService()


def _mixed_burst(service):
    """One register job, eight compatible transport jobs, one more register job.

    The leading solve keeps the lane busy for tens of milliseconds while the
    other nine submits (microseconds each) land, so every later claim sees
    the whole queue.
    """
    problem = synthetic_registration_problem(8)
    options = SolverOptions(max_newton_iterations=1, max_krylov_iterations=3)
    grid = make_grid(8)
    velocity = smooth_velocity_field(grid, seed=13)
    movings = [smooth_scalar_field(grid, seed=30 + index) for index in range(8)]

    def register_spec():
        return RegistrationJobSpec(
            template=problem.template, reference=problem.reference, options=options
        )

    registers = [service.submit_registration(register_spec())]
    transports = [
        service.submit_transport(
            TransportJobSpec(velocity=velocity, moving=moving, num_tasks=NUM_TASKS, grid=grid)
        )
        for moving in movings
    ]
    registers.append(service.submit_registration(register_spec()))
    service.gather(registers + transports, timeout=120)
    return SimpleNamespace(
        grid=grid, velocity=velocity, movings=movings, registers=registers,
        transports=transports,
    )


def test_one_lane_claims_full_micro_batches():
    with RegistrationService(max_batch=MAX_BATCH) as service:
        burst = _mixed_burst(service)
        stats = service.service_stats()

    assert [job.record.batch_size for job in burst.transports] == [MAX_BATCH] * 8
    assert stats["batches_executed"] == 2 + 2  # two register jobs, two transport batches
    assert stats["batched_jobs"] == 8

    # the ledger shows the ghost rounds of two batched solves: a batch pays
    # what ONE unbatched solve pays, however many fields ride it
    decomposition = PencilDecomposition.from_num_tasks(burst.grid.shape, NUM_TASKS)
    comm = SimulatedCommunicator(decomposition.num_tasks)
    unbatched = DistributedTransportSolver(
        burst.grid, decomposition, num_time_steps=4, comm=comm
    )
    expected = [unbatched.solve_state(burst.velocity, moving) for moving in burst.movings]
    one_solve = comm.ledger.summary()["ghost_exchange"]["calls"] // len(expected)
    per_batch = [
        job.record.metrics["ghost_exchange_calls"] for job in burst.transports[::MAX_BATCH]
    ]
    assert per_batch == [one_solve, one_solve]

    for job, alone in zip(burst.transports, expected):
        np.testing.assert_array_equal(job.result(), alone)


def test_one_lane_ledgers_show_the_cold_batch_and_the_warm_one():
    """The first batch plans the velocity — one ``interp_scatter`` call each
    for the star and the departure plan — and the second finds both warm.

    A register job touches no pool entry and records only its result.
    """
    with RegistrationService(max_batch=MAX_BATCH) as service:
        burst = _mixed_burst(service)
    assert all(set(job.record.metrics) == {"result"} for job in burst.registers)
    scatters = [
        job.record.metrics["communication"].get("interp_scatter", {}).get("calls", 0)
        for job in burst.transports[::MAX_BATCH]
    ]
    assert scatters == [2, 0]
    stats = get_plan_pool().stats
    assert (stats.hits, stats.misses, stats.entries) == (2, 2, 2)
