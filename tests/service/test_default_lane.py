"""The service's default width — one compute lane — and what it buys.

A solve's kernels hold the GIL, so ``RegistrationService()`` starts one worker
thread (``repro.service.workers.DEFAULT_SERVICE_WORKERS``) unless
``num_workers=`` asks for more.  On one lane two things the
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
from repro.runtime.plan_pool import get_plan_pool
from repro.service import RegistrationJobSpec, RegistrationService, TransportJobSpec

from tests.fixtures import make_grid, smooth_scalar_field, smooth_velocity_field

NUM_TASKS = 4
MAX_BATCH = 4


class TestDefaultWidth:
    def test_a_default_service_runs_one_worker(self):
        with RegistrationService() as service:
            assert service.num_workers == 1
            assert service.service_stats()["num_workers"] == 1
            assert len(service._threads) == 1

    def test_the_argument_starts_two(self):
        with RegistrationService(num_workers=np.int64(2)) as service:
            assert len(service._threads) == service.service_stats()["num_workers"] == 2
            assert type(service.num_workers) is int

    @pytest.mark.parametrize(
        "retired", ["REPRO_WORKERS", "REPRO_SERVICE_WORKERS", "REPRO_SERVICE_JOURNAL"]
    )
    def test_retired_variables_are_not_read(self, monkeypatch, tmp_path, retired):
        monkeypatch.chdir(tmp_path)
        for value in ("3", "three"):  # not even validated
            monkeypatch.setenv(retired, value)
            with RegistrationService() as service:
                assert service.num_workers == 1
                assert service.journal is None
        assert list(tmp_path.iterdir()) == []


class TestCountsAreChecked:
    """A count that is not a positive integer is refused, never clamped or
    truncated, before the journal is opened or a worker starts."""

    @pytest.mark.parametrize("name", ["num_workers", "max_batch"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_a_count_below_one_is_a_value_error(self, tmp_path, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive, got {value}"):
            RegistrationService(**{name: value}, journal_dir=tmp_path / "journal")
        assert not (tmp_path / "journal").exists()

    @pytest.mark.parametrize("name", ["num_workers", "max_batch"])
    @pytest.mark.parametrize("value", [2.5, True, "2"])
    def test_a_count_that_is_not_an_integer_is_a_type_error(self, name, value):
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            RegistrationService(**{name: value})


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
