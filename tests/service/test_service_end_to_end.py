"""End-to-end tests of :class:`repro.service.workers.RegistrationService`."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.core.gradients import gradient_cache_decision_log
from repro.core.optim.gauss_newton import SolverOptions
from repro.data.synthetic import synthetic_registration_problem
from repro.parallel.pencil import PencilDecomposition
from repro.parallel.transport import DistributedTransportSolver
from repro.runtime.plan_pool import configure_plan_pool, get_plan_pool
from repro.service import (
    JobFailedError,
    JobStatus,
    RegistrationJobSpec,
    RegistrationService,
    TransportJobSpec,
    workers,
)
from repro.service.journal import JobJournal
from repro.service.queue import SubmissionQueue

from tests.fixtures import make_grid, smooth_scalar_field, smooth_velocity_field


def _hold_claims(monkeypatch) -> threading.Event:
    """Workers started after this claim nothing until the returned event is
    set, so every job submitted before that is queued at the first claim,
    however the threads are scheduled."""
    released = threading.Event()
    claim_batch = SubmissionQueue.claim_batch

    def held(queue, *args, **kwargs):
        assert released.wait(timeout=120), "claims were never released"
        return claim_batch(queue, *args, **kwargs)

    monkeypatch.setattr(SubmissionQueue, "claim_batch", held)
    return released


@pytest.fixture()
def fast_options():
    return SolverOptions(max_newton_iterations=1, max_krylov_iterations=3)


@pytest.fixture(scope="module")
def tiny_problem():
    return synthetic_registration_problem(8)


@pytest.fixture()
def doomed_reference(monkeypatch, tiny_problem):
    """A reference whose registration raises in the worker.

    The failure is injected: a spec that fails its checks never reaches a
    worker, so a worker failure needs a valid spec.
    """
    doomed = tiny_problem.reference.copy()
    real_register = workers.register

    def register(template, reference, **kwargs):
        if reference is doomed:
            raise RuntimeError("injected solver failure")
        return real_register(template, reference, **kwargs)

    monkeypatch.setattr(workers, "register", register)
    return doomed


def _transport_spec(grid, seed=5, moving_seed=None):
    return TransportJobSpec(
        velocity=smooth_velocity_field(grid, seed=seed),
        moving=smooth_scalar_field(grid, seed=moving_seed if moving_seed is not None else 50),
        grid=grid,
    )


class TestRegistrationJobs:
    def test_queued_solve_matches_direct_call(self, tiny_problem, fast_options):
        from repro.core.registration import register

        direct = register(
            tiny_problem.template, tiny_problem.reference, options=fast_options
        )
        with RegistrationService(num_workers=1) as service:
            job = service.submit_registration(
                RegistrationJobSpec(
                    template=tiny_problem.template,
                    reference=tiny_problem.reference,
                    options=fast_options,
                )
            )
            result = job.result(timeout=120)
        np.testing.assert_array_equal(direct.velocity, result.velocity)
        np.testing.assert_array_equal(direct.deformed_template, result.deformed_template)
        assert job.status is JobStatus.DONE
        assert job.record.metrics["result"]["schema"] == "repro.registration-result"

    def test_service_jobs_run_under_the_process_budget(self, tiny_problem, fast_options):
        configure_plan_pool(0)
        with RegistrationService(num_workers=1) as service:
            assert get_plan_pool().max_bytes == 0
            job = service.submit_registration(
                RegistrationJobSpec(
                    template=tiny_problem.template,
                    reference=tiny_problem.reference,
                    options=fast_options,
                )
            )
            result = job.result(timeout=120)
        assert "fft_backend" not in result.summary()
        # no budget for the gradient stack: every iterate ran the lazy levels
        assert set(gradient_cache_decision_log().counts()) == {"uncached"}


class TestFailureIsolation:
    def test_worker_exception_fails_the_job_not_the_queue(
        self, tiny_problem, fast_options, doomed_reference
    ):
        grid = make_grid(8)
        with RegistrationService(num_workers=1) as service:
            bad = service.submit_registration(
                RegistrationJobSpec(
                    template=tiny_problem.template,
                    reference=doomed_reference,
                    options=fast_options,
                )
            )
            good = service.submit_transport(_transport_spec(grid))
            # the failed job reports status/traceback...
            with pytest.raises(JobFailedError, match="injected solver failure"):
                bad.result(timeout=120)
            assert bad.status is JobStatus.FAILED
            assert bad.record.error is not None
            assert "Traceback" in bad.record.traceback
            # ... and the queue keeps serving later jobs (no hang)
            assert good.result(timeout=120).shape == grid.shape

    def test_bad_specs_raise_at_construction_and_journal_nothing(self, tiny_problem, tmp_path):
        """Regression: a NaN velocity used to finish ``done`` with an all-NaN
        result, and a NaN voxel or ``regularization="h9"`` was journaled and
        queued, then failed in the worker."""
        grid = make_grid(8)
        velocity = smooth_velocity_field(grid, seed=5)
        velocity[0, 1, 2, 3] = np.nan
        template = tiny_problem.template.copy()
        template[1, 2, 3] = np.nan
        images = dict(template=tiny_problem.template, reference=tiny_problem.reference)
        with RegistrationService(num_workers=1, journal_dir=tmp_path) as service:
            with pytest.raises(ValueError, match="velocity has 1 non-finite value"):
                service.submit_transport(
                    TransportJobSpec(velocity=velocity, moving=tiny_problem.template)
                )
            with pytest.raises(ValueError, match="template has 1 non-finite value"):
                service.submit_registration(
                    RegistrationJobSpec(template=template, reference=tiny_problem.reference)
                )
            with pytest.raises(ValueError, match="regularization must be one of"):
                service.submit_registration(RegistrationJobSpec(**images, regularization="h9"))
            assert service.service_stats()["jobs_submitted"] == 0
        assert JobJournal(tmp_path).replay() == []

    def test_failed_transport_batch_fails_every_member(self, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("injected transport failure")

        monkeypatch.setattr(DistributedTransportSolver, "solve_state_many", fail)
        spec = _transport_spec(make_grid(8))
        claims = _hold_claims(monkeypatch)
        with RegistrationService(num_workers=1, max_batch=2) as service:
            jobs = [service.submit_transport(spec) for _ in range(2)]
            claims.set()
            service.drain()
        assert all(job.status is JobStatus.FAILED for job in jobs)
        assert all(job.record.batch_size == 2 for job in jobs)
        assert all(job.record.traceback for job in jobs)

    @pytest.mark.parametrize("num_tasks", [7, 32, 64])
    def test_thin_pencil_is_rejected_at_construction(self, num_tasks):
        """Regression: 8^3 on 7 / 32 / 64 tasks used to be journaled, then
        fail in the worker with a ghost-width error."""
        grid = make_grid(8)
        with pytest.raises(ValueError, match=f"num_tasks={num_tasks} splits the"):
            TransportJobSpec(
                velocity=smooth_velocity_field(grid, seed=5),
                moving=smooth_scalar_field(grid, seed=50),
                num_tasks=num_tasks,
            )

    @pytest.mark.parametrize("num_tasks", [9, 16])
    def test_pencils_two_points_wide_run(self, num_tasks):
        grid = make_grid(8)
        spec = _transport_spec(grid)
        spec.num_tasks = num_tasks
        with RegistrationService(num_workers=1) as service:
            result = service.submit_transport(spec).result(timeout=120)
        deco = PencilDecomposition.from_num_tasks(grid.shape, num_tasks)
        expected = DistributedTransportSolver(grid, deco, spec.num_time_steps).solve_state(
            spec.velocity, spec.moving
        )
        np.testing.assert_array_equal(result, expected)

    def test_gather_partial_results(self, tiny_problem, fast_options, doomed_reference):
        grid = make_grid(8)
        with RegistrationService(num_workers=1) as service:
            good = service.submit_transport(_transport_spec(grid))
            bad = service.submit_registration(
                RegistrationJobSpec(
                    template=tiny_problem.template,
                    reference=doomed_reference,
                    options=fast_options,
                )
            )
            results = service.gather([good, bad], timeout=120, raise_on_error=False)
        assert results[0] is not None
        assert results[1] is None


class TestMicroBatching:
    def test_compatible_jobs_merge_and_match_serial_bitwise(self, monkeypatch):
        grid = make_grid(8)
        velocity = smooth_velocity_field(grid, seed=13)
        movings = [smooth_scalar_field(grid, seed=s) for s in (30, 31, 32, 33)]
        deco = PencilDecomposition.from_num_tasks(grid.shape, 4)
        serial = [
            DistributedTransportSolver(grid, deco, num_time_steps=4).solve_state(
                velocity, moving
            )
            for moving in movings
        ]

        claims = _hold_claims(monkeypatch)
        with RegistrationService(num_workers=1, max_batch=4) as service:
            jobs = [
                service.submit_transport(
                    TransportJobSpec(velocity=velocity, moving=moving, grid=grid)
                )
                for moving in movings
            ]
            claims.set()
            results = service.gather(jobs, timeout=120)

        for expected, got in zip(serial, results):
            np.testing.assert_array_equal(expected, got)
        batch_sizes = {job.record.batch_size for job in jobs}
        assert batch_sizes == {4}, "all four compatible jobs must ride one batch"
        assert jobs[0].record.metrics["ghost_exchange_calls"] > 0
        assert jobs[0].record.metrics["batch_size"] == 4

    def test_incompatible_jobs_do_not_merge(self):
        grid = make_grid(8)
        with RegistrationService(num_workers=1, max_batch=4) as service:
            jobs = [
                service.submit_transport(_transport_spec(grid, seed=seed))
                for seed in (1, 2)
            ]
            service.gather(jobs, timeout=120)
        assert all(job.record.batch_size == 1 for job in jobs)

    def test_batch_shares_one_ghost_round_per_step(self):
        """A batch of B jobs must charge the ledger once, not B times."""
        grid = make_grid(8)
        spec_factory = lambda m: TransportJobSpec(  # noqa: E731
            velocity=smooth_velocity_field(grid, seed=21),
            moving=smooth_scalar_field(grid, seed=m),
            grid=grid,
        )
        with RegistrationService(num_workers=1, max_batch=2) as service:
            blocker = service.submit_transport(_transport_spec(grid, seed=77))
            pair = [service.submit_transport(spec_factory(m)) for m in (40, 41)]
            blocker.result(timeout=120)
            service.gather(pair, timeout=120)
        single = blocker.record.metrics["ghost_exchange_calls"]
        merged = pair[0].record.metrics["ghost_exchange_calls"]
        assert merged == single, "a merged batch pays the same ghost rounds as one solve"


class TestArtifactsAndStats:
    def test_artifacts_written_for_done_and_failed(
        self, tmp_path, tiny_problem, fast_options, doomed_reference
    ):
        grid = make_grid(8)
        with RegistrationService(num_workers=1, artifacts_dir=tmp_path) as service:
            ok = service.submit_transport(_transport_spec(grid))
            bad = service.submit_registration(
                RegistrationJobSpec(
                    template=tiny_problem.template,
                    reference=doomed_reference,
                    options=fast_options,
                )
            )
            service.drain()
        ok_doc = json.loads((tmp_path / f"job-{ok.job_id}.json").read_text())
        bad_doc = json.loads((tmp_path / f"job-{bad.job_id}.json").read_text())
        assert ok_doc["schema"] == "repro.service-job"
        assert ok_doc["schema_version"] == 6
        assert ok_doc["job"]["status"] == "done"
        # the batch's own ledger shows its cold plan; no process-wide pool delta
        assert ok_doc["job"]["metrics"]["communication"]["interp_scatter"]["calls"] == 2
        assert not any(key.startswith("plan_pool") for key in ok_doc["job"]["metrics"])
        assert "layout_decisions" not in ok_doc["job"]["metrics"]
        assert bad_doc["job"]["status"] == "failed"
        assert "Traceback" in bad_doc["job"]["traceback"]

    def test_register_artifact_carries_termination_reason(
        self, tmp_path, tiny_problem, fast_options
    ):
        with RegistrationService(num_workers=1, artifacts_dir=tmp_path) as service:
            job = service.submit_registration(
                RegistrationJobSpec(
                    template=tiny_problem.template,
                    reference=tiny_problem.reference,
                    options=fast_options,
                )
            )
            result = job.result(timeout=120)
        doc = json.loads((tmp_path / f"job-{job.job_id}.json").read_text())
        embedded = doc["job"]["metrics"]["result"]
        assert embedded["schema"] == "repro.registration-result"
        assert embedded["schema_version"] == 6
        assert embedded["optimization"]["termination_reason"] == (
            result.optimization.termination_reason
        )
        assert "field_sources" not in embedded
        assert "field_sources" not in doc["observability"]
        assert "interp_backend" not in embedded["summary"]

    def test_register_artifact_is_v6_without_a_pool_delta(
        self, tmp_path, tiny_problem, fast_options
    ):
        """A registration touches no pool entry: neither the job nor its result
        reports a per-solve delta; the process-wide pool is in the snapshot."""
        with RegistrationService(num_workers=1, artifacts_dir=tmp_path) as service:
            job = service.submit_registration(
                RegistrationJobSpec(
                    template=tiny_problem.template,
                    reference=tiny_problem.reference,
                    options=fast_options,
                )
            )
            job.result(timeout=120)
        doc = json.loads((tmp_path / f"job-{job.job_id}.json").read_text())
        assert (doc["schema"], doc["schema_version"]) == ("repro.service-job", 6)
        metrics = doc["job"]["metrics"]
        assert set(metrics) == {"result"}
        embedded = metrics["result"]
        assert embedded["schema_version"] == 6
        assert "plan_pool" not in embedded
        assert not any(key.startswith(("plan_pool", "fft_")) for key in embedded["summary"])
        assert "plan_pool" in doc["observability"]

    def test_register_artifact_carries_the_convergence_records(self, tmp_path):
        problem = synthetic_registration_problem(12)
        with RegistrationService(num_workers=1, artifacts_dir=tmp_path) as service:
            job = service.submit_registration(
                RegistrationJobSpec(template=problem.template, reference=problem.reference)
            )
            result = job.result(timeout=120)
        doc = json.loads((tmp_path / f"job-{job.job_id}.json").read_text())
        optimization = doc["job"]["metrics"]["result"]["optimization"]
        records = optimization["iterations"]
        assert len(records) == result.num_newton_iterations > 1
        assert sum(record["hessian_matvecs"] for record in records) == (
            optimization["total_hessian_matvecs"]
        )
        assert records == result.optimization.convergence_table()

    def test_service_stats_shape(self):
        grid = make_grid(8)
        with RegistrationService(num_workers=2, max_batch=2) as service:
            jobs = [service.submit_transport(_transport_spec(grid)) for _ in range(2)]
            service.gather(jobs, timeout=120)
            stats = service.service_stats()
        assert stats["jobs_submitted"] == 2
        assert stats["jobs_by_status"]["done"] == 2
        assert stats["num_workers"] == 2
        # the pool's statistics appear once, in the observability snapshot
        assert "plan_pool" not in stats and "plan_pool_hit_rate" not in stats
        assert stats["observability"]["plan_pool"]["hits"] == get_plan_pool().stats.hits
        assert "layout_decisions" not in stats

    def test_shutdown_without_drain_cancels_queued(self):
        grid = make_grid(8)
        service = RegistrationService(num_workers=1)
        blocker = service.submit_transport(_transport_spec(grid, seed=55))
        trailing = [service.submit_transport(_transport_spec(grid, seed=s)) for s in (60, 61)]
        blocker.wait(timeout=120)
        service.shutdown(drain=False)
        assert blocker.status is JobStatus.DONE
        # whatever had not been claimed was cancelled, nothing hangs
        for job in trailing:
            assert job.done
            assert job.status in (JobStatus.DONE, JobStatus.CANCELLED)
