"""End-to-end tests of :class:`repro.service.workers.RegistrationService`."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.config import RegistrationConfig
from repro.core.optim.gauss_newton import SolverOptions
from repro.data.synthetic import synthetic_registration_problem
from repro.parallel.pencil import PencilDecomposition
from repro.parallel.transport import DistributedTransportSolver
from repro.runtime.plan_pool import get_plan_pool
from repro.service import (
    JobFailedError,
    JobStatus,
    RegistrationJobSpec,
    RegistrationService,
    TransportJobSpec,
)

from tests.fixtures import make_grid, smooth_scalar_field, smooth_velocity_field


@pytest.fixture()
def fast_options():
    return SolverOptions(max_newton_iterations=1, max_krylov_iterations=3)


@pytest.fixture(scope="module")
def tiny_problem():
    return synthetic_registration_problem(8)


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

    def test_service_applies_its_config(self, tiny_problem, fast_options):
        with RegistrationService(
            config=RegistrationConfig(fft_backend="numpy"), num_workers=1
        ) as service:
            job = service.submit_registration(
                RegistrationJobSpec(
                    template=tiny_problem.template,
                    reference=tiny_problem.reference,
                    options=fast_options,
                )
            )
            result = job.result(timeout=120)
        assert result.summary()["fft_backend"] == "numpy"


class TestFailureIsolation:
    def test_worker_exception_fails_the_job_not_the_queue(self, tiny_problem, fast_options):
        grid = make_grid(8)
        with RegistrationService(num_workers=1) as service:
            bad = service.submit_registration(
                RegistrationJobSpec(
                    template=tiny_problem.template,
                    reference=smooth_scalar_field(make_grid(10), seed=1),  # shape mismatch
                    options=fast_options,
                )
            )
            good = service.submit_transport(_transport_spec(grid))
            # the failed job reports status/traceback...
            with pytest.raises(JobFailedError, match="shape"):
                bad.result(timeout=120)
            assert bad.status is JobStatus.FAILED
            assert bad.record.error is not None
            assert "Traceback" in bad.record.traceback
            # ... and the queue keeps serving later jobs (no hang)
            assert good.result(timeout=120).shape == grid.shape

    def test_non_finite_voxel_fails_the_job_with_a_named_error(
        self, tiny_problem, fast_options
    ):
        template = tiny_problem.template.copy()
        template[1, 2, 3] = np.nan
        with RegistrationService(num_workers=1) as service:
            job = service.submit_registration(
                RegistrationJobSpec(
                    template=template,
                    reference=tiny_problem.reference,
                    options=fast_options,
                )
            )
            with pytest.raises(JobFailedError, match="template has 1 non-finite value"):
                job.result(timeout=120)
        assert job.status is JobStatus.FAILED
        assert "IndexError" not in job.record.traceback

    def test_failed_transport_batch_fails_every_member(self):
        grid = make_grid(8)
        bad_spec = TransportJobSpec(
            velocity=np.zeros((3, 9, 9, 9)),  # wrong shape for its grid
            moving=smooth_scalar_field(grid, seed=2),
            grid=grid,
        )
        with RegistrationService(num_workers=1, max_batch=2) as service:
            jobs = [service.submit_transport(bad_spec) for _ in range(2)]
            service.drain()
        assert all(job.status is JobStatus.FAILED for job in jobs)
        assert all(job.record.traceback for job in jobs)

    def test_gather_partial_results(self, tiny_problem, fast_options):
        grid = make_grid(8)
        with RegistrationService(num_workers=1) as service:
            good = service.submit_transport(_transport_spec(grid))
            bad = service.submit_registration(
                RegistrationJobSpec(
                    template=tiny_problem.template,
                    reference=smooth_scalar_field(make_grid(10), seed=1),
                    options=fast_options,
                )
            )
            results = service.gather([good, bad], timeout=120, raise_on_error=False)
        assert results[0] is not None
        assert results[1] is None


class TestMicroBatching:
    def test_compatible_jobs_merge_and_match_serial_bitwise(self):
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

        # one worker, so all four jobs are queued when the claim happens
        with RegistrationService(num_workers=1, max_batch=4) as service:
            blocker = service.submit_transport(
                TransportJobSpec(
                    velocity=smooth_velocity_field(grid, seed=99),
                    moving=movings[0],
                    grid=grid,
                )
            )
            jobs = [
                service.submit_transport(
                    TransportJobSpec(velocity=velocity, moving=moving, grid=grid)
                )
                for moving in movings
            ]
            blocker.result(timeout=120)
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
    def test_artifacts_written_for_done_and_failed(self, tmp_path, tiny_problem, fast_options):
        grid = make_grid(8)
        with RegistrationService(num_workers=1, artifacts_dir=tmp_path) as service:
            ok = service.submit_transport(_transport_spec(grid))
            bad = service.submit_registration(
                RegistrationJobSpec(
                    template=tiny_problem.template,
                    reference=smooth_scalar_field(make_grid(10), seed=1),
                    options=fast_options,
                )
            )
            service.drain()
        ok_doc = json.loads((tmp_path / f"job-{ok.job_id}.json").read_text())
        bad_doc = json.loads((tmp_path / f"job-{bad.job_id}.json").read_text())
        assert ok_doc["schema"] == "repro.service-job"
        assert ok_doc["schema_version"] == 3
        assert ok_doc["job"]["status"] == "done"
        assert ok_doc["job"]["metrics"]["plan_pool_delta"]["misses"] >= 0
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
        assert embedded["schema_version"] == 3
        assert embedded["optimization"]["termination_reason"] == (
            result.optimization.termination_reason
        )
        assert "field_sources" not in embedded
        assert "field_sources" not in doc["observability"]

    def test_service_stats_shape(self):
        grid = make_grid(8)
        with RegistrationService(num_workers=2, max_batch=2) as service:
            jobs = [service.submit_transport(_transport_spec(grid)) for _ in range(2)]
            service.gather(jobs, timeout=120)
            stats = service.service_stats()
        assert stats["jobs_submitted"] == 2
        assert stats["jobs_by_status"]["done"] == 2
        assert stats["num_workers"] == 2
        assert 0.0 <= stats["plan_pool_hit_rate"] <= 1.0
        assert stats["plan_pool"]["hits"] == get_plan_pool().stats.hits
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
