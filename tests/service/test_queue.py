"""Submission-queue semantics: FIFO, fairness, cancellation, batching, close."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.service.jobs import (
    JOB_CLASS_ATLAS,
    JOB_CLASS_INTERACTIVE,
    Job,
    JobCancelledError,
    JobStatus,
    RegistrationJobSpec,
    TransportJobSpec,
)
from repro.service.queue import DEFAULT_CLASS_WEIGHTS, SubmissionQueue


class _NullService:
    """Stand-in submitter side: cancellation goes straight to the queue."""

    def __init__(self, queue):
        self.queue = queue

    def _cancel(self, job, force=False):
        return self.queue.cancel(job)


def _transport_spec(seed=0, shape=(8, 8, 8), job_class=JOB_CLASS_INTERACTIVE):
    rng = np.random.default_rng(seed)
    velocity = rng.standard_normal((3, *shape))
    moving = rng.standard_normal(shape)
    return TransportJobSpec(velocity=velocity, moving=moving, job_class=job_class)


@pytest.fixture()
def queue():
    return SubmissionQueue()


@pytest.fixture()
def service(queue):
    return _NullService(queue)


class TestFifoAndClaim:
    def test_claim_returns_oldest_first(self, queue, service):
        jobs = [Job(_transport_spec(seed=i), service) for i in range(3)]
        for job in jobs:
            queue.submit(job)
        first = queue.claim_batch(max_batch=1)
        assert first == [jobs[0]]
        assert first[0].status is JobStatus.RUNNING
        assert first[0].record.started_at is not None

    def test_claim_batches_compatible_jobs(self, queue, service):
        spec = _transport_spec(seed=7)
        same = [Job(spec, service) for _ in range(3)]
        other = Job(_transport_spec(seed=8), service)  # different velocity
        queue.submit(same[0])
        queue.submit(other)
        queue.submit(same[1])
        queue.submit(same[2])
        batch = queue.claim_batch(max_batch=4)
        assert batch == [same[0], same[1], same[2]]
        assert all(job.record.batch_size == 3 for job in batch)
        # the incompatible job stays queued, in order
        assert queue.claim_batch(max_batch=4) == [other]

    def test_max_batch_caps_the_merge(self, queue, service):
        spec = _transport_spec(seed=3)
        jobs = [Job(spec, service) for _ in range(5)]
        for job in jobs:
            queue.submit(job)
        assert len(queue.claim_batch(max_batch=2)) == 2
        assert len(queue.claim_batch(max_batch=2)) == 2
        assert len(queue.claim_batch(max_batch=2)) == 1

    def test_registration_jobs_are_claimed_alone(self, queue, service):
        """Registrations have no batch key: equal specs still claim one by one."""
        image = np.random.default_rng(0).standard_normal((8, 8, 8))
        spec = RegistrationJobSpec(template=image, reference=image)
        jobs = [Job(spec, service) for _ in range(2)]
        for job in jobs:
            queue.submit(job)
        assert queue.claim_batch(max_batch=4) == [jobs[0]]
        assert queue.claim_batch(max_batch=4) == [jobs[1]]

    def test_claim_timeout_returns_none(self, queue):
        assert queue.claim_batch(max_batch=1, timeout=0.05) is None


class TestCancellation:
    def test_cancel_queued_job(self, queue, service):
        job = Job(_transport_spec(), service)
        queue.submit(job)
        assert job.cancel() is True
        assert job.status is JobStatus.CANCELLED
        assert job.done
        with pytest.raises(JobCancelledError):
            job.result(timeout=1.0)
        # the queue no longer hands it out
        assert queue.claim_batch(max_batch=1, timeout=0.05) is None

    def test_cancel_claimed_job_is_refused(self, queue, service):
        job = Job(_transport_spec(), service)
        queue.submit(job)
        (claimed,) = queue.claim_batch(max_batch=1)
        assert claimed is job
        assert job.cancel() is False
        assert job.status is JobStatus.RUNNING

    def test_cancelled_job_never_reaches_a_waiting_worker(self, queue, service):
        results = []
        worker = threading.Thread(
            target=lambda: results.append(queue.claim_batch(max_batch=1)), daemon=True
        )
        job = Job(_transport_spec(), service)
        queue.submit(job)
        assert job.cancel() is True
        worker.start()
        queue.close()
        worker.join(timeout=5.0)
        assert results == [None]


class TestWeightedFairness:
    """Stride scheduling across job classes: bursts cannot starve singles."""

    def _submit_population(self, queue, service, num_atlas, num_interactive, atlas_first=True):
        atlas = [
            Job(_transport_spec(seed=100 + i, job_class=JOB_CLASS_ATLAS), service)
            for i in range(num_atlas)
        ]
        interactive = [
            Job(_transport_spec(seed=200 + i), service) for i in range(num_interactive)
        ]
        for job in (atlas + interactive) if atlas_first else (interactive + atlas):
            queue.submit(job)
        return atlas, interactive

    def _drain_order(self, queue):
        order = []
        while True:
            batch = queue.claim_batch(max_batch=1, timeout=0.05)
            if batch is None:
                return order
            order.extend(batch)

    def test_interactive_jobs_cut_through_an_atlas_burst(self, queue, service):
        """4 interactive jobs behind a 20-job burst are all served early."""
        _, interactive = self._submit_population(queue, service, 20, 4)
        order = self._drain_order(queue)
        positions = [order.index(job) for job in interactive]
        # weight 4 vs 1: at most one burst job is claimed before each
        # interactive one — all four are out within the first 5 claims
        assert max(positions) <= 4, f"interactive starved: positions {positions}"

    def test_saturated_classes_interleave_by_weight(self, queue, service):
        """Two full queues are served ~4:1 (the configured weights)."""
        self._submit_population(queue, service, 40, 40, atlas_first=False)
        first = self._drain_order(queue)[:25]
        interactive = sum(1 for job in first if job.job_class == JOB_CLASS_INTERACTIVE)
        assert interactive == 20, "expected a 4:1 interactive:atlas claim ratio"

    def test_idle_class_reenters_at_live_virtual_time(self, queue, service):
        """Credit saved while idle must not buy a retaliatory burst."""
        atlas, _ = self._submit_population(queue, service, 10, 0)
        for _ in range(6):  # the burst runs alone; its virtual time advances
            queue.claim_batch(max_batch=1)
        late = [Job(_transport_spec(seed=300 + i), service) for i in range(2)]
        for job in late:
            queue.submit(job)
        next_four = [queue.claim_batch(max_batch=1)[0] for _ in range(4)]
        # the late interactive jobs are served promptly (no starvation) but
        # do not pre-empt everything either (no saved-credit burst)
        assert set(late) <= set(next_four)
        assert any(job.job_class == JOB_CLASS_ATLAS for job in next_four)

    def test_weights_are_fixed_at_four_to_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_CLASS_WEIGHTS", "interactive=7")  # not read
        queue = SubmissionQueue()
        assert queue.class_weight(JOB_CLASS_INTERACTIVE) == 4.0
        assert queue.class_weight(JOB_CLASS_ATLAS) == 1.0
        assert queue.class_weight("unknown-class") == 1.0
        assert DEFAULT_CLASS_WEIGHTS == {JOB_CLASS_INTERACTIVE: 4.0, JOB_CLASS_ATLAS: 1.0}
        with pytest.raises(TypeError):
            SubmissionQueue(class_weights={JOB_CLASS_ATLAS: 4.0})

    def test_depths_report_per_class(self, queue, service):
        self._submit_population(queue, service, 3, 2)
        assert queue.depths() == {JOB_CLASS_ATLAS: 3, JOB_CLASS_INTERACTIVE: 2}
        queue.claim_batch(max_batch=1)
        depths = queue.depths()
        assert sum(depths.values()) == 4

    def test_batch_merging_stays_within_one_class(self, queue, service):
        shared = _transport_spec(seed=9)
        burst = _transport_spec(seed=9, job_class=JOB_CLASS_ATLAS)
        interactive = [Job(shared, service) for _ in range(2)]
        atlas = Job(burst, service)
        queue.submit(interactive[0])
        queue.submit(atlas)
        queue.submit(interactive[1])
        batch = queue.claim_batch(max_batch=4)
        assert batch == interactive, "a batch never mixes job classes"


class TestCancelHammer:
    """S3 regression: the CANCELLED flip happens inside the queue lock."""

    def test_concurrent_cancel_and_claim_never_disagree(self, queue, service):
        num_jobs = 200
        jobs = [Job(_transport_spec(seed=i), service) for i in range(num_jobs)]
        for job in jobs:
            queue.submit(job)

        cancelled, claimed = set(), []
        cancelled_lock = threading.Lock()
        start = threading.Barrier(7)  # 4 cancellers + 2 claimers + main

        def cancel_worker(slice_of_jobs):
            start.wait()
            for job in slice_of_jobs:
                if job.cancel():
                    with cancelled_lock:
                        cancelled.add(job.job_id)

        def claim_worker(sink):
            start.wait()
            while True:
                batch = queue.claim_batch(max_batch=1)
                if batch is None:
                    return
                # a successfully cancelled job must never reach a worker
                assert batch[0].status is JobStatus.RUNNING
                sink.extend(batch)

        sinks = [[], []]
        threads = [
            threading.Thread(target=cancel_worker, args=(jobs[i::4],))
            for i in range(4)
        ] + [threading.Thread(target=claim_worker, args=(sink,)) for sink in sinks]
        for thread in threads:
            thread.start()
        start.wait()
        queue.close()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()

        claimed = [job.job_id for sink in sinks for job in sink]
        assert len(claimed) == len(set(claimed)), "a job was claimed twice"
        assert not cancelled & set(claimed), "a job was both cancelled and claimed"
        assert cancelled | set(claimed) == {job.job_id for job in jobs}, (
            "every job must end up exactly one of cancelled or claimed"
        )
        for job in jobs:
            if job.job_id in cancelled:
                assert job.status is JobStatus.CANCELLED and job.done
            else:
                assert job.status is JobStatus.RUNNING

    def test_cancel_race_outcomes_are_consistent(self, queue, service):
        """Whoever wins the race, the loser observes a settled state."""
        for trial in range(50):
            job = Job(_transport_spec(seed=trial), service)
            queue.submit(job)
            outcome = {}
            claimer = threading.Thread(
                target=lambda: outcome.update(batch=queue.claim_batch(max_batch=1))
            )
            claimer.start()
            won = job.cancel()
            sentinel = None
            if won:
                # unblock the claimer, which must never have seen the job
                sentinel = Job(_transport_spec(seed=1000 + trial), service)
                queue.submit(sentinel)
            claimer.join(timeout=10)
            assert not claimer.is_alive()
            if won:
                assert job.status is JobStatus.CANCELLED and job.done
                assert outcome["batch"] == [sentinel]
            else:
                assert outcome["batch"] == [job]
                assert job.status is JobStatus.RUNNING


class TestClose:
    def test_close_refuses_new_submissions(self, queue, service):
        queue.close()
        with pytest.raises(RuntimeError, match="closed"):
            queue.submit(Job(_transport_spec(), service))

    def test_close_drains_queued_jobs_first(self, queue, service):
        job = Job(_transport_spec(), service)
        queue.submit(job)
        queue.close()
        assert queue.claim_batch(max_batch=1) == [job]
        assert queue.claim_batch(max_batch=1) is None

    def test_close_releases_blocked_workers(self, queue):
        results = []
        worker = threading.Thread(
            target=lambda: results.append(queue.claim_batch(max_batch=1)), daemon=True
        )
        worker.start()
        queue.close()
        worker.join(timeout=5.0)
        assert not worker.is_alive()
        assert results == [None]
