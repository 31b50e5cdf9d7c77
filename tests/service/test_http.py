"""HTTP front round-trips: submit, status, cancel, stats, error paths."""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.optim.gauss_newton import SolverOptions
from repro.core.optim.line_search import ArmijoLineSearch
from repro.service import RegistrationService, spec_to_dict
from repro.service.http import serve_http
from repro.service.jobs import JobStatus, RegistrationJobSpec, TransportJobSpec

from tests.fixtures import make_grid, smooth_scalar_field, smooth_velocity_field


def _transport_spec(grid, seed=5, num_time_steps=3):
    return TransportJobSpec(
        velocity=smooth_velocity_field(grid, seed=seed),
        moving=smooth_scalar_field(grid, seed=seed + 40),
        num_time_steps=num_time_steps,
        num_tasks=2,
        grid=grid,
    )


def _endless_registration_spec(grid, seed=5):
    """A registration that can only end by cancellation.

    Unreachable tolerances plus a tiny fixed line-search step (always
    Armijo-accepted while the gradient is O(1), never stalling into
    ``line_search_failure``) keep the solve iterating until cancelled.
    """
    return RegistrationJobSpec(
        template=smooth_scalar_field(grid, seed=seed),
        reference=smooth_scalar_field(grid, seed=seed + 11),
        optimizer="gradient_descent",
        gauss_newton=False,
        options=SolverOptions(
            gradient_tolerance=1e-30,
            absolute_gradient_tolerance=1e-300,
            max_newton_iterations=1_000_000,
            line_search=ArmijoLineSearch(initial_step=1e-6),
        ),
    )


@pytest.fixture()
def served():
    """A live service + HTTP front on a free port; torn down afterwards."""
    with RegistrationService(num_workers=1, max_batch=2) as service:
        server = serve_http(service, 0)
        try:
            yield service, f"http://127.0.0.1:{server.port}"
        finally:
            server.shutdown()


def _request(url, method="GET", body=None):
    """(status, parsed JSON body) of one request; errors are not raised."""
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


def _wait_for(predicate, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


class TestSubmitAndStatus:
    def test_submit_runs_the_job_and_reports_done(self, served):
        service, base = served
        grid = make_grid(8)
        status, submitted = _request(
            f"{base}/jobs", "POST", spec_to_dict(_transport_spec(grid))
        )
        assert status == 202
        job_id = submitted["job_id"]
        assert submitted["kind"] == "transport"
        assert submitted["job_class"] == "interactive"
        service.job(job_id).wait(timeout=120)
        status, doc = _request(f"{base}/jobs/{job_id}")
        assert status == 200
        assert doc["status"] == "done"
        artifact = doc["artifact"]
        assert artifact["schema"] == "repro.service-job"
        assert artifact["job"]["job_id"] == job_id
        assert artifact["job"]["metrics"]["batch_size"] >= 1

    def test_http_submission_matches_in_process_submission_bitwise(self, served):
        service, base = served
        grid = make_grid(8)
        spec = _transport_spec(grid, seed=21)
        direct = service.submit_transport(spec).result(timeout=120)
        _, submitted = _request(f"{base}/jobs", "POST", spec_to_dict(spec))
        job = service.job(submitted["job_id"])
        np.testing.assert_array_equal(direct, job.result(timeout=120))

    def test_unknown_job_is_404(self, served):
        _, base = served
        status, doc = _request(f"{base}/jobs/nope-00000000")
        assert status == 404
        assert "unknown job id" in doc["error"]

    def test_unknown_route_is_404(self, served):
        _, base = served
        assert _request(f"{base}/elsewhere")[0] == 404
        assert _request(f"{base}/elsewhere", "POST", {})[0] == 404
        assert _request(f"{base}/elsewhere", "DELETE")[0] == 404


class TestMalformedSubmissions:
    def test_invalid_json_is_400(self, served):
        _, base = served
        request = urllib.request.Request(
            f"{base}/jobs", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        assert "not valid JSON" in json.load(excinfo.value)["error"]

    def test_empty_body_is_400(self, served):
        _, base = served
        status, doc = _request(f"{base}/jobs", "POST", None)
        assert status == 400
        assert "body" in doc["error"]

    def test_wrong_schema_is_400_with_message(self, served):
        _, base = served
        status, doc = _request(f"{base}/jobs", "POST", {"schema": "bogus"})
        assert status == 400
        assert "repro.service-jobspec" in doc["error"]

    def test_truncated_array_payload_is_400(self, served):
        _, base = served
        document = spec_to_dict(_transport_spec(make_grid(8)))
        document["spec"]["velocity"]["shape"] = [1]
        status, doc = _request(f"{base}/jobs", "POST", document)
        assert status == 400
        assert "bytes" in doc["error"]

    def test_malformed_submission_creates_no_job(self, served):
        service, base = served
        before = service.service_stats()["jobs_submitted"]
        _request(f"{base}/jobs", "POST", {"schema": "bogus"})
        assert service.service_stats()["jobs_submitted"] == before

    def test_non_finite_array_is_400_before_anything_is_journaled(self, tmp_path):
        from repro.service.journal import JobJournal

        spec = _transport_spec(make_grid(8))
        spec.moving[1, 2, 3] = np.nan
        with RegistrationService(num_workers=1, journal_dir=tmp_path) as service:
            server = serve_http(service, 0)
            try:
                status, doc = _request(
                    f"http://127.0.0.1:{server.port}/jobs", "POST", spec_to_dict(spec)
                )
            finally:
                server.shutdown()
            assert service.service_stats()["jobs_submitted"] == 0
        assert status == 400
        assert "moving has 1 non-finite value" in doc["error"]
        assert JobJournal(tmp_path).replay() == []


class TestCancelOverHTTP:
    def test_delete_cancels_a_running_job(self, served):
        service, base = served
        grid = make_grid(8)
        _, submitted = _request(
            f"{base}/jobs", "POST", spec_to_dict(_transport_spec(grid, num_time_steps=2000))
        )
        job = service.job(submitted["job_id"])
        assert _wait_for(lambda: job.status is JobStatus.RUNNING)
        status, doc = _request(f"{base}/jobs/{job.job_id}", "DELETE")
        assert status == 200
        assert doc["cancelled"] is True
        assert job.wait(timeout=60)
        assert job.status is JobStatus.CANCELLED
        status, doc = _request(f"{base}/jobs/{job.job_id}")
        assert doc["status"] == "cancelled"
        assert doc["artifact"]["job"]["error"] is None

    def test_delete_cancels_a_running_registration(self, served):
        """The acceptance path: a RUNNING registration cancelled over HTTP
        stops at the next Newton iteration and lands CANCELLED, not FAILED."""
        service, base = served
        _, submitted = _request(
            f"{base}/jobs", "POST", spec_to_dict(_endless_registration_spec(make_grid(8)))
        )
        job = service.job(submitted["job_id"])
        assert _wait_for(lambda: job.status is JobStatus.RUNNING)
        time.sleep(0.05)  # let the Newton loop actually start iterating
        status, doc = _request(f"{base}/jobs/{job.job_id}", "DELETE")
        assert status == 200
        assert doc["cancelled"] is True
        assert job.wait(timeout=60), "the solve must stop at a safe point"
        assert job.status is JobStatus.CANCELLED
        _, doc = _request(f"{base}/jobs/{job.job_id}")
        assert doc["status"] == "cancelled"
        assert doc["artifact"]["job"]["error"] is None

    def test_delete_of_finished_job_reports_not_cancelled(self, served):
        service, base = served
        _, submitted = _request(
            f"{base}/jobs", "POST", spec_to_dict(_transport_spec(make_grid(8)))
        )
        service.job(submitted["job_id"]).wait(timeout=120)
        status, doc = _request(f"{base}/jobs/{submitted['job_id']}", "DELETE")
        assert status == 200
        assert doc["cancelled"] is False
        assert doc["status"] == "done"

    def test_delete_unknown_job_is_404(self, served):
        _, base = served
        assert _request(f"{base}/jobs/nope-00000000", "DELETE")[0] == 404


class TestStats:
    def test_stats_reports_service_and_observability(self, served):
        service, base = served
        _, submitted = _request(
            f"{base}/jobs", "POST", spec_to_dict(_transport_spec(make_grid(8)))
        )
        service.job(submitted["job_id"]).wait(timeout=120)
        status, doc = _request(f"{base}/stats")
        assert status == 200
        assert doc["jobs_submitted"] >= 1
        assert "interactive" in doc["queue_depths"]
        assert doc["observability"]["schema"] == "repro.observability-snapshot"
