"""HTTP front round-trips: submit, status, cancel, stats, error paths."""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.optim.gauss_newton import SolverOptions
from repro.core.optim.line_search import ArmijoLineSearch
from repro.core.registration import RegistrationSolver, register
from repro.observability import get_metrics_registry
from repro.service import RegistrationService, spec_to_dict
from repro.service.http import serve_http
from repro.service.jobs import JobStatus, RegistrationJobSpec, TransportJobSpec
from repro.service.journal import JobJournal, MalformedSpecError, spec_from_dict

from tests.fixtures import (
    BAD_IMAGE_SHAPES,
    make_grid,
    smooth_scalar_field,
    smooth_velocity_field,
    with_images,
)


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


def _registration_document():
    grid = make_grid(8)
    return spec_to_dict(
        RegistrationJobSpec(
            template=smooth_scalar_field(grid, seed=1),
            reference=smooth_scalar_field(grid, seed=2),
            options=SolverOptions(),
        )
    )


def _post_rejected(journal_dir, document):
    """(status, body) of POSTing *document* to a journaled service, which must
    neither accept nor journal it."""
    with RegistrationService(num_workers=1, journal_dir=journal_dir) as service:
        server = serve_http(service, 0)
        try:
            response = _request(f"http://127.0.0.1:{server.port}/jobs", "POST", document)
        finally:
            server.shutdown()
        assert service.service_stats()["jobs_submitted"] == 0
    assert JobJournal(journal_dir).replay() == []
    return response


def _transforms() -> float:
    return sum(get_metrics_registry().collect().get("fft.transforms", {}).values())


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
    @pytest.mark.parametrize(
        "body, length, message",
        [
            (b"{not json", None, "not valid JSON"),
            (b"{}", "abc", "Content-Length must be an integer, got 'abc'"),
        ],
        ids=["invalid-json", "non-integer-content-length"],
    )
    def test_malformed_request_is_400(self, served, body, length, message):
        service, base = served
        host, port = base.rsplit("/", 1)[1].split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            connection.putrequest("POST", "/jobs")
            connection.putheader("Content-Length", str(len(body)) if length is None else length)
            connection.endheaders(body)
            response = connection.getresponse()
            assert response.status == 400
            assert message in json.load(response)["error"]
        finally:
            connection.close()
        assert service.service_stats()["jobs_submitted"] == 0

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
        spec = _transport_spec(make_grid(8))
        spec.moving[1, 2, 3] = np.nan
        status, doc = _post_rejected(tmp_path, spec_to_dict(spec))
        assert status == 400
        assert "moving has 1 non-finite value" in doc["error"]

    def test_thin_pencil_is_400_before_anything_is_journaled(self, tmp_path):
        spec = _transport_spec(make_grid(8))
        spec.num_tasks = 7
        status, doc = _post_rejected(tmp_path, spec_to_dict(spec))
        assert status == 400
        assert "num_tasks=7 splits the (8, 8, 8) grid over a 1x7 process grid" in doc["error"]

    @pytest.mark.parametrize(
        "template_shape, reference_shape",
        [(shape, shape) for shape in BAD_IMAGE_SHAPES] + [((8, 8, 8), (8, 8, 10))],
        ids=str,
    )
    def test_bad_image_shapes_are_400_before_anything_is_journaled(
        self, tmp_path, template_shape, reference_shape
    ):
        """A Python-built spec raises at construction; the same images in a
        jobspec are a 400, and the worker never sees them."""
        template, reference = np.zeros(template_shape), np.zeros(reference_shape)
        with pytest.raises(ValueError, match="template"):
            RegistrationJobSpec(template=template, reference=reference)
        document = with_images(_registration_document(), template, reference)
        status, doc = _post_rejected(tmp_path, document)
        assert status == 400
        assert "template" in doc["error"]

    def test_v1_document_is_400_before_anything_is_journaled(self, tmp_path):
        document = _registration_document()
        document["schema_version"] = 1
        status, doc = _post_rejected(tmp_path, document)
        assert status == 400
        assert "unsupported jobspec schema version 1" in doc["error"]


#: Solver settings no solve can use: (jobspec section, field, value).
BAD_SETTINGS = [
    ("spec", "beta", 0.0), ("spec", "beta", -1e-2), ("spec", "beta", float("nan")),
    ("spec", "smooth_sigma", -1.0), ("spec", "smooth_sigma", float("nan")),
    ("options", "max_newton_iterations", -1), ("options", "max_krylov_iterations", 0),
    ("options", "forcing_max", -1.0), ("options", "gradient_tolerance", float("nan")),
    ("options", "absolute_gradient_tolerance", float("inf")),
    ("options", "max_wall_clock_seconds", 0.0),
    ("spec", "beta", float("inf")), ("spec", "smooth_sigma", float("inf")),
    ("options", "max_newton_iterations", -5), ("options", "max_krylov_iterations", -1),
    ("options", "forcing_max", float("nan")), ("options", "gradient_tolerance", -1e-3),
    ("options", "absolute_gradient_tolerance", -1.0),
    ("options", "max_wall_clock_seconds", -1.0),
    ("options", "max_wall_clock_seconds", float("nan")),
    ("options", "max_wall_clock_seconds", float("inf")),
]

#: The least settings a solve can still use: (jobspec section, field, value).
EDGE_SETTINGS = [
    ("spec", "beta", 1e-12), ("spec", "smooth_sigma", 0.0),
    ("options", "max_newton_iterations", 0), ("options", "max_krylov_iterations", 1),
    ("options", "gradient_tolerance", 0.0), ("options", "absolute_gradient_tolerance", 0.0),
    ("options", "forcing_max", 0.0),
    ("options", "max_wall_clock_seconds", None), ("options", "max_wall_clock_seconds", 1e-3),
]

#: Switches that are gone, as documents written while they existed carried
#: them: (jobspec section, key, value).  Neither the constructors nor a v2
#: document take them.
RETIRED_KEYS = [
    ("spec", "interpolation", "cubic_bspline"), ("spec", "normalize", True),
    ("options", "forcing", "quadratic"), ("options", "constant_forcing", 0.1),
    ("options", "preconditioner", "inverse_regularization"),
    ("options", "preconditioner", "none"),
]


class TestBadSolverSettings:
    @pytest.mark.parametrize("section, name, value", BAD_SETTINGS)
    def test_rejected_at_every_boundary(self, tmp_path, section, name, value):
        """Construction (of the solver, of a Python-submitted jobspec), the
        jobspec decoder and ``POST /jobs`` all name the field, before any
        transform runs or anything is journaled."""
        document = _registration_document()
        before = _transforms()
        with pytest.raises(ValueError, match=name):
            if section == "spec":
                RegistrationSolver(**{name: value})
            else:
                SolverOptions(**{name: value})
        if section == "spec":
            images = np.zeros((2, 8, 8, 8))
            with pytest.raises(ValueError, match=name):
                RegistrationJobSpec(template=images[0], reference=images[1], **{name: value})
        fields = document["spec"] if section == "spec" else document["spec"]["options"]
        fields[name] = value
        with pytest.raises(MalformedSpecError, match=name):
            spec_from_dict(json.loads(json.dumps(document)))
        status, doc = _post_rejected(tmp_path, document)
        assert status == 400 and name in doc["error"]
        assert _transforms() == before

    @pytest.mark.parametrize("section, name, value", EDGE_SETTINGS)
    def test_edge_accepted_at_every_boundary(self, section, name, value):
        """The checks are tight: each least usable setting constructs and
        decodes to itself."""
        document = _registration_document()
        if section == "spec":
            assert getattr(RegistrationSolver(**{name: value}), name) == value
        else:
            assert getattr(SolverOptions(**{name: value}), name) == value
        fields = document["spec"] if section == "spec" else document["spec"]["options"]
        fields[name] = value
        spec = spec_from_dict(json.loads(json.dumps(document)))
        assert getattr(spec if section == "spec" else spec.options, name) == value

    @pytest.mark.parametrize("section, name, value", RETIRED_KEYS)
    def test_retired_key_rejected_at_every_boundary(self, tmp_path, section, name, value):
        """The constructors no longer take the key and a v2 document that
        carries it, at any value, is rejected naming it, before any
        transform runs or anything is journaled."""
        document = _registration_document()
        before = _transforms()
        with pytest.raises(TypeError, match=name):
            if section == "spec":
                RegistrationSolver(**{name: value})
            else:
                SolverOptions(**{name: value})
        fields = document["spec"] if section == "spec" else document["spec"]["options"]
        fields[name] = value
        with pytest.raises(MalformedSpecError, match=name):
            spec_from_dict(json.loads(json.dumps(document)))
        status, doc = _post_rejected(tmp_path, document)
        assert status == 400 and name in doc["error"]
        assert _transforms() == before


#: Settings of the wrong type, as a client might send them: (jobspec section,
#: field, value).  None of them is parsed or rounded into a usable one.
MISTYPED_SETTINGS = [
    ("spec", "incompressible", "false"), ("spec", "incompressible", 1),
    ("spec", "gauss_newton", "true"), ("spec", "gauss_newton", 0),
    ("spec", "beta", "0.01"), ("spec", "beta", True),
    ("spec", "smooth_sigma", "1"), ("spec", "smooth_sigma", False),
    ("spec", "num_time_steps", 4.7), ("spec", "num_time_steps", 4.5),
    ("spec", "num_time_steps", "4"),
    ("options", "verbose", "false"), ("options", "verbose", 0),
    ("options", "gradient_tolerance", "1e-2"),
    ("options", "absolute_gradient_tolerance", True),
    ("options", "forcing_max", "0.5"), ("options", "max_wall_clock_seconds", "60"),
    ("options", "max_newton_iterations", 2.5), ("options", "max_newton_iterations", True),
    ("options", "max_krylov_iterations", 2.5), ("options", "max_krylov_iterations", True),
]


class TestMistypedSettings:
    @pytest.mark.parametrize("section, name, value", MISTYPED_SETTINGS)
    def test_rejected_with_one_message_at_every_boundary(
        self, tmp_path, section, name, value
    ):
        """The constructor, ``register()`` and ``POST /jobs`` raise one
        ``TypeError`` message naming the field, before any transform runs or
        anything is journaled."""
        document = _registration_document()
        images = np.zeros((2, 8, 8, 8))
        before = _transforms()
        with pytest.raises(TypeError, match=name) as built:
            if section == "spec":
                RegistrationJobSpec(template=images[0], reference=images[1], **{name: value})
            else:
                SolverOptions(**{name: value})
        if section == "spec":
            with pytest.raises(TypeError) as registered:
                register(images[0], images[1], **{name: value})
            assert str(registered.value) == str(built.value)
        fields = document["spec"] if section == "spec" else document["spec"]["options"]
        fields[name] = value
        status, doc = _post_rejected(tmp_path, document)
        assert (status, doc["error"]) == (400, str(built.value))
        assert _transforms() == before

    @pytest.mark.parametrize(
        "name, value", [("num_time_steps", 4.5), ("num_tasks", 1.9), ("num_tasks", "2")]
    )
    def test_transport_counts_are_integers(self, tmp_path, name, value):
        grid = make_grid(8)
        spec = _transport_spec(grid)
        with pytest.raises(TypeError, match=name) as built:
            TransportJobSpec(velocity=spec.velocity, moving=spec.moving, **{name: value})
        document = spec_to_dict(spec)
        document["spec"][name] = value
        status, doc = _post_rejected(tmp_path, document)
        assert (status, doc["error"]) == (400, str(built.value))


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
