"""Durable job journal: spec round-trips, replay, torn tails, compaction."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.optim.gauss_newton import SolverOptions
from repro.service.jobs import (
    JOB_CLASS_ATLAS,
    Job,
    RegistrationJobSpec,
    TransportJobSpec,
)
from repro.service.journal import (
    SPEC_SCHEMA,
    SPEC_SCHEMA_VERSION,
    JobJournal,
    MalformedSpecError,
    spec_from_dict,
    spec_to_dict,
)

from tests.fixtures import make_grid, smooth_scalar_field, smooth_velocity_field


class _NullService:
    def _cancel(self, job, force=False):
        return False


def _registration_spec(**overrides):
    grid = make_grid(8)
    defaults = dict(
        template=smooth_scalar_field(grid, seed=1),
        reference=smooth_scalar_field(grid, seed=2),
        beta=3e-2,
        regularization="h2",
        incompressible=True,
        num_time_steps=3,
        smooth_sigma=0.5,
        options=SolverOptions(max_newton_iterations=2, gradient_tolerance=5e-2),
        grid=grid,
        job_class=JOB_CLASS_ATLAS,
    )
    defaults.update(overrides)
    return RegistrationJobSpec(**defaults)


def _transport_spec(seed=5):
    grid = make_grid(8)
    return TransportJobSpec(
        velocity=smooth_velocity_field(grid, seed=seed),
        moving=smooth_scalar_field(grid, seed=seed + 40),
        num_time_steps=3,
        num_tasks=2,
        grid=grid,
    )


def _job(spec, job_id=None):
    return Job(spec, _NullService(), job_id=job_id)


class TestSpecRoundTrip:
    def test_registration_spec_round_trips_bitwise(self):
        spec = _registration_spec()
        doc = json.loads(json.dumps(spec_to_dict(spec)))  # force a JSON trip
        back = spec_from_dict(doc)
        np.testing.assert_array_equal(spec.template, back.template)
        np.testing.assert_array_equal(spec.reference, back.reference)
        assert back.template.dtype == spec.template.dtype
        assert back.beta == spec.beta
        assert back.regularization == "h2"
        assert back.incompressible is True
        assert back.num_time_steps == 3
        assert back.job_class == JOB_CLASS_ATLAS
        assert back.grid == spec.grid
        assert back.options.max_newton_iterations == 2
        assert back.options.gradient_tolerance == 5e-2

    def test_transport_spec_round_trips_bitwise(self):
        spec = _transport_spec()
        back = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
        np.testing.assert_array_equal(spec.velocity, back.velocity)
        np.testing.assert_array_equal(spec.moving, back.moving)
        assert back.num_tasks == 2
        assert back.grid == spec.grid

    def test_none_options_and_grid_survive(self):
        spec = _registration_spec(options=None, grid=None)
        back = spec_from_dict(spec_to_dict(spec))
        assert back.options is None
        assert back.grid is None

    def test_line_search_settings_survive(self):
        from repro.core.optim.line_search import ArmijoLineSearch

        spec = _registration_spec(
            options=SolverOptions(line_search=ArmijoLineSearch(max_evaluations=3))
        )
        back = spec_from_dict(spec_to_dict(spec))
        assert back.options.line_search.max_evaluations == 3

    def test_cancel_token_is_never_serialized(self):
        from repro.runtime.cancellation import CancelToken

        spec = _registration_spec(
            options=SolverOptions(cancel_token=CancelToken())
        )
        doc = spec_to_dict(spec)
        assert "cancel_token" not in doc["spec"]["options"]
        assert spec_from_dict(doc).options.cancel_token is None


class TestMalformedSpecs:
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: doc.update(schema="other-schema"),
            lambda doc: doc.update(schema_version=99),
            lambda doc: doc.update(kind="teleport"),
            lambda doc: doc.update(spec="not-an-object"),
            lambda doc: doc.update(job_class=""),
            lambda doc: doc["spec"].update(velocity={"__ndarray__": True}),
            lambda doc: doc["spec"]["velocity"].update(data="@@not-base64@@"),
            lambda doc: doc["spec"]["velocity"].update(shape=[1, 1]),
        ],
        ids=[
            "schema",
            "version",
            "kind",
            "spec-not-object",
            "empty-job-class",
            "ndarray-missing-fields",
            "bad-base64",
            "byte-length-mismatch",
        ],
    )
    def test_bad_documents_raise_malformed(self, mutate):
        doc = spec_to_dict(_transport_spec())
        mutate(doc)
        with pytest.raises(MalformedSpecError):
            spec_from_dict(doc)

    @pytest.mark.parametrize(
        "kind, name, value",
        [
            ("register", "template", np.nan),
            ("register", "reference", np.inf),
            ("transport", "velocity", -np.inf),
            ("transport", "moving", np.nan),
        ],
    )
    def test_non_finite_arrays_raise_malformed(self, kind, name, value):
        spec = _registration_spec() if kind == "register" else _transport_spec()
        getattr(spec, name).flat[7] = value
        doc = json.loads(json.dumps(spec_to_dict(spec), allow_nan=False))
        with pytest.raises(MalformedSpecError, match=f"{name} has 1 non-finite value"):
            spec_from_dict(doc)

    def test_registration_shape_mismatch_raises_malformed(self):
        spec = _registration_spec(reference=smooth_scalar_field(make_grid(10), seed=2))
        with pytest.raises(MalformedSpecError, match="template and reference must share"):
            spec_from_dict(spec_to_dict(spec))

    @pytest.mark.parametrize(
        "velocity_shape",
        [(2, 8, 8, 8), (3, 8, 8, 10), (8, 8, 8)],
        ids=["components", "grid", "rank"],
    )
    def test_transport_velocity_shape_mismatch_raises_malformed(self, velocity_shape):
        spec = TransportJobSpec(
            velocity=np.zeros(velocity_shape), moving=_transport_spec().moving
        )
        with pytest.raises(MalformedSpecError, match=r"velocity must have shape \(3, 8, 8, 8\)"):
            spec_from_dict(spec_to_dict(spec))

    def test_non_dict_raises(self):
        with pytest.raises(MalformedSpecError, match="JSON object"):
            spec_from_dict([1, 2, 3])

    def test_schema_constants_in_document(self):
        doc = spec_to_dict(_transport_spec())
        assert doc["schema"] == SPEC_SCHEMA
        assert doc["schema_version"] == SPEC_SCHEMA_VERSION


class TestJournalReplay:
    def test_submitted_without_terminal_is_pending(self, tmp_path):
        journal = JobJournal(tmp_path)
        job = _job(_transport_spec())
        journal.record_submitted(job)
        pending = journal.replay()
        assert [entry.job_id for entry in pending] == [job.job_id]
        back = pending[0].spec()
        np.testing.assert_array_equal(back.velocity, job.spec.velocity)

    def test_terminal_records_clear_pending(self, tmp_path):
        journal = JobJournal(tmp_path)
        done, failed, cancelled, live = (_job(_transport_spec(seed=s)) for s in range(4))
        for job in (done, failed, cancelled, live):
            journal.record_submitted(job)
        done._complete(None)
        failed._fail("boom", "tb")
        cancelled._cancelled()
        for job in (done, failed, cancelled):
            journal.record_terminal(job)
        assert [entry.job_id for entry in journal.replay()] == [live.job_id]

    def test_replay_preserves_submission_order(self, tmp_path):
        journal = JobJournal(tmp_path)
        jobs = [_job(_transport_spec(seed=s)) for s in range(4)]
        for job in jobs:
            journal.record_submitted(job)
        jobs[1]._complete(None)
        journal.record_terminal(jobs[1])
        pending = journal.replay()
        assert [e.job_id for e in pending] == [jobs[0].job_id, jobs[2].job_id, jobs[3].job_id]

    def test_torn_final_line_is_skipped(self, tmp_path):
        journal = JobJournal(tmp_path)
        safe = _job(_transport_spec(seed=1))
        journal.record_submitted(safe)
        journal.close()
        # simulate a crash mid-append: a torn, newline-less final record
        (segment,) = sorted(tmp_path.glob("segment-*.jsonl"))
        with open(segment, "a", encoding="utf-8") as handle:
            handle.write('{"schema": "repro.service-journal", "event": "subm')
        assert [e.job_id for e in JobJournal(tmp_path).replay()] == [safe.job_id]

    def test_foreign_schema_lines_are_skipped(self, tmp_path):
        journal = JobJournal(tmp_path)
        job = _job(_transport_spec())
        journal.record_submitted(job)
        journal.close()
        (segment,) = sorted(tmp_path.glob("segment-*.jsonl"))
        with open(segment, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"schema": "someone-else", "event": "x"}) + "\n")
        assert [e.job_id for e in JobJournal(tmp_path).replay()] == [job.job_id]

    def test_unfsynced_journal_still_replays(self, tmp_path):
        journal = JobJournal(tmp_path, fsync_on_commit=False)
        job = _job(_transport_spec())
        journal.record_submitted(job)
        journal.close()
        assert len(JobJournal(tmp_path).replay()) == 1


class TestSegmentsAndCompaction:
    def test_appends_rotate_segments(self, tmp_path):
        journal = JobJournal(tmp_path, max_segment_bytes=1024)
        for seed in range(3):
            journal.record_submitted(_job(_transport_spec(seed=seed)))
        journal.close()
        assert len(list(tmp_path.glob("segment-*.jsonl"))) >= 2
        assert len(JobJournal(tmp_path).replay()) == 3

    def test_compact_drops_dead_segments_keeps_pending(self, tmp_path):
        journal = JobJournal(tmp_path, max_segment_bytes=1024)
        jobs = [_job(_transport_spec(seed=s)) for s in range(4)]
        for job in jobs:
            journal.record_submitted(job)
        for job in jobs[:3]:
            job._complete(None)
            journal.record_terminal(job)
        bytes_before = sum(p.stat().st_size for p in tmp_path.glob("segment-*.jsonl"))
        pending = journal.compact()
        assert [e.job_id for e in pending] == [jobs[3].job_id]
        segments = list(tmp_path.glob("segment-*.jsonl"))
        assert len(segments) == 1
        assert segments[0].stat().st_size < bytes_before
        # the compacted journal replays identically (second-crash safety)
        assert [e.job_id for e in JobJournal(tmp_path).replay()] == [jobs[3].job_id]

    def test_compact_empty_journal(self, tmp_path):
        assert JobJournal(tmp_path).compact() == []

    def test_append_after_compact_lands_in_fresh_segment(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.record_submitted(_job(_transport_spec(seed=1)))
        journal.compact()
        late = _job(_transport_spec(seed=2))
        journal.record_submitted(late)
        journal.close()
        ids = {e.job_id for e in JobJournal(tmp_path).replay()}
        assert late.job_id in ids and len(ids) == 2

    def test_stats_shape(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.record_submitted(_job(_transport_spec()))
        stats = journal.stats()
        assert stats["segments"] == 1
        assert stats["bytes"] > 0
        assert stats["fsync_on_commit"] is True

    def test_rejects_non_positive_segment_size(self, tmp_path):
        with pytest.raises(ValueError, match="positive"):
            JobJournal(tmp_path, max_segment_bytes=0)
