"""Durable job journal: spec round-trips, replay, torn tails, compaction."""

from __future__ import annotations

import dataclasses
import inspect
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core.optim.gauss_newton import SolverOptions
from repro.core.registration import RegistrationSolver, register
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
from repro.service.workers import RegistrationService

from tests.fixtures import (
    BAD_IMAGE_SHAPES,
    make_grid,
    smooth_scalar_field,
    smooth_velocity_field,
    with_images,
)


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

    @pytest.mark.parametrize("kind", ["register", "transport"])
    def test_missing_keys_take_the_constructor_defaults(self, kind):
        spec = _registration_spec() if kind == "register" else _transport_spec()
        arrays = ("template", "reference") if kind == "register" else ("velocity", "moving")
        doc = spec_to_dict(spec)
        doc["spec"] = {name: doc["spec"][name] for name in arrays}
        del doc["job_class"]
        back = spec_from_dict(doc)
        for field in dataclasses.fields(back):
            if field.name not in arrays:
                assert getattr(back, field.name) == field.default, field.name

    def test_cancel_token_is_never_serialized(self):
        from repro.runtime.cancellation import CancelToken

        spec = _registration_spec(
            options=SolverOptions(cancel_token=CancelToken())
        )
        doc = spec_to_dict(spec)
        assert "cancel_token" not in doc["spec"]["options"]
        assert spec_from_dict(doc).options.cancel_token is None


#: The settings fields of a registration spec: ``register()``'s parameters.
SPEC_SETTINGS = [
    field for field in dataclasses.fields(RegistrationJobSpec) if field.name != "job_class"
]


class TestSpecFieldsAreRegisterParameters:
    """A registration spec is the arguments of :func:`repro.register`: the
    one copy of the settings and defaults besides ``RegistrationSolver``'s,
    pinned here so the three cannot drift apart."""

    def test_same_names(self):
        parameters = set(inspect.signature(register).parameters)
        assert {field.name for field in SPEC_SETTINGS} == parameters

    @pytest.mark.parametrize("field", SPEC_SETTINGS, ids=lambda field: field.name)
    def test_same_default(self, field):
        parameter = inspect.signature(register).parameters[field.name]
        required = field.default is dataclasses.MISSING
        assert (inspect.Parameter.empty if required else field.default) == parameter.default
        solver_fields = {f.name: f for f in dataclasses.fields(RegistrationSolver)}
        if field.name in solver_fields:
            solver_default = solver_fields[field.name]
            if solver_default.default is dataclasses.MISSING:
                solver_default = solver_default.default_factory()
            else:
                solver_default = solver_default.default
            expected = SolverOptions() if field.name == "options" else field.default
            assert solver_default == expected


def _poked(name, value):
    """Factory of a copy of a spec's *name* array with one entry set to *value*."""

    def make(spec):
        array = getattr(spec, name).copy()
        array.flat[7] = value
        return array

    return make


#: One bad value per rule of a valid job: (spec kind, field, the value or a
#: factory of it from a valid spec).
BAD_JOB_FIELDS = [
    pytest.param("register", "regularization", "h9", id="regularization"),
    pytest.param("register", "optimizer", "bfgs", id="optimizer"),
    pytest.param("register", "num_time_steps", 0, id="register-nt"),
    pytest.param("register", "beta", 0.0, id="beta-zero"),
    pytest.param("register", "beta", float("nan"), id="beta-nan"),
    pytest.param("register", "smooth_sigma", -1.0, id="sigma-negative"),
    pytest.param("register", "smooth_sigma", float("inf"), id="sigma-inf"),
    pytest.param("register", "job_class", "", id="register-job-class"),
    pytest.param("register", "grid", make_grid(10), id="register-grid"),
    pytest.param("register", "template", _poked("template", np.nan), id="template-nan"),
    pytest.param("register", "reference", _poked("reference", np.inf), id="reference-inf"),
    pytest.param(
        "register", "template", lambda spec: spec.template.astype(np.complex128),
        id="template-complex",
    ),
    pytest.param(
        "register", "reference", lambda spec: np.zeros((8, 8, 10)), id="reference-shape"
    ),
    pytest.param("transport", "velocity", _poked("velocity", np.nan), id="velocity-nan"),
    pytest.param("transport", "moving", _poked("moving", -np.inf), id="moving-inf"),
    pytest.param(
        "transport", "moving", lambda spec: spec.moving.astype(np.complex128),
        id="moving-complex",
    ),
    pytest.param("transport", "velocity", lambda spec: spec.velocity[:2], id="velocity-shape"),
    pytest.param("transport", "num_time_steps", 0, id="transport-nt"),
    pytest.param("transport", "num_tasks", 0, id="num-tasks"),
    pytest.param("transport", "num_tasks", 7, id="thin-pencil"),
    pytest.param("transport", "grid", make_grid(10), id="transport-grid"),
    pytest.param("transport", "job_class", "", id="transport-job-class"),
]


class TestMalformedSpecs:
    @pytest.mark.parametrize("kind, name, bad", BAD_JOB_FIELDS)
    def test_constructor_and_decoder_agree(self, kind, name, bad):
        """One definition of a valid job: a Python-built spec raises at
        construction, and its document gets the same message from the
        decoder."""
        spec = _registration_spec() if kind == "register" else _transport_spec()
        value = bad(spec) if callable(bad) else bad
        with pytest.raises((TypeError, ValueError)) as built:
            dataclasses.replace(spec, **{name: value})
        assert name in str(built.value)
        setattr(spec, name, value)
        with pytest.raises(MalformedSpecError) as decoded:
            spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
        assert str(decoded.value) == str(built.value)

    @pytest.mark.parametrize("options", [{"max_newton_iterations": 2}, "fast"])
    def test_options_that_are_not_solver_options_raise_at_construction(self, options):
        """Not in the worker, where the job would fail without a terminal record."""
        with pytest.raises(TypeError, match="options must be a SolverOptions"):
            _registration_spec(options=options)

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

    def test_registration_shape_mismatch_raises_malformed(self):
        doc = with_images(
            spec_to_dict(_registration_spec()),
            smooth_scalar_field(make_grid(8), seed=1),
            smooth_scalar_field(make_grid(10), seed=2),
        )
        with pytest.raises(MalformedSpecError, match="template and reference must share"):
            spec_from_dict(doc)

    @pytest.mark.parametrize("shape", BAD_IMAGE_SHAPES, ids=str)
    def test_images_no_grid_holds_raise_malformed(self, shape):
        """Rejected on decode, as ``Grid`` would reject them in the worker."""
        images = np.zeros((2, *shape))
        with pytest.raises(ValueError, match="template shape"):
            _registration_spec(template=images[0], reference=images[1])
        doc = with_images(spec_to_dict(_registration_spec()), images[0], images[1])
        with pytest.raises(MalformedSpecError, match="template shape"):
            spec_from_dict(json.loads(json.dumps(doc)))

    @pytest.mark.parametrize(
        "velocity_shape",
        [(2, 8, 8, 8), (3, 8, 8, 10), (8, 8, 8)],
        ids=["components", "grid", "rank"],
    )
    def test_transport_velocity_shape_mismatch_raises_malformed(self, velocity_shape):
        spec = _transport_spec()
        message = r"velocity must have shape \(3, 8, 8, 8\)"
        with pytest.raises(ValueError, match=message):
            TransportJobSpec(velocity=np.zeros(velocity_shape), moving=spec.moving)
        spec.velocity = np.zeros(velocity_shape)
        with pytest.raises(MalformedSpecError, match=message):
            spec_from_dict(spec_to_dict(spec))

    @pytest.mark.parametrize(
        "kind, section, key, value",
        [
            ("register", "spec", "interpolation", "cubic_bspline"),
            ("register", "spec", "normalize", True),
            ("register", "options", "preconditioner", "inverse_regularization"),
            ("register", "options", "forcing", "quadratic"),
            ("register", "options", "constant_forcing", 0.1),
            ("transport", "spec", "interpolation", "catmull_rom"),
        ],
    )
    def test_keys_the_spec_does_not_have_raise_malformed(self, kind, section, key, value):
        """A v2 document carries exactly the spec's fields: a key a retired
        switch left behind is named, not decoded or dropped."""
        spec = _registration_spec() if kind == "register" else _transport_spec()
        doc = spec_to_dict(spec)
        (doc["spec"] if section == "spec" else doc["spec"]["options"])[key] = value
        with pytest.raises(MalformedSpecError, match=key):
            spec_from_dict(json.loads(json.dumps(doc)))

    def test_v1_document_raises_malformed(self):
        doc = spec_to_dict(_registration_spec())
        doc["schema_version"] = 1
        with pytest.raises(MalformedSpecError, match="unsupported jobspec schema version 1"):
            spec_from_dict(doc)

    @pytest.mark.parametrize(
        "dtype", [np.complex128, np.bool_, np.dtype("U4")], ids=["complex", "bool", "string"]
    )
    def test_arrays_neither_real_float_nor_integer_raise_malformed(self, dtype):
        spec = _registration_spec()
        spec.template = spec.template.astype(dtype)
        with pytest.raises(MalformedSpecError, match="template must hold real"):
            spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))

    @pytest.mark.parametrize("num_tasks", [7, 32, 64])
    def test_pencils_thinner_than_the_ghost_width_raise_malformed(self, num_tasks):
        """On 8^3, 7 / 32 / 64 tasks leave a 1-point pencil: rejected on decode."""
        doc = spec_to_dict(_transport_spec())
        doc["spec"]["num_tasks"] = num_tasks
        with pytest.raises(MalformedSpecError, match=f"num_tasks={num_tasks} splits"):
            spec_from_dict(doc)

    @pytest.mark.parametrize("num_tasks", [9, 16])
    def test_pencils_as_wide_as_the_ghost_width_decode(self, num_tasks):
        doc = spec_to_dict(_transport_spec())
        doc["spec"]["num_tasks"] = num_tasks
        assert spec_from_dict(doc).num_tasks == num_tasks

    def test_integer_arrays_are_accepted(self):
        spec = _transport_spec()
        spec.moving = np.arange(spec.moving.size, dtype=np.int16).reshape(spec.moving.shape)
        back = spec_from_dict(spec_to_dict(spec))
        np.testing.assert_array_equal(back.moving, spec.moving)

    def test_non_dict_raises(self):
        with pytest.raises(MalformedSpecError, match="JSON object"):
            spec_from_dict([1, 2, 3])

    def test_schema_constants_in_document(self):
        doc = spec_to_dict(_transport_spec())
        assert doc["schema"] == SPEC_SCHEMA
        assert doc["schema_version"] == SPEC_SCHEMA_VERSION == 2

    def test_encoded_options_are_the_solver_options(self):
        doc = spec_to_dict(_registration_spec())
        names = {field.name for field in dataclasses.fields(SolverOptions)}
        assert set(doc["spec"]["options"]) == names - {"cancel_token"}
        assert "preconditioner" not in doc["spec"]["options"]


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
        path = tmp_path / "journal.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": "repro.service-journal", "event": "subm')
        assert [e.job_id for e in JobJournal(tmp_path).replay()] == [safe.job_id]

    def test_foreign_schema_lines_are_skipped(self, tmp_path):
        journal = JobJournal(tmp_path)
        job = _job(_transport_spec())
        journal.record_submitted(job)
        journal.close()
        path = tmp_path / "journal.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"schema": "someone-else", "event": "x"}) + "\n")
        assert [e.job_id for e in JobJournal(tmp_path).replay()] == [job.job_id]

    def test_records_of_one_job_are_equally_long(self, tmp_path):
        """``at`` is integer nanoseconds, so a record's length does not
        depend on the clock and the journal's bytes are an exact count."""
        lines = []
        for name in ("first", "second"):
            journal = JobJournal(tmp_path / name)
            job = _job(_transport_spec(), job_id="job-1")
            journal.record_submitted(job)
            job._complete(None)
            journal.record_terminal(job)
            journal.close()
            lines.append(journal.path.read_text(encoding="utf-8").splitlines())
        for first, second in zip(*lines):
            assert isinstance(json.loads(first)["at"], int)
            assert len(first) == len(second)

    def test_a_float_at_still_replays(self, tmp_path):
        """Journals written before ``at`` was an integer replay as before."""
        journal = JobJournal(tmp_path)
        pending, done = _job(_transport_spec(seed=1)), _job(_transport_spec(seed=2))
        for job in (pending, done):
            journal.record_submitted(job)
        done._complete(None)
        journal.record_terminal(done)
        journal.close()
        records = [json.loads(line) for line in journal.path.read_text().splitlines()]
        for record in records:
            record["at"] = 1760000000.1234567
        journal.path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
        (back,) = JobJournal(tmp_path).replay()
        assert back.job_id == pending.job_id
        np.testing.assert_array_equal(back.spec().velocity, pending.spec.velocity)

    def test_every_commit_is_fsynced(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd))
        journal = JobJournal(tmp_path)
        job = _job(_transport_spec())
        journal.record_submitted(job)
        assert len(synced) == 1
        job._complete(None)
        journal.record_terminal(job)
        assert len(synced) == 2
        journal.close()
        with pytest.raises(TypeError):
            JobJournal(tmp_path, fsync_on_commit=False)


def _journal_of_older_version(directory):
    """A journal as a version writing jobspec v1 left it: one pending job."""
    journal = JobJournal(directory)
    journal.record_submitted(_job(_registration_spec()))
    journal.close()
    record = json.loads(journal.path.read_text(encoding="utf-8"))
    record["spec"]["schema_version"] = 1
    journal.path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return journal.path


class TestOlderJournals:
    """A journal an older version wrote stops the start, naming the file and
    the version, and stays as it was: no acknowledged job is dropped."""

    def test_v1_spec_refuses_the_start(self, tmp_path):
        path = _journal_of_older_version(tmp_path)
        before = path.read_bytes()
        with pytest.raises(ValueError, match=r"journal\.jsonl: job .* jobspec v1 spec"):
            RegistrationService(num_workers=1, journal_dir=tmp_path)
        assert path.read_bytes() == before

    def test_v1_spec_of_a_finished_job_refuses_the_start(self, tmp_path):
        path = _journal_of_older_version(tmp_path)
        job_id = json.loads(path.read_text(encoding="utf-8"))["job_id"]
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(JobJournal(tmp_path)._record("done", job_id)) + "\n")
        with pytest.raises(ValueError, match="jobspec v1 spec"):
            JobJournal(tmp_path).compact()

    def test_segment_file_refuses_the_start(self, tmp_path):
        writer = JobJournal(tmp_path)
        writer.record_submitted(_job(_transport_spec()))
        writer.close()
        segment = tmp_path / "segment-00000001.jsonl"
        writer.path.rename(segment)
        with pytest.raises(ValueError, match=r"segment-00000001\.jsonl is a segment file.*v1"):
            RegistrationService(num_workers=1, journal_dir=tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == [segment.name]

    @pytest.mark.parametrize("older", ["v1", "segment"])
    def test_repro_serve_prints_the_error_and_exits_2(self, tmp_path, capsys, older):
        from repro.cli import serve_main

        if older == "v1":
            _journal_of_older_version(tmp_path)
        else:
            (tmp_path / "segment-00000003.jsonl").write_text("", encoding="utf-8")
        argv = ["--synthetic", "8", "--subjects", "1", "--max-newton", "1"]
        assert serve_main([*argv, "--journal", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: journal ")
        assert ("jobspec v1 spec" if older == "v1" else "segment-00000003.jsonl") in err


class TestCompaction:
    def test_compact_drops_finished_records_keeps_pending(self, tmp_path):
        journal = JobJournal(tmp_path)
        jobs = [_job(_transport_spec(seed=s)) for s in range(4)]
        for job in jobs:
            journal.record_submitted(job)
        for job in jobs[:3]:
            job._complete(None)
            journal.record_terminal(job)
        bytes_before = journal.stats()["bytes"]
        pending = journal.compact()
        assert [e.job_id for e in pending] == [jobs[3].job_id]
        assert [p.name for p in tmp_path.iterdir()] == ["journal.jsonl"]
        assert journal.stats()["bytes"] < bytes_before
        # the compacted journal replays identically (second-crash safety)
        assert [e.job_id for e in JobJournal(tmp_path).replay()] == [jobs[3].job_id]

    def test_compact_empty_journal(self, tmp_path):
        assert JobJournal(tmp_path).compact() == []

    def test_append_after_compact_survives_replay(self, tmp_path):
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
        assert set(stats) == {"directory", "bytes"}
        assert stats["bytes"] == (tmp_path / "journal.jsonl").stat().st_size > 0

    def test_segment_size_is_not_an_option(self, tmp_path):
        with pytest.raises(TypeError):
            JobJournal(tmp_path, max_segment_bytes=1024)


#: A journal the jobspec v2 codec wrote before the spec documents were built
#: from the spec classes' fields: two registrations (every setting at its
#: default; every setting changed) and a transport job, none finished.
V2_JOURNAL = Path(__file__).parent / "data" / "jobspec_v2_journal.jsonl"


def _v2_journal_specs():
    """The specs the journal in :data:`V2_JOURNAL` was written from."""
    grid = make_grid(8)
    return [
        RegistrationJobSpec(
            template=smooth_scalar_field(grid, seed=1),
            reference=smooth_scalar_field(grid, seed=2),
        ),
        RegistrationJobSpec(
            template=smooth_scalar_field(grid, seed=3),
            reference=smooth_scalar_field(grid, seed=4),
            beta=3e-2,
            regularization="h2",
            incompressible=True,
            num_time_steps=3,
            gauss_newton=False,
            smooth_sigma=0.5,
            options=SolverOptions(max_newton_iterations=2, gradient_tolerance=5e-2),
            grid=grid,
            job_class=JOB_CLASS_ATLAS,
        ),
        TransportJobSpec(
            velocity=smooth_velocity_field(grid, seed=5),
            moving=smooth_scalar_field(grid, seed=45),
            num_time_steps=3,
            num_tasks=2,
            grid=grid,
        ),
    ]


class TestJournalOfTheV2Codec:
    def test_documents_are_what_spec_to_dict_writes(self, tmp_path):
        """The field-driven codec writes the v2 documents key for key."""
        shutil.copy(V2_JOURNAL, tmp_path / "journal.jsonl")
        pending = JobJournal(tmp_path).replay()
        assert [entry.job_id for entry in pending] == ["1-00000001", "2-00000002", "3-00000003"]
        for entry, spec in zip(pending, _v2_journal_specs()):
            assert json.dumps(spec_to_dict(spec), sort_keys=True) == json.dumps(
                entry.spec_document, sort_keys=True
            )
            assert list(spec_to_dict(spec)["spec"]) == [
                field.name for field in dataclasses.fields(spec) if field.name != "job_class"
            ]

    def test_replayed_jobs_solve_bitwise(self, tmp_path):
        """A restarted service re-queues the journal's jobs and computes what
        the same specs built in Python compute."""
        shutil.copy(V2_JOURNAL, tmp_path / "journal.jsonl")
        with RegistrationService(num_workers=1, journal_dir=tmp_path) as service:
            replayed = service.gather(service.recovered_jobs, timeout=120)
        with RegistrationService(num_workers=1) as service:
            jobs = [
                service.submit_registration(spec)
                if spec.kind == "register"
                else service.submit_transport(spec)
                for spec in _v2_journal_specs()
            ]
            direct = service.gather(jobs, timeout=120)
        assert len(replayed) == len(direct) == 3
        for back, fresh in zip(replayed[:2], direct[:2]):
            np.testing.assert_array_equal(back.velocity, fresh.velocity)
            np.testing.assert_array_equal(back.deformed_template, fresh.deformed_template)
        np.testing.assert_array_equal(replayed[2], direct[2])
        assert JobJournal(tmp_path).replay() == []
