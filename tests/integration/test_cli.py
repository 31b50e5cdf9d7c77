"""Tests for the command-line interface."""

import argparse

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.data.io import save_problem
from repro.data.synthetic import synthetic_registration_problem
from repro.runtime.plan_pool import configure_plan_pool
from repro.service import RegistrationService

#: Destinations of the flags ``register`` and ``serve`` both declare.
SOLVER_FLAGS = {
    "output", "beta", "regularization", "incompressible", "nt", "gtol", "max_newton",
    "max_krylov",
}

class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_register_requires_a_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["register"])

    def test_register_sources_are_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["register", "--synthetic", "8", "--brain", "8"])

    def test_defaults(self):
        args = build_parser().parse_args(["register", "--synthetic", "16"])
        assert args.beta == pytest.approx(1e-2)
        assert args.nt == 4
        assert args.optimizer == "gauss_newton"
        for removed in ("fft_backend", "interp_backend", "workers"):
            assert not hasattr(args, removed)

    def test_runtime_flags(self):
        args = build_parser().parse_args(
            ["register", "--synthetic", "16", "--plan-pool-bytes", "1000000"]
        )
        assert args.plan_pool_bytes == 1000000
        defaults = build_parser().parse_args(["register", "--synthetic", "16"])
        assert defaults.plan_pool_bytes is None

    @pytest.mark.parametrize("command", ["register", "serve"])
    @pytest.mark.parametrize("flag", [["--fft-backend", "scipy"], ["--workers", "2"]])
    def test_removed_engine_and_worker_flags_are_rejected(self, command, flag):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "--synthetic", "8", *flag])
        assert excinfo.value.code == 2


    def test_register_and_serve_share_the_solver_flags(self):
        subparsers = next(
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )

        def solver_flags(command):
            return {
                tuple(action.option_strings): (action.dest, action.default, action.choices)
                for action in subparsers.choices[command]._actions
                if action.dest in SOLVER_FLAGS
            }

        register = solver_flags("register")
        assert {dest for dest, _, _ in register.values()} == SOLVER_FLAGS
        assert register == solver_flags("serve")


class TestRegisterCommand:
    def test_synthetic_registration_writes_output(self, tmp_path, capsys):
        out = tmp_path / "result.npz"
        code = main(
            [
                "register",
                "--synthetic", "12",
                "--beta", "1e-2",
                "--max-newton", "4",
                "--max-krylov", "8",
                "--output", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "Registration summary" in captured
        assert out.exists()
        with np.load(out) as data:
            assert data["velocity"].shape == (3, 12, 12, 12)
            assert data["determinant"].shape == (12, 12, 12)
            assert float(data["residual_after"]) < float(data["residual_before"])

    def test_registration_from_npz_input(self, tmp_path, capsys):
        problem = synthetic_registration_problem(12)
        path = tmp_path / "pair.npz"
        save_problem(path, problem.reference, problem.template, grid=problem.grid)
        code = main(
            ["register", "--input", str(path), "--max-newton", "3", "--max-krylov", "6"]
        )
        assert code == 0
        assert "Registration summary" in capsys.readouterr().out

    def test_stored_and_deflated_inputs_register_alike(self, tmp_path):
        """``--input`` loads either archive variant resident: the outputs
        are bitwise identical."""
        problem = synthetic_registration_problem(8)
        outputs = []
        for compress in (False, True):
            path = save_problem(
                tmp_path / f"pair-{compress}.npz",
                problem.reference,
                problem.template,
                grid=problem.grid,
                compress=compress,
            )
            outputs.append(tmp_path / f"result-{compress}.npz")
            code = main(
                [
                    "register",
                    "--input", str(path),
                    "--max-newton", "1",
                    "--max-krylov", "3",
                    "--output", str(outputs[-1]),
                ]
            )
            assert code == 0
        with np.load(outputs[0]) as stored, np.load(outputs[1]) as deflated:
            assert sorted(stored.files) == sorted(deflated.files)
            for key in stored.files:
                np.testing.assert_array_equal(stored[key], deflated[key])

    def test_plan_pool_flag_sets_the_budget(self, capsys):
        from repro.runtime import configure_plan_pool, get_plan_pool

        try:
            code = main(
                [
                    "--verbose",
                    "register",
                    "--synthetic", "12",
                    "--plan-pool-bytes", "50000000",
                    "--max-newton", "2",
                    "--max-krylov", "4",
                ]
            )
            assert code == 0
            assert get_plan_pool().max_bytes == 50000000
            # a registration touches no pool entry: --verbose prints no pool line
            assert "plan pool:" not in capsys.readouterr().out
        finally:
            configure_plan_pool(None)

    def test_negative_plan_pool_budget_is_a_clean_error(self, capsys):
        code = main(
            ["register", "--synthetic", "12", "--plan-pool-bytes", "-1"]
        )
        assert code == 2
        assert "non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["register", "serve"])
    @pytest.mark.parametrize(
        "flag, value, field",
        [("--beta", "0", "beta"), ("--max-krylov", "0", "max_krylov_iterations")],
    )
    def test_bad_solver_setting_is_a_clean_error_before_loading(
        self, capsys, monkeypatch, command, flag, value, field
    ):
        import repro.cli as cli

        def no_data(args):
            raise AssertionError("images loaded before the settings were checked")

        monkeypatch.setattr(cli, "_load_pair", no_data)
        monkeypatch.setattr(cli, "_load_population", no_data)
        assert main([command, "--synthetic", "8", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err

    @pytest.mark.parametrize(
        "flag, refuse",
        [
            ("--num-workers", lambda: RegistrationService(num_workers=0)),
            ("--max-batch", lambda: RegistrationService(max_batch=0)),
        ],
    )
    def test_a_bad_service_count_is_refused_before_loading(
        self, capsys, monkeypatch, flag, refuse
    ):
        import repro.cli as cli

        def no_data(args):
            raise AssertionError("population loaded before the service counts were checked")

        monkeypatch.setattr(cli, "_load_population", no_data)
        with pytest.raises(ValueError) as excinfo:
            refuse()
        assert main(["serve", "--synthetic", "32", "--subjects", "8", flag, "0"]) == 2
        assert capsys.readouterr().err == f"error: {excinfo.value}\n"

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["register", "--synthetic", "8", "--nt", "0"], "num_time_steps"),
            (["register", "--synthetic", "1"], "shape"),
            (["serve", "--synthetic", "8", "--subjects", "1", "--max-batch", "0"], "max_batch"),
            (["serve", "--synthetic", "8", "--subjects", "1", "--max-batch", "-2"], "max_batch"),
            (["scaling", "--grid", "16", "--tasks", "0"], "num_tasks"),
            (["scaling", "--grid", "0", "--tasks", "4"], "grid_shape"),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else value,
    )
    def test_bad_input_is_a_clean_error(self, capsys, argv, name):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and name in captured.err
        assert "Modeled cost" not in captured.out

    @pytest.mark.parametrize("value", ["512M", "-1"])
    def test_malformed_runtime_env_vars_are_clean_errors(self, capsys, monkeypatch, value):
        from repro.runtime import POOL_BYTES_ENV_VAR, configure_plan_pool

        monkeypatch.setenv(POOL_BYTES_ENV_VAR, value)
        assert main(["register", "--synthetic", "12"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and POOL_BYTES_ENV_VAR in err
        assert "Traceback" not in err
        monkeypatch.delenv(POOL_BYTES_ENV_VAR)
        configure_plan_pool(None)

    #: retired variable -> a value its old parser rejected (or, for the
    #: journal and trace paths, a path no file can be written under)
    RETIRED_VALUES = {
        "REPRO_FFT_BACKEND": "fftw3",
        "REPRO_FFT_WORKERS": "fftw3",
        "REPRO_GRADIENT_CACHE": "maybe",
        "REPRO_HTTP_PORT": "eighty",
        "REPRO_SERVICE_CLASS_WEIGHTS": "x",
        "REPRO_SERVICE_JOURNAL": "/dev/null/journal",
        "REPRO_SERVICE_WORKERS": "many",
        "REPRO_TRACE_OUT": "/dev/null/run.trace.json",
    }

    @pytest.mark.parametrize("retired", sorted(RETIRED_VALUES))
    def test_retired_engine_variables_are_not_read(self, capsys, monkeypatch, retired):
        # a value that once failed validation is now simply ignored
        monkeypatch.setenv(retired, self.RETIRED_VALUES[retired])
        assert main(["register", "--synthetic", "8", "--max-newton", "1", "--trace"]) == 0
        assert retired not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "retired",
        ["REPRO_HTTP_PORT", "REPRO_SERVICE_JOURNAL", "REPRO_SERVICE_WORKERS", "REPRO_TRACE_OUT"],
    )
    def test_serve_reads_no_retired_service_variable(self, capsys, monkeypatch, retired):
        monkeypatch.setenv(retired, self.RETIRED_VALUES[retired])
        argv = ["serve", "--synthetic", "8", "--subjects", "1", "--max-newton", "1", "--trace"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "on 1 workers" in captured.out
        assert retired not in captured.err

    @pytest.mark.parametrize(
        "argv, refuse",
        [
            (["serve", "--synthetic", "8", "--subjects", "1", "--num-workers", "0"],
             lambda: RegistrationService(num_workers=0)),
            (["serve", "--synthetic", "8", "--subjects", "1", "--max-batch", "0"],
             lambda: RegistrationService(max_batch=0)),
            (["register", "--synthetic", "8", "--plan-pool-bytes", "-1"],
             lambda: configure_plan_pool(-1)),
            (["serve", "--synthetic", "8", "--subjects", "1", "--plan-pool-bytes", "-1"],
             lambda: configure_plan_pool(-1)),
        ],
        ids=lambda value: " ".join(value[-2:]) if isinstance(value, list) else "",
    )
    def test_a_bad_count_gets_the_python_callers_message(self, capsys, argv, refuse):
        with pytest.raises(ValueError) as excinfo:
            refuse()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {excinfo.value}\n"

    def test_brain_incompressible_run(self, capsys):
        code = main(
            [
                "register",
                "--brain", "12",
                "--incompressible",
                "--beta", "1e-2",
                "--max-newton", "2",
                "--max-krylov", "6",
            ]
        )
        assert code == 0
        assert "Registration summary" in capsys.readouterr().out


class TestScalingCommand:
    def test_table_output(self, capsys):
        assert main(["scaling", "--table", "I"]) == 0
        out = capsys.readouterr().out
        assert "run #1" in out
        assert "paper" in out and "model" in out

    def test_custom_configuration(self, capsys):
        assert main(["scaling", "--grid", "128", "--tasks", "64", "--machine", "maverick"]) == 0
        out = capsys.readouterr().out
        assert "Modeled cost" in out
        assert "128^3" in out

    def test_missing_arguments_is_an_error(self, capsys):
        assert main(["scaling"]) == 2


class TestServeCommand:
    def _serve_args(self, *extra):
        return [
            "serve",
            "--synthetic", "8",
            "--subjects", "2",
            "--beta", "1e-1",
            "--max-newton", "1",
            "--max-krylov", "3",
            "--num-workers", "2",
            *extra,
        ]

    def test_serve_requires_a_source_or_http(self, capsys):
        # no parse-time failure anymore (--http mode has no population
        # source), but a bare serve still fails fast with a clean error
        assert main(["serve"]) == 2
        assert "--http" in capsys.readouterr().err

    def test_serve_rejects_http_with_a_source(self, capsys):
        assert main(["serve", "--http", "0", "--synthetic", "8"]) == 2
        assert "--http" in capsys.readouterr().err

    def test_serve_rejects_out_of_range_http_port(self, capsys):
        assert main(["serve", "--http", "99999"]) == 2
        assert "65535" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, env, name",
        [
            (["--num-workers", "0"], {}, "num_workers"),
            (["--max-batch", "0"], {}, "max_batch"),
            ([], {"REPRO_TRACE": "maybe"}, "REPRO_TRACE"),
            ([], {"REPRO_PLAN_POOL_BYTES": "512M"}, "REPRO_PLAN_POOL_BYTES"),
        ],
    )
    def test_http_mode_refuses_before_serving(self, tmp_path, flag, env, name):
        """A refused ``--http`` start exits 2 instead of serving forever, and
        opens no journal (a subprocess, so a wrong accept times out)."""
        import os
        import subprocess
        import sys

        journal = tmp_path / "journal"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--http", "0",
             "--journal", str(journal), *flag],
            env={**os.environ, "PYTHONPATH": "src", **env},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2, proc.stdout
        assert proc.stderr.startswith("error: ") and name in proc.stderr
        assert not (journal / "journal.jsonl").exists()

    def test_synthetic_atlas_run(self, tmp_path, capsys):
        out_path = tmp_path / "atlas.npz"
        code = main(self._serve_args("--output", str(out_path)))
        assert code == 0
        out = capsys.readouterr().out
        assert "Atlas registration summary" in out
        assert "plan pool:" in out
        data = np.load(out_path)
        assert data["mean_deformed"].shape == (8, 8, 8)
        assert data["relative_residuals"].shape == (2,)

    def test_serve_writes_job_artifacts(self, tmp_path, capsys):
        art_dir = tmp_path / "artifacts"
        code = main(self._serve_args("--artifacts-dir", str(art_dir)))
        assert code == 0
        artifacts = sorted(art_dir.glob("job-*.json"))
        assert len(artifacts) == 2
        import json

        doc = json.loads(artifacts[0].read_text())
        assert doc["schema"] == "repro.service-job"
        assert doc["job"]["status"] == "done"
        assert doc["job"]["metrics"]["result"]["schema"] == "repro.registration-result"

    def test_serve_from_npz_population(self, tmp_path, capsys):
        population_path = tmp_path / "population.npz"
        problem = synthetic_registration_problem(8)
        np.savez(
            population_path,
            reference=problem.reference,
            subjects=np.stack([problem.template, problem.template], axis=0),
        )
        code = main(
            [
                "serve",
                "--input", str(population_path),
                "--beta", "1e-1",
                "--max-newton", "1",
                "--max-krylov", "3",
                "--num-workers", "1",
            ]
        )
        assert code == 0
        assert "num_subjects" in capsys.readouterr().out

    def test_serve_npz_missing_keys_is_a_clean_error(self, tmp_path, capsys):
        bad_path = tmp_path / "bad.npz"
        np.savez(bad_path, foo=np.zeros(3))
        code = main(["serve", "--input", str(bad_path)])
        assert code == 2
        assert "subjects" in capsys.readouterr().err

    @pytest.mark.parametrize("shape", [(8, 8), (1, 8, 8)], ids=str)
    def test_serve_npz_images_no_grid_holds_are_a_clean_error(self, tmp_path, capsys, shape):
        bad_path = tmp_path / "bad.npz"
        np.savez(bad_path, reference=np.ones(shape), subjects=np.ones((2, *shape)))
        code = main(["serve", "--input", str(bad_path), "--num-workers", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "template shape" in err

    def test_serve_accepts_config_flags(self, capsys):
        code = main(self._serve_args("--trace"))
        assert code == 0

    def test_serve_main_entry_point(self, capsys):
        from repro.cli import serve_main

        code = serve_main(
            [
                "--synthetic", "8",
                "--subjects", "2",
                "--beta", "1e-1",
                "--max-newton", "1",
                "--max-krylov", "3",
                "--num-workers", "1",
            ]
        )
        assert code == 0
        assert "Atlas registration summary" in capsys.readouterr().out


def _extract_result_document(out: str) -> dict:
    """Parse the verbose report's embedded JSON result document.

    The document is printed with ``indent=2``, so it is the block between
    the first column-0 ``{`` line and the next column-0 ``}`` line.
    """
    import json

    start = out.index("\n{\n") + 1
    end = out.index("\n}\n", start) + 2
    return json.loads(out[start:end])


class TestObservabilityCLI:
    """The ``--trace``/``--trace-out`` flags and the verbose report."""

    def _register_args(self, *extra):
        return [
            "register",
            "--synthetic", "12",
            "--max-newton", "2",
            "--max-krylov", "4",
            *extra,
        ]

    def test_trace_flags_parse(self):
        args = build_parser().parse_args(
            self._register_args("--trace", "--trace-out", "run.json")
        )
        assert args.trace is True
        assert args.trace_out == "run.json"
        defaults = build_parser().parse_args(self._register_args())
        assert defaults.trace is None
        assert defaults.trace_out is None

    def test_trace_out_writes_a_loadable_chrome_trace(self, tmp_path, capsys):
        import json

        from repro.observability import get_trace_recorder, validate_chrome_trace

        get_trace_recorder().clear()
        trace_path = tmp_path / "run.trace.json"
        code = main(self._register_args("--trace-out", str(trace_path)))
        assert code == 0
        assert f"trace written to {trace_path}" in capsys.readouterr().out
        document = json.loads(trace_path.read_text())
        validate_chrome_trace(document)
        names = {event["name"] for event in document["traceEvents"]}
        assert "registration.solve" in names
        assert "fft.forward" in names
        assert "newton.iteration" in names

    def test_trace_env_var_enables_tracing(self):
        # REPRO_TRACE is read at interpreter startup, so exercise the real
        # CLI path: a fresh process with the variable exported and no flag.
        import os
        import subprocess
        import sys

        from repro.observability import TRACE_ENV_VAR

        env = dict(os.environ)
        env[TRACE_ENV_VAR] = "1"
        env["PYTHONPATH"] = "src"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "--verbose", *self._register_args()],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "phase timings (traced spans):" in proc.stdout

    def test_malformed_trace_env_is_a_clean_error(self, capsys, monkeypatch):
        from repro.observability import TRACE_ENV_VAR

        monkeypatch.setenv(TRACE_ENV_VAR, "maybe")
        assert main(self._register_args()) == 2
        assert TRACE_ENV_VAR in capsys.readouterr().err

    def test_verbose_report_agrees_with_result_document(self, capsys):
        from repro.observability import get_trace_recorder

        recorder = get_trace_recorder()
        recorder.clear()
        code = main(["--verbose", *self._register_args("--trace")])
        assert code == 0
        out = capsys.readouterr().out
        doc = _extract_result_document(out)
        assert doc["schema"] == "repro.registration-result"
        assert doc["schema_version"] == 6
        assert "plan_pool" not in doc

        # embedded observability snapshot: enabled trace, valid document
        from repro.observability import validate_snapshot

        snap = doc["observability"]
        validate_snapshot(snap)
        assert snap["trace"]["enabled"] is True

        # a registration's planning data belongs to its problem, so the pool
        # saw no lookup and the report prints no pool line
        pool = snap["plan_pool"]
        assert pool["misses"] == pool["hits"] == 0
        assert "plan pool:" not in out

        # phase-timing table: one row per span name, spans/count columns
        # agreeing with the recorder (= the document's span_counts)
        assert "phase timings (traced spans):" in out
        table = out.split("phase timings (traced spans):\n", 1)[1]
        rows = {}
        for line in table.splitlines()[1:]:
            parts = line.split()
            if len(parts) != 5 or not parts[1].isdigit():
                break
            rows[parts[0]] = (int(parts[1]), int(parts[2]))
        span_counts = snap["trace"]["span_counts"]
        assert set(rows) == set(span_counts)
        for name, (num_spans, total_count) in rows.items():
            assert total_count == span_counts[name]
            assert 1 <= num_spans <= total_count
