"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.data.io import save_problem
from repro.data.synthetic import synthetic_registration_problem


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
        assert args.fft_backend is None
        assert args.interp_backend is None

    def test_interp_backend_choices(self):
        args = build_parser().parse_args(
            ["register", "--synthetic", "16", "--interp-backend", "numpy"]
        )
        assert args.interp_backend == "numpy"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["register", "--synthetic", "16", "--interp-backend", "cuda"]
            )

    def test_runtime_flags(self):
        args = build_parser().parse_args(
            ["register", "--synthetic", "16", "--plan-pool-bytes", "1000000", "--workers", "2"]
        )
        assert args.plan_pool_bytes == 1000000
        assert args.workers == 2
        defaults = build_parser().parse_args(["register", "--synthetic", "16"])
        assert defaults.plan_pool_bytes is None
        assert defaults.workers is None


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

    def test_interp_backend_run(self, capsys):
        code = main(
            [
                "register",
                "--synthetic", "12",
                "--interp-backend", "numpy",
                "--max-newton", "2",
                "--max-krylov", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Registration summary" in out
        assert "numpy" in out

    def test_plan_pool_flag_and_verbose_stats(self, capsys):
        from repro.runtime import configure_plan_pool, set_default_workers

        try:
            code = main(
                [
                    "--verbose",
                    "register",
                    "--synthetic", "12",
                    "--plan-pool-bytes", "50000000",
                    "--workers", "1",
                    "--max-newton", "2",
                    "--max-krylov", "4",
                ]
            )
            assert code == 0
            out = capsys.readouterr().out
            assert "plan_pool_hits" in out
            assert "plan pool:" in out and "evictions" in out
        finally:
            configure_plan_pool(None)
            set_default_workers(None)

    def test_malformed_interp_backend_env_is_a_clean_error(self, capsys, monkeypatch):
        from repro.transport.kernels import BACKEND_ENV_VAR

        monkeypatch.setenv(BACKEND_ENV_VAR, "numpyy")
        assert main(["register", "--synthetic", "12"]) == 2
        err = capsys.readouterr().err
        assert BACKEND_ENV_VAR in err and "scipy" in err

    def test_malformed_fft_backend_env_is_a_clean_error(self, capsys, monkeypatch):
        from repro.spectral.backends import BACKEND_ENV_VAR

        monkeypatch.setenv(BACKEND_ENV_VAR, "fftw3")
        assert main(["register", "--synthetic", "12"]) == 2
        err = capsys.readouterr().err
        assert BACKEND_ENV_VAR in err and "numpy" in err

    def test_negative_plan_pool_budget_is_a_clean_error(self, capsys):
        code = main(
            ["register", "--synthetic", "12", "--plan-pool-bytes", "-1"]
        )
        assert code == 2
        assert "non-negative" in capsys.readouterr().err

    def test_malformed_runtime_env_vars_are_clean_errors(self, capsys, monkeypatch):
        from repro.runtime import POOL_BYTES_ENV_VAR, INTERP_WORKERS_ENV_VAR
        from repro.runtime import configure_plan_pool

        monkeypatch.setenv(POOL_BYTES_ENV_VAR, "512M")
        assert main(["register", "--synthetic", "12"]) == 2
        assert POOL_BYTES_ENV_VAR in capsys.readouterr().err
        monkeypatch.delenv(POOL_BYTES_ENV_VAR)
        configure_plan_pool(None)

        monkeypatch.setenv(INTERP_WORKERS_ENV_VAR, "two")
        assert main(["register", "--synthetic", "12"]) == 2
        assert INTERP_WORKERS_ENV_VAR in capsys.readouterr().err

    def test_unavailable_interp_backend_is_a_clean_error(self, capsys):
        try:
            import numba  # noqa: F401

            pytest.skip("numba is installed; unavailability path not testable")
        except ImportError:
            pass
        code = main(["register", "--synthetic", "12", "--interp-backend", "numba"])
        assert code == 2
        assert "not available" in capsys.readouterr().err

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

    def test_serve_requires_a_source_or_http(self, monkeypatch, capsys):
        # no parse-time failure anymore (--http mode has no population
        # source), but a bare serve still fails fast with a clean error
        monkeypatch.delenv("REPRO_HTTP_PORT", raising=False)
        assert main(["serve"]) == 2
        assert "--http" in capsys.readouterr().err

    def test_serve_rejects_http_with_a_source(self, capsys):
        assert main(["serve", "--http", "0", "--synthetic", "8"]) == 2
        assert "--http" in capsys.readouterr().err

    def test_serve_rejects_out_of_range_http_port(self, capsys):
        assert main(["serve", "--http", "99999"]) == 2
        assert "65535" in capsys.readouterr().err

    def test_serve_surfaces_malformed_http_port_env(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_HTTP_PORT", "eighty")
        assert main(["serve", "--synthetic", "8", "--subjects", "2"]) == 2
        assert "REPRO_HTTP_PORT" in capsys.readouterr().err

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

    def test_serve_accepts_config_flags(self, capsys):
        code = main(self._serve_args("--fft-backend", "numpy", "--interp-backend", "scipy"))
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

    def test_trace_env_var_enables_tracing(self, tmp_path):
        # REPRO_TRACE is read at interpreter startup, so exercise the real
        # CLI path: a fresh process with the variable exported.
        import json
        import os
        import subprocess
        import sys

        from repro.observability import TRACE_ENV_VAR, TRACE_OUT_ENV_VAR, validate_chrome_trace

        trace_path = tmp_path / "env.trace.json"
        env = dict(os.environ)
        env[TRACE_ENV_VAR] = "1"
        env[TRACE_OUT_ENV_VAR] = str(trace_path)
        env["PYTHONPATH"] = "src"
        proc = subprocess.run(
            [
                sys.executable, "-c",
                "import sys; from repro.cli import main; "
                "sys.exit(main(sys.argv[1:]))",
                *self._register_args(),
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        validate_chrome_trace(json.loads(trace_path.read_text()))

    def test_malformed_trace_env_is_a_clean_error(self, capsys, monkeypatch):
        from repro.observability import TRACE_ENV_VAR

        monkeypatch.setenv(TRACE_ENV_VAR, "maybe")
        assert main(self._register_args()) == 2
        assert TRACE_ENV_VAR in capsys.readouterr().err

    def test_malformed_service_workers_env_is_a_clean_error(self, capsys, monkeypatch):
        from repro.runtime.workers import SERVICE_WORKERS_ENV_VAR

        monkeypatch.setenv(SERVICE_WORKERS_ENV_VAR, "3.5")
        assert main(self._register_args()) == 2
        assert SERVICE_WORKERS_ENV_VAR in capsys.readouterr().err

    def test_serve_rejects_malformed_worker_envs_too(self, capsys, monkeypatch):
        from repro.runtime.workers import INTERP_WORKERS_ENV_VAR

        monkeypatch.setenv(INTERP_WORKERS_ENV_VAR, "many")
        code = main(["serve", "--synthetic", "8", "--subjects", "1"])
        assert code == 2
        assert INTERP_WORKERS_ENV_VAR in capsys.readouterr().err

    def test_verbose_report_agrees_with_result_document(self, capsys):
        from repro.observability import get_trace_recorder

        recorder = get_trace_recorder()
        recorder.clear()
        code = main(["--verbose", *self._register_args("--trace")])
        assert code == 0
        out = capsys.readouterr().out
        doc = _extract_result_document(out)
        assert doc["schema"] == "repro.registration-result"
        assert doc["schema_version"] == 3

        # embedded observability snapshot: enabled trace, valid document
        from repro.observability import validate_snapshot

        snap = doc["observability"]
        validate_snapshot(snap)
        assert snap["trace"]["enabled"] is True

        # plan-pool line: process-wide stats, i.e. the snapshot's view
        # (the doc's top-level plan_pool block is the solve-only delta and
        # excludes the post-solve det-grad plans)
        pool = snap["plan_pool"]
        assert f"plan pool: {pool['hits']} hits, {pool['misses']} misses" in out
        delta = doc["plan_pool"]
        assert delta["misses"] >= 1
        assert delta["misses"] <= pool["misses"]

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
