"""Tests of the consolidated :class:`repro.config.RegistrationConfig`."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.config import RegistrationConfig
from repro.core.registration import RegistrationSolver, register
from repro.data.synthetic import synthetic_registration_problem
from repro.observability.trace import TRACE_ENV_VAR, tracing_enabled
from repro.runtime.plan_pool import get_plan_pool


@pytest.fixture()
def tiny_problem():
    return synthetic_registration_problem(8)


@pytest.fixture()
def fast_options():
    from repro.core.optim.gauss_newton import SolverOptions

    return SolverOptions(max_newton_iterations=1, max_krylov_iterations=3)


class TestConstruction:
    def test_default_config_is_all_none(self):
        config = RegistrationConfig()
        assert all(value is None for value in config.as_dict().values())

    def test_validation_of_bad_fields(self):
        with pytest.raises(ValueError, match="plan_pool_bytes"):
            RegistrationConfig(plan_pool_bytes=-1)

    def test_replace_derives_a_variant(self):
        base = RegistrationConfig(plan_pool_bytes=1000)
        derived = base.replace(trace=True)
        assert derived.plan_pool_bytes == 1000
        assert derived.trace is True
        assert base.trace is None  # frozen: the base is untouched

    def test_from_env_snapshots_concrete_values(self):
        config = RegistrationConfig.from_env()
        assert config.plan_pool_bytes == get_plan_pool().max_bytes
        assert config.trace is not None

    @pytest.mark.parametrize("service_env", [None, "3"])
    def test_from_env_apply_changes_no_service_width(self, monkeypatch, service_env):
        from repro.config import SERVICE_WORKERS_ENV_VAR, env_service_workers

        monkeypatch.delenv(SERVICE_WORKERS_ENV_VAR, raising=False)
        if service_env is not None:
            monkeypatch.setenv(SERVICE_WORKERS_ENV_VAR, service_env)
        before = env_service_workers()
        config = RegistrationConfig.from_env().apply()
        # the width is the service's own knob, never a config field
        assert "workers" not in config.as_dict()
        assert env_service_workers() == before
        assert before == (None if service_env is None else int(service_env))


class TestValidateAndApply:
    def test_config_has_the_three_knobs(self):
        assert set(RegistrationConfig().as_dict()) == {
            "plan_pool_bytes", "trace", "trace_out",
        }

    @pytest.mark.parametrize(
        "removed",
        [
            {"plan_layout": "lean"},
            {"field_source": "memmap"},
            {"interp_backend": "scipy"},
            {"fft_backend": "numpy"},
            {"workers": 2},
            {"gradient_cache": False},
        ],
    )
    def test_removed_knobs_are_type_errors(self, removed):
        with pytest.raises(TypeError):
            RegistrationConfig(**removed)

    @pytest.mark.parametrize("value", ["lots", "-1"])
    def test_validate_surfaces_malformed_env(self, monkeypatch, value):
        from repro.runtime.plan_pool import POOL_BYTES_ENV_VAR

        monkeypatch.setenv(POOL_BYTES_ENV_VAR, value)
        with pytest.raises(ValueError, match=POOL_BYTES_ENV_VAR):
            RegistrationConfig().validate()

    def test_apply_pushes_only_set_fields(self):
        budget_before = get_plan_pool().max_bytes
        RegistrationConfig(trace=True).apply()
        assert tracing_enabled()
        # unset fields leave the other process-wide knobs untouched
        assert get_plan_pool().max_bytes == budget_before

    def test_apply_sets_the_budget(self):
        RegistrationConfig(plan_pool_bytes=123456).apply()
        assert get_plan_pool().max_bytes == 123456

    def test_apply_returns_self_for_chaining(self):
        config = RegistrationConfig()
        assert config.apply() is config


class TestServiceEnvVars:
    def test_env_service_journal_round_trip(self, monkeypatch):
        from repro.config import SERVICE_JOURNAL_ENV_VAR, env_service_journal

        monkeypatch.delenv(SERVICE_JOURNAL_ENV_VAR, raising=False)
        assert env_service_journal() is None
        monkeypatch.setenv(SERVICE_JOURNAL_ENV_VAR, "/tmp/some-journal")
        assert str(env_service_journal()) == "/tmp/some-journal"

    def test_env_http_port_parses_and_validates(self, monkeypatch):
        from repro.config import HTTP_PORT_ENV_VAR, env_http_port

        monkeypatch.delenv(HTTP_PORT_ENV_VAR, raising=False)
        assert env_http_port() is None
        monkeypatch.setenv(HTTP_PORT_ENV_VAR, "8787")
        assert env_http_port() == 8787
        for bad in ("eighty", "-1", "70000"):
            monkeypatch.setenv(HTTP_PORT_ENV_VAR, bad)
            with pytest.raises(ValueError, match=HTTP_PORT_ENV_VAR):
                env_http_port()

    def test_validate_surfaces_malformed_service_env(self, monkeypatch):
        from repro.config import HTTP_PORT_ENV_VAR, SERVICE_WORKERS_ENV_VAR

        monkeypatch.setenv(HTTP_PORT_ENV_VAR, "not-a-port")
        with pytest.raises(ValueError, match=HTTP_PORT_ENV_VAR):
            RegistrationConfig().validate()
        monkeypatch.delenv(HTTP_PORT_ENV_VAR)
        monkeypatch.setenv(SERVICE_WORKERS_ENV_VAR, "many")
        with pytest.raises(ValueError, match=SERVICE_WORKERS_ENV_VAR):
            RegistrationConfig().validate()


class TestSolverIntegration:
    def test_solver_applies_its_config(self, tiny_problem, fast_options):
        solver = RegistrationSolver(
            options=fast_options,
            config=RegistrationConfig(plan_pool_bytes=0),
        )
        assert get_plan_pool().max_bytes == 0
        result = solver.run(tiny_problem.template, tiny_problem.reference)
        for removed in ("fft_backend", "interp_backend", "plan_pool_hits", "plan_pool_misses"):
            assert removed not in result.summary()

    def test_register_accepts_config(self, tiny_problem, fast_options):
        result = register(
            tiny_problem.template,
            tiny_problem.reference,
            options=fast_options,
            config=RegistrationConfig(trace=False),
        )
        assert result.relative_residual < 1.0

    def test_register_rejects_a_malformed_trace_env(
        self, monkeypatch, tiny_problem, fast_options
    ):
        monkeypatch.setenv(TRACE_ENV_VAR, "banana")
        with pytest.raises(ValueError, match=TRACE_ENV_VAR):
            register(tiny_problem.template, tiny_problem.reference, options=fast_options)

    def test_service_rejects_a_malformed_trace_env(self, monkeypatch):
        from repro.service import RegistrationService

        monkeypatch.setenv(TRACE_ENV_VAR, "banana")
        with pytest.raises(ValueError, match=TRACE_ENV_VAR):
            RegistrationService()

    def test_import_survives_a_malformed_trace_env(self):
        """Only the entry points validate; ``import repro`` never raises."""
        import repro

        env = dict(
            os.environ,
            PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)),
            **{TRACE_ENV_VAR: "banana"},
        )
        result = subprocess.run(
            [sys.executable, "-c", "import repro"], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr

    def test_solver_has_no_engine_argument(self):
        with pytest.raises(TypeError, match="fft_backend"):
            RegistrationSolver(fft_backend="numpy")

    def test_register_takes_no_engine_argument(self, tiny_problem, fast_options):
        for legacy in ("fft_backend", "interp_backend"):
            with pytest.raises(TypeError, match=legacy):
                register(
                    tiny_problem.template,
                    tiny_problem.reference,
                    options=fast_options,
                    **{legacy: "numpy"},
                )


class TestResultSchema:
    def test_to_dict_is_versioned_and_json_ready(self, tiny_problem, fast_options):
        import json

        result = register(
            tiny_problem.template, tiny_problem.reference, options=fast_options
        )
        doc = result.to_dict()
        assert doc["schema"] == "repro.registration-result"
        assert doc["schema_version"] == 6
        text = json.dumps(doc)  # no numpy scalars may survive
        round_tripped = json.loads(text)
        assert round_tripped["summary"]["relative_residual"] == pytest.approx(
            result.relative_residual
        )
        # v5: no per-solve pool delta; the process-wide pool lives in the snapshot
        assert "plan_pool" not in round_tripped
        assert isinstance(round_tripped["observability"]["plan_pool"]["hits"], int)
        assert np.isfinite(round_tripped["elapsed_seconds"])
        # v3: why the outer loop stopped, beside how many steps it took
        assert round_tripped["optimization"]["termination_reason"] == (
            result.optimization.termination_reason
        )
        assert isinstance(round_tripped["optimization"]["termination_reason"], str)
        assert "field_sources" not in round_tripped
        assert not any(key.startswith("field_source") for key in round_tripped["summary"])

    def test_to_dict_carries_one_record_per_newton_iteration(self):
        problem = synthetic_registration_problem(12)
        result = register(problem.template, problem.reference)
        iterations = result.to_dict()["optimization"]["iterations"]
        assert len(iterations) == result.num_newton_iterations > 1
        assert [record["iteration"] for record in iterations] == list(
            range(len(iterations))
        )
        assert sum(record["hessian_matvecs"] for record in iterations) == (
            result.to_dict()["optimization"]["total_hessian_matvecs"]
        )
        assert iterations == result.optimization.convergence_table()
