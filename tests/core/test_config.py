"""Tests of the consolidated :class:`repro.config.RegistrationConfig`."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.config import RegistrationConfig
from repro.core import registration as registration_module
from repro.core.gradients import gradient_cache_enabled
from repro.core.registration import RegistrationSolver, register
from repro.data.synthetic import synthetic_registration_problem
from repro.runtime.plan_pool import configure_plan_pool, get_plan_pool
from repro.runtime.workers import resolve_workers


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
        with pytest.raises(ValueError, match="workers"):
            RegistrationConfig(workers=0)
        with pytest.raises(ValueError, match="plan_pool_bytes"):
            RegistrationConfig(plan_pool_bytes=-1)

    def test_replace_derives_a_variant(self):
        base = RegistrationConfig(fft_backend="numpy")
        derived = base.replace(workers=2)
        assert derived.fft_backend == "numpy"
        assert derived.workers == 2
        assert base.workers is None  # frozen: the base is untouched

    def test_from_env_snapshots_concrete_values(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        config = RegistrationConfig.from_env()
        assert config.fft_backend is not None
        assert config.interp_backend is not None
        # the *shared* worker default only: nothing set, nothing to snapshot
        # (the subsystems' own defaults differ: fft all cores, service 1)
        assert config.workers is None
        assert config.plan_pool_bytes == get_plan_pool().max_bytes

    @pytest.mark.parametrize("shared_env", [None, "3"])
    def test_from_env_apply_changes_no_resolved_worker_count(self, monkeypatch, shared_env):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        if shared_env is not None:
            monkeypatch.setenv("REPRO_WORKERS", shared_env)
        subsystems = ("fft", "interp", "service")
        before = {name: resolve_workers(name) for name in subsystems}
        try:
            config = RegistrationConfig.from_env().apply()
            assert config.workers == (None if shared_env is None else int(shared_env))
            assert {name: resolve_workers(name) for name in subsystems} == before
        finally:
            configure_plan_pool(None)


class TestValidateAndApply:
    def test_validate_rejects_unknown_backend(self):
        with pytest.raises((ValueError, KeyError)):
            RegistrationConfig(fft_backend="no-such-engine").validate()

    def test_config_has_the_seven_knobs(self):
        assert set(RegistrationConfig().as_dict()) == {
            "fft_backend", "interp_backend", "workers", "plan_pool_bytes",
            "gradient_cache", "trace", "trace_out",
        }
        with pytest.raises(TypeError):
            RegistrationConfig(plan_layout="lean")
        with pytest.raises(TypeError):
            RegistrationConfig(field_source="memmap")

    def test_validate_surfaces_malformed_env(self, monkeypatch):
        from repro.runtime.plan_pool import POOL_BYTES_ENV_VAR

        monkeypatch.setenv(POOL_BYTES_ENV_VAR, "lots")
        with pytest.raises(ValueError, match=POOL_BYTES_ENV_VAR):
            RegistrationConfig().validate()

    def test_apply_pushes_only_set_fields(self):
        budget_before = get_plan_pool().max_bytes
        RegistrationConfig(gradient_cache=False).apply()
        assert not gradient_cache_enabled()
        # unset fields leave the other process-wide knobs untouched
        assert get_plan_pool().max_bytes == budget_before

    def test_apply_sets_workers_and_budget(self, monkeypatch):
        # a per-subsystem variable outranks the config's shared ``workers`` by
        # design, and the runtime-pressure CI leg exports one
        monkeypatch.delenv("REPRO_INTERP_WORKERS", raising=False)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        try:
            RegistrationConfig(workers=3, plan_pool_bytes=123456).apply()
            assert resolve_workers("interp") == 3
            assert get_plan_pool().max_bytes == 123456
        finally:
            configure_plan_pool(None)

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

    def test_env_class_weights_parses_and_validates(self, monkeypatch):
        from repro.config import (
            SERVICE_CLASS_WEIGHTS_ENV_VAR,
            env_service_class_weights,
        )

        monkeypatch.delenv(SERVICE_CLASS_WEIGHTS_ENV_VAR, raising=False)
        assert env_service_class_weights() == {}
        monkeypatch.setenv(
            SERVICE_CLASS_WEIGHTS_ENV_VAR, "interactive=4, atlas-burst=0.5"
        )
        assert env_service_class_weights() == {"interactive": 4.0, "atlas-burst": 0.5}
        for bad in ("interactive", "interactive=fast", "interactive=0", "=2"):
            monkeypatch.setenv(SERVICE_CLASS_WEIGHTS_ENV_VAR, bad)
            with pytest.raises(ValueError, match=SERVICE_CLASS_WEIGHTS_ENV_VAR):
                env_service_class_weights()

    def test_validate_surfaces_malformed_service_env(self, monkeypatch):
        from repro.config import HTTP_PORT_ENV_VAR, SERVICE_CLASS_WEIGHTS_ENV_VAR

        monkeypatch.setenv(HTTP_PORT_ENV_VAR, "not-a-port")
        with pytest.raises(ValueError, match=HTTP_PORT_ENV_VAR):
            RegistrationConfig().validate()
        monkeypatch.delenv(HTTP_PORT_ENV_VAR)
        monkeypatch.setenv(SERVICE_CLASS_WEIGHTS_ENV_VAR, "interactive=-3")
        with pytest.raises(ValueError, match=SERVICE_CLASS_WEIGHTS_ENV_VAR):
            RegistrationConfig().validate()


class TestSolverIntegration:
    def test_solver_takes_backends_from_config(self, tiny_problem, fast_options):
        solver = RegistrationSolver(
            options=fast_options,
            config=RegistrationConfig(fft_backend="numpy", interp_backend="scipy"),
        )
        result = solver.run(tiny_problem.template, tiny_problem.reference)
        assert result.summary()["fft_backend"] == "numpy"
        assert result.summary()["interp_backend"] == "scipy"

    def test_explicit_backend_beats_config(self, tiny_problem, fast_options):
        solver = RegistrationSolver(
            options=fast_options,
            fft_backend="scipy",
            config=RegistrationConfig(fft_backend="numpy"),
        )
        result = solver.run(tiny_problem.template, tiny_problem.reference)
        assert result.summary()["fft_backend"] == "scipy"

    def test_register_accepts_config(self, tiny_problem, fast_options):
        result = register(
            tiny_problem.template,
            tiny_problem.reference,
            options=fast_options,
            config=RegistrationConfig(fft_backend="numpy"),
        )
        assert result.summary()["fft_backend"] == "numpy"


class TestLegacyKwargShim:
    def test_legacy_kwargs_warn_once_and_keep_working(self, tiny_problem, fast_options, monkeypatch):
        monkeypatch.setattr(registration_module, "_legacy_kwargs_warned", False)
        with pytest.warns(DeprecationWarning, match="RegistrationConfig"):
            result = register(
                tiny_problem.template,
                tiny_problem.reference,
                options=fast_options,
                fft_backend="numpy",
            )
        assert result.summary()["fft_backend"] == "numpy"
        # second use: the warning already fired this process
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            register(
                tiny_problem.template,
                tiny_problem.reference,
                options=fast_options,
                fft_backend="numpy",
            )

    def test_solver_class_does_not_warn(self, tiny_problem, fast_options, monkeypatch):
        monkeypatch.setattr(registration_module, "_legacy_kwargs_warned", False)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            RegistrationSolver(options=fast_options, fft_backend="numpy").run(
                tiny_problem.template, tiny_problem.reference
            )


class TestResultSchema:
    def test_to_dict_is_versioned_and_json_ready(self, tiny_problem, fast_options):
        import json

        result = register(
            tiny_problem.template, tiny_problem.reference, options=fast_options
        )
        doc = result.to_dict()
        assert doc["schema"] == "repro.registration-result"
        assert doc["schema_version"] == 3
        text = json.dumps(doc)  # no numpy scalars may survive
        round_tripped = json.loads(text)
        assert round_tripped["summary"]["relative_residual"] == pytest.approx(
            result.relative_residual
        )
        assert isinstance(round_tripped["plan_pool"]["hits"], int)
        assert np.isfinite(round_tripped["elapsed_seconds"])
        # v3: why the outer loop stopped, beside how many steps it took
        assert round_tripped["optimization"]["termination_reason"] == (
            result.optimization.termination_reason
        )
        assert isinstance(round_tripped["optimization"]["termination_reason"], str)
        assert "field_sources" not in round_tripped
        assert not any(key.startswith("field_source") for key in round_tripped["summary"])
