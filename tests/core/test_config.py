"""The runtime settings: two environment variables, no configuration object.

``REPRO_PLAN_POOL_BYTES`` and ``REPRO_TRACE`` are the only settings read from
the environment (:func:`repro.config.check_environment`); every entry point
checks them before any work, and none takes a ``config=`` argument or writes
the process-wide budget or tracing flag.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.config import check_environment
from repro.core.registration import RegistrationSolver, register
from repro.data.synthetic import synthetic_registration_problem
from repro.observability.trace import (
    TRACE_ENV_VAR,
    disable_tracing,
    enable_tracing,
    tracing_enabled,
)
from repro.runtime.plan_pool import POOL_BYTES_ENV_VAR, configure_plan_pool, get_plan_pool
from repro.service import RegistrationService


@pytest.fixture()
def tiny_problem():
    return synthetic_registration_problem(8)


@pytest.fixture()
def fast_options():
    from repro.core.optim.gauss_newton import SolverOptions

    return SolverOptions(max_newton_iterations=1, max_krylov_iterations=3)


def _entry_points(problem, options):
    """Each public entry point, as a call that builds it with *kwargs*."""

    def run_register(**kwargs):
        return register(problem.template, problem.reference, options=options, **kwargs)

    def start_service(**kwargs):
        RegistrationService(**kwargs).shutdown()

    return {
        "register": run_register,
        "RegistrationSolver": lambda **kwargs: RegistrationSolver(options=options, **kwargs),
        "RegistrationService": start_service,
    }


ENTRY_POINTS = ["register", "RegistrationSolver", "RegistrationService"]


class TestNoConfigurationObject:
    def test_the_facade_exports_no_config_class(self):
        assert "RegistrationConfig" not in repro.__all__
        assert not hasattr(repro, "RegistrationConfig")

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_config_is_a_type_error(self, tiny_problem, fast_options, entry):
        call = _entry_points(tiny_problem, fast_options)[entry]
        with pytest.raises(TypeError, match="config"):
            call(config=None)

    def test_cli_main_takes_no_config(self):
        with pytest.raises(TypeError, match="config"):
            main(["scaling", "--table", "I"], config=None)


class TestEnvironmentCheck:
    def test_well_formed_or_unset_variables_pass(self, monkeypatch):
        monkeypatch.delenv(POOL_BYTES_ENV_VAR, raising=False)
        monkeypatch.delenv(TRACE_ENV_VAR, raising=False)
        check_environment()
        monkeypatch.setenv(POOL_BYTES_ENV_VAR, "0")
        monkeypatch.setenv(TRACE_ENV_VAR, "off")
        check_environment()

    @pytest.mark.parametrize(
        "variable, value",
        [(POOL_BYTES_ENV_VAR, "lots"), (POOL_BYTES_ENV_VAR, "-1"), (TRACE_ENV_VAR, "banana")],
    )
    @pytest.mark.parametrize("entry", ["check_environment", *ENTRY_POINTS])
    def test_a_malformed_variable_is_a_named_value_error(
        self, monkeypatch, tiny_problem, fast_options, entry, variable, value
    ):
        calls = _entry_points(tiny_problem, fast_options)
        calls["check_environment"] = check_environment
        monkeypatch.setenv(variable, value)
        with pytest.raises(ValueError, match=variable):
            calls[entry]()


class TestNoProcessWideWrites:
    """Building a solver or a service, or running a solve, leaves the budget
    and the tracing flag as it found them."""

    @pytest.mark.parametrize("budget, tracing", [(None, False), (123456, True), (0, False)])
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_entry_points_leave_budget_and_tracing_alone(
        self, tiny_problem, fast_options, entry, budget, tracing
    ):
        configure_plan_pool(budget)
        (enable_tracing if tracing else disable_tracing)()
        before = get_plan_pool().max_bytes
        _entry_points(tiny_problem, fast_options)[entry]()
        assert get_plan_pool().max_bytes == before
        assert tracing_enabled() is tracing


class TestSolverIntegration:
    def test_import_survives_a_malformed_trace_env(self):
        """Only the entry points validate; ``import repro`` never raises."""
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
