"""The stable top-level facade: everything a downstream user imports."""

from __future__ import annotations

import repro
import repro.service


class TestFacadeExports:
    def test_public_names(self):
        for name in (
            "register",
            "RegistrationResult",
            "RegistrationSolver",
            "RegistrationService",
            "SolverOptions",
            "Grid",
            "Job",
            "JobStatus",
        ):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_no_process_wide_default_service(self):
        """A script owns its ``RegistrationService``: no module-level one to
        submit to, and nothing shut down at interpreter exit."""
        for module in (repro, repro.service):
            for name in ("submit", "gather", "default_service", "shutdown_default_service"):
                assert name not in module.__all__
                assert not hasattr(module, name)
