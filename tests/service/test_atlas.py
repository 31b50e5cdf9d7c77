"""Atlas (population) workload over the registration service."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.optim.gauss_newton import SolverOptions
from repro.data.synthetic import synthetic_population
from repro.service import RegistrationService, workers
from repro.service.atlas import run_atlas, submit_atlas


@pytest.fixture(scope="module")
def population():
    return synthetic_population(8, num_subjects=3, num_time_steps=2)


@pytest.fixture()
def fast_options():
    return SolverOptions(max_newton_iterations=1, max_krylov_iterations=3)


class TestSyntheticPopulation:
    def test_population_shape_and_determinism(self, population):
        assert population.num_subjects == 3
        assert population.atlas.shape == (8, 8, 8)
        assert all(s.shape == (8, 8, 8) for s in population.subjects)
        assert len(set(population.amplitudes)) == 3
        again = synthetic_population(8, num_subjects=3, num_time_steps=2)
        for a, b in zip(population.subjects, again.subjects):
            np.testing.assert_array_equal(a, b)

    def test_subjects_differ_from_atlas_and_each_other(self, population):
        for subject in population.subjects:
            assert not np.array_equal(subject, population.atlas)
        assert not np.array_equal(population.subjects[0], population.subjects[-1])

    def test_invalid_spread(self):
        with pytest.raises(ValueError, match="spread"):
            synthetic_population(8, num_subjects=2, spread=1.5)


class TestRunAtlas:
    def test_atlas_pass_registers_every_subject(self, population, fast_options):
        with RegistrationService(num_workers=2) as service:
            atlas = run_atlas(
                population.atlas,
                population.subjects,
                service=service,
                options=fast_options,
                beta=1e-1,
            )
        assert atlas.num_succeeded == population.num_subjects
        assert atlas.num_failed == 0
        assert atlas.mean_deformed.shape == population.atlas.shape
        summary = atlas.summary()
        assert summary["num_subjects"] == 3
        assert summary["mean_relative_residual"] is not None
        # every job went through the service with its own record
        assert len(atlas.jobs) == 3
        assert all(job.record.metrics for job in atlas.jobs)

    def test_owned_service_is_created_and_shut_down(self, population, fast_options):
        atlas = run_atlas(
            population.atlas,
            population.subjects[:2],
            options=fast_options,
            beta=1e-1,
        )
        assert atlas.num_succeeded == 2

    def test_partial_failure_keeps_survivors(self, population, fast_options, monkeypatch):
        # the second subject fails in the worker (injected: a subject that
        # fails its spec's checks is rejected before anything is queued)
        subjects = [population.subjects[0], population.subjects[1].copy()]
        real_register = workers.register

        def register(template, reference, **kwargs):
            if template is subjects[1]:
                raise RuntimeError("injected solver failure")
            return real_register(template, reference, **kwargs)

        monkeypatch.setattr(workers, "register", register)
        with RegistrationService(num_workers=1) as service:
            atlas = run_atlas(
                population.atlas,
                subjects,
                service=service,
                raise_on_error=False,
                options=fast_options,
            )
        assert atlas.num_succeeded == 1
        assert atlas.num_failed == 1
        assert atlas.results[1] is None
        assert atlas.mean_deformed is not None  # averaged over the survivor

    @pytest.mark.parametrize(
        "bad, message",
        [(np.zeros((10, 10, 10)), "must share a shape"), (np.full((8, 8, 8), np.nan), "non-finite")],
        ids=["shape", "nan"],
    )
    def test_bad_subject_queues_nothing(self, population, fast_options, bad, message):
        subjects = [population.subjects[0], bad]
        with RegistrationService(num_workers=1) as service:
            with pytest.raises(ValueError, match=message):
                run_atlas(population.atlas, subjects, service=service, options=fast_options)
            assert service.service_stats()["jobs_submitted"] == 0

    def test_empty_population_is_an_error(self, population):
        with pytest.raises(ValueError, match="at least one"):
            run_atlas(population.atlas, [])

    def test_submit_atlas_returns_live_handles(self, population, fast_options):
        with RegistrationService(num_workers=1) as service:
            jobs = submit_atlas(
                service,
                population.atlas,
                population.subjects[:2],
                options=fast_options,
            )
            results = service.gather(jobs, timeout=120)
        assert len(results) == 2
        assert all(r.deformed_template.shape == (8, 8, 8) for r in results)
