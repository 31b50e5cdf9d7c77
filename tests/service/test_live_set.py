"""A finished job leaves nothing per-velocity behind.

A register job's departure data, gather operators and gradient stack belong
to its problem and are released when its solve ends; the process-wide plan
pool keeps only what crosses jobs — the scatter plans that transport jobs
with one velocity share.  So the pool's contents after a burst do not grow
with the number of register jobs, a finished result's interpolator holds no
operator, the result reaches its answer's arrays and no iterate's, and its
deformation map still warps with the same bits.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.core.optim.gauss_newton import SolverOptions
from repro.data.synthetic import synthetic_population
from repro.runtime.plan_pool import get_plan_pool
from repro.service import RegistrationJobSpec, RegistrationService, TransportJobSpec
from repro.transport.interpolation import PeriodicInterpolator
from repro.transport.kernels import projected_gather_operator_nbytes

from tests.fixtures import smooth_velocity_field

OPTIONS = SolverOptions(max_newton_iterations=2, max_krylov_iterations=5)

_spec = importlib.util.spec_from_file_location(
    "bench_memory", Path(__file__).resolve().parents[2] / "benchmarks" / "bench_memory.py"
)
bench_memory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_memory)


@pytest.fixture(scope="module")
def population():
    return synthetic_population(12, num_subjects=6, num_time_steps=4)


def burst(population, num_register_jobs: int):
    """*num_register_jobs* register jobs and two transport jobs with one velocity."""
    velocity = smooth_velocity_field(population.grid, seed=3, amplitude=0.3)
    with RegistrationService(max_batch=1) as service:
        jobs = [
            service.submit_registration(
                RegistrationJobSpec(template=subject, reference=population.atlas, options=OPTIONS)
            )
            for subject in population.subjects[:num_register_jobs]
        ]
        transports = [
            service.submit_transport(
                TransportJobSpec(velocity=velocity, moving=subject, num_tasks=4)
            )
            for subject in population.subjects[:2]
        ]
        results = service.gather(jobs + transports, timeout=600)
    return results[:num_register_jobs]


def test_the_pool_holds_two_scatter_plans_per_velocity_whatever_the_burst(
    population, plan_pool
):
    """One star and one departure plan per distinct transport velocity."""
    burst(population, 2)
    after_two = plan_pool.current_bytes
    assert plan_pool.stats.entries == 2
    assert after_two > 0
    burst(population, 6)
    assert plan_pool.stats.entries == 2
    assert plan_pool.current_bytes == after_two
    plan_pool.validate_accounting()


def test_a_finished_result_holds_no_operator(population, plan_pool):
    (result,) = burst(population, 1)
    interpolator = result.problem.transport.interpolator
    assert interpolator.resident_operators == 0
    assert result.problem.trial_velocity is None
    # the interpolator the result's deformation map gathers through
    assert result.deformation.transport.interpolator is interpolator


def test_a_finished_result_reaches_only_its_answer(population, plan_pool):
    """Velocity, deformed template, displacement and the problem's pair: no
    histories, gradient stack or plan (about 386 B/point before).

    A result's own bytes are what the burst's results hold with it, less
    what the other five hold: the spectral symbols all results of one grid
    share (a process-wide memo whose contents depend on what ran before)
    cancel out.
    """
    results = burst(population, 6)
    assert len(results) == 6
    together = bench_memory.retained_array_bytes(results)
    for index in range(len(results)):
        others = bench_memory.retained_array_bytes(results[:index] + results[index + 1:])
        assert 0 < together - others <= 100 * population.grid.num_points


def test_a_finished_deformation_warps_like_a_resident_gather(population, plan_pool):
    (result,) = burst(population, 1)
    assert result.deformation.plan is None
    grid = population.grid
    image = population.subjects[0]
    warped = result.deformation.warp(image)
    # the same points through a planned gather whose operator stays resident
    interpolator = PeriodicInterpolator(grid)
    assert 4 * projected_gather_operator_nbytes(grid.num_points, grid.shape) <= (
        get_plan_pool().max_bytes
    )
    plan = interpolator.plan(result.deformation.map())
    resident = interpolator.interpolate_planned(image, plan)
    assert interpolator.resident_operators == 1
    np.testing.assert_array_equal(warped, resident)
    np.testing.assert_array_equal(interpolator.interpolate_planned(image, plan), resident)
