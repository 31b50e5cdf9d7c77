"""Tests for the Gauss-Newton-Krylov driver, the gradient-descent baseline,
the beta continuation and the high-level registration front end."""

import warnings

import numpy as np
import pytest

from repro.core.metrics import determinant_summary, relative_residual, residual_norm
from repro.core.optim.continuation import BetaContinuation
from repro.core.optim.gauss_newton import GaussNewtonKrylov, SolverOptions
from repro.core.optim.gradient_descent import GradientDescent
from repro.core.problem import RegistrationProblem
from repro.core.registration import OPTIMIZERS, RegistrationSolver, register
from repro.core.regularization import REGULARIZATIONS
from repro.data.synthetic import synthetic_population, synthetic_registration_problem
from repro.observability import get_metrics_registry
from repro.service.jobs import RegistrationJobSpec
from repro.spectral.grid import Grid
from repro.transport.deformation import DeformationMap
from repro.transport.interpolation import PeriodicInterpolator
from repro.transport.solvers import TransportSolver

from tests.fixtures import BAD_IMAGE_SHAPES

#: Every layer the kernel option once threaded through, named with it.
KERNEL_LAYERS = {
    "PeriodicInterpolator": lambda s, kernel: PeriodicInterpolator(s.grid, kernel),
    "TransportSolver": lambda s, kernel: TransportSolver(s.grid, interpolation=kernel),
    "DeformationMap": lambda s, kernel: DeformationMap(
        s.grid, s.grid.zeros_vector(), interpolation=kernel
    ),
    "RegistrationProblem": lambda s, kernel: RegistrationProblem(
        grid=s.grid, reference=s.reference, template=s.template, interpolation=kernel
    ),
    "RegistrationSolver": lambda s, kernel: RegistrationSolver(interpolation=kernel),
    "register": lambda s, kernel: register(s.template, s.reference, interpolation=kernel),
    "RegistrationJobSpec": lambda s, kernel: RegistrationJobSpec(
        template=s.template, reference=s.reference, interpolation=kernel
    ),
    "synthetic_registration_problem": lambda s, kernel: synthetic_registration_problem(
        8, interpolation=kernel
    ),
    "synthetic_population": lambda s, kernel: synthetic_population(
        8, num_subjects=2, interpolation=kernel
    ),
}


@pytest.fixture(scope="module")
def synthetic():
    return synthetic_registration_problem(12)


@pytest.fixture(scope="module")
def problem(synthetic):
    return RegistrationProblem(
        grid=synthetic.grid,
        reference=synthetic.reference,
        template=synthetic.template,
        beta=1e-2,
    )


def quick_options(**overrides):
    defaults = dict(
        gradient_tolerance=1e-2,
        max_newton_iterations=6,
        max_krylov_iterations=15,
    )
    defaults.update(overrides)
    return SolverOptions(**defaults)


def transforms():
    """Process-wide FFT count (``spectral.fft_count``)."""
    return sum(get_metrics_registry().collect().get("fft.transforms", {}).values())


#: Every layer the intensity-normalization switch once threaded through.
NORMALIZE_LAYERS = {
    "RegistrationSolver": lambda s, value: RegistrationSolver(normalize=value),
    "register": lambda s, value: register(s.template, s.reference, normalize=value),
    "RegistrationJobSpec": lambda s, value: RegistrationJobSpec(
        template=s.template, reference=s.reference, normalize=value
    ),
}


class TestSolverOptions:
    def test_quadratic_forcing(self):
        options = SolverOptions(forcing_max=0.5)
        assert options.forcing_term(1.0, 1.0) == pytest.approx(0.5)
        assert options.forcing_term(1e-4, 1.0) == pytest.approx(1e-2)

    def test_forcing_max_caps_the_forcing_term(self):
        assert SolverOptions(forcing_max=0.05).forcing_term(0.25, 1.0) == pytest.approx(0.05)

    def test_the_forcing_floor_holds_after_the_cap(self):
        """``forcing_max = 0`` leaves PCG the ``1e-12`` floor, not a tolerance
        of exactly 0 that only an exactly zero residual meets."""
        assert SolverOptions(forcing_max=0.0).forcing_term(1.0, 1.0) == 1e-12
        assert SolverOptions().forcing_term(0.0, 1.0) == 1e-12

    @pytest.mark.parametrize(
        "name, value", [("forcing", "quadratic"), ("forcing", "linear"), ("constant_forcing", 0.1)]
    )
    def test_forcing_rule_is_not_an_option(self, name, value):
        """Quadratic Eisenstat-Walker forcing is the one rule."""
        with pytest.raises(TypeError, match=name):
            SolverOptions(**{name: value})


class TestGaussNewtonKrylov:
    def test_reduces_objective_and_gradient(self, problem):
        solver = GaussNewtonKrylov(problem, quick_options())
        result = solver.solve()
        assert result.num_iterations >= 1
        first = result.iterations[0]
        assert result.final_iterate.objective.total <= first.objective
        assert result.final_gradient_norm < result.iterations[0].gradient_norm * 5

    def test_converges_on_easy_problem(self, problem):
        result = GaussNewtonKrylov(problem, quick_options(max_newton_iterations=10)).solve()
        assert result.converged
        assert result.termination_reason == "gradient_tolerance"
        # gradient reduced by the requested factor
        rel = result.final_gradient_norm / result.iterations[0].gradient_norm
        assert rel < 0.2

    def test_zero_iteration_budget_equivalent(self, problem):
        result = GaussNewtonKrylov(problem, quick_options(max_newton_iterations=1)).solve()
        assert result.num_iterations <= 1

    def test_wall_clock_budget(self, problem):
        result = GaussNewtonKrylov(
            problem, quick_options(max_wall_clock_seconds=1e-9, max_newton_iterations=50)
        ).solve()
        assert result.termination_reason in ("wall_clock_budget", "gradient_tolerance")
        assert result.num_iterations <= 1

    def test_records_are_consistent(self, problem, monkeypatch):
        """PCG starts from zero, so its iteration count is the number of
        mat-vecs the problem applied: one count, reported under both names."""
        applied = []
        matvec = problem.hessian_matvec
        monkeypatch.setattr(
            problem, "hessian_matvec", lambda *args: applied.append(1) or matvec(*args)
        )
        result = GaussNewtonKrylov(problem, quick_options(max_newton_iterations=3)).solve()
        for record in result.iterations:
            assert record.hessian_matvecs == record.pcg_iterations
        total = sum(r.hessian_matvecs for r in result.iterations)
        assert total == result.total_hessian_matvecs == result.total_pcg_iterations
        assert total == len(applied) > 0
        table = result.convergence_table()
        assert len(table) == result.num_iterations
        assert all("objective" in row for row in table)

    def test_warm_start_from_given_velocity(self, problem, synthetic):
        result = GaussNewtonKrylov(problem, quick_options(max_newton_iterations=2)).solve(
            initial_velocity=0.5 * synthetic.true_velocity
        )
        assert result.final_iterate.objective.total < problem.evaluate_objective(
            problem.zero_velocity()
        ).total


class TestGradientDescentBaseline:
    def test_descent_reduces_objective(self, problem):
        result = GradientDescent(problem, quick_options(max_newton_iterations=5)).solve()
        assert result.num_iterations >= 1
        assert result.total_hessian_matvecs == 0
        objectives = [r.objective for r in result.iterations]
        assert objectives[-1] <= objectives[0]

    def test_newton_converges_faster_than_descent(self, problem):
        budget = 5
        newton = GaussNewtonKrylov(
            problem, quick_options(gradient_tolerance=1e-6, max_newton_iterations=budget)
        ).solve()
        descent = GradientDescent(
            problem, quick_options(gradient_tolerance=1e-6, max_newton_iterations=budget)
        ).solve()
        assert newton.final_iterate.objective.total <= descent.final_iterate.objective.total * 1.05


class TestBetaContinuation:
    def test_continuation_reduces_beta_and_residual(self, synthetic):
        problem = RegistrationProblem(
            grid=synthetic.grid,
            reference=synthetic.reference,
            template=synthetic.template,
            beta=1e-1,
        )
        continuation = BetaContinuation(
            problem,
            quick_options(max_newton_iterations=3),
            initial_beta=1e-1,
            target_beta=1e-3,
            reduction=0.1,
            det_grad_bound=0.05,
        )
        result = continuation.run()
        assert result.num_levels >= 2
        assert result.final_beta <= 1e-1
        assert result.total_hessian_matvecs > 0
        # the accepted map must satisfy the regularity bound
        accepted = [s for s in result.steps if s.accepted]
        assert all(s.det_grad_min >= 0.05 for s in accepted)

    def test_parameter_validation(self, problem):
        with pytest.raises(ValueError):
            BetaContinuation(problem, initial_beta=1e-3, target_beta=1e-1)
        with pytest.raises(ValueError):
            BetaContinuation(problem, reduction=1.5)
        with pytest.raises(ValueError):
            BetaContinuation(problem, max_levels=0)


#: The outer solvers that take an initial velocity, on a fresh problem.
OUTER_SOLVERS = {
    "gauss_newton": lambda problem: GaussNewtonKrylov(problem, quick_options()).solve,
    "gradient_descent": lambda problem: GradientDescent(problem, quick_options()).solve,
    "continuation": lambda problem: BetaContinuation(
        problem, quick_options(), initial_beta=1e-1, target_beta=1e-2
    ).run,
}


class TestInitialVelocityBoundary:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", sorted(OUTER_SOLVERS))
    def test_non_finite_initial_velocity_rejected_before_any_transform(
        self, synthetic, entry, bad
    ):
        """The driver's entry names it; no kernel sees the non-finite value."""
        problem = RegistrationProblem(
            grid=synthetic.grid, reference=synthetic.reference, template=synthetic.template
        )
        velocity = problem.zero_velocity()
        velocity[2, 1, 0, 3] = bad
        before = transforms()
        with pytest.raises(ValueError, match="initial_velocity has 1 non-finite value"):
            OUTER_SOLVERS[entry](problem)(velocity)
        assert transforms() == before

    @pytest.mark.parametrize("dtype", [np.complex128, np.bool_], ids=["complex", "bool"])
    @pytest.mark.parametrize("entry", sorted(OUTER_SOLVERS))
    def test_non_real_initial_velocity_rejected_before_any_transform(
        self, synthetic, entry, dtype
    ):
        """Casting would drop the imaginary part (numpy only warns) or read a
        mask as a velocity; the problem's start point names it instead."""
        problem = RegistrationProblem(
            grid=synthetic.grid, reference=synthetic.reference, template=synthetic.template
        )
        velocity = problem.zero_velocity().astype(dtype)
        before = transforms()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TypeError, match="initial_velocity must hold real"):
                OUTER_SOLVERS[entry](problem)(velocity)
        assert transforms() == before


class TestRegistrationFrontEnd:
    def test_register_reduces_residual(self, synthetic):
        result = register(
            synthetic.template,
            synthetic.reference,
            beta=1e-2,
            options=quick_options(),
            grid=synthetic.grid,
        )
        assert result.relative_residual < 1.0
        assert result.residual_after < result.residual_before
        assert result.is_diffeomorphic
        summary = result.summary()
        assert set(summary) >= {
            "converged",
            "newton_iterations",
            "hessian_matvecs",
            "relative_residual",
            "det_grad_min",
            "time_to_solution",
        }

    def test_incompressible_registration_is_volume_preserving(self):
        problem = synthetic_registration_problem(12, incompressible=True)
        result = register(
            problem.template,
            problem.reference,
            beta=1e-2,
            incompressible=True,
            options=quick_options(),
            grid=problem.grid,
        )
        assert abs(result.det_grad_stats["min"] - 1.0) < 0.2
        assert abs(result.det_grad_stats["max"] - 1.0) < 0.2

    def test_shape_mismatch_rejected(self, synthetic):
        with pytest.raises(ValueError):
            register(synthetic.template, synthetic.reference[:-1])

    @pytest.mark.parametrize("image", ["template", "reference"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_voxel_rejected(self, synthetic, image, bad):
        images = {"template": synthetic.template.copy(), "reference": synthetic.reference.copy()}
        images[image][3, 4, 5] = bad
        with pytest.raises(ValueError, match=f"{image} has 1 non-finite value"):
            register(images["template"], images["reference"])

    @pytest.mark.parametrize("image", ["template", "reference"])
    @pytest.mark.parametrize(
        "cast",
        [
            lambda a: a.astype(np.complex128),
            lambda a: a > a.mean(),
            lambda a: a.astype(object),
            lambda a: a.astype(str),
        ],
        ids=["complex", "bool", "object", "string"],
    )
    def test_non_real_dtype_rejected(self, synthetic, image, cast):
        """Complex (imaginary part dropped), bool and string / object images
        never reach the solver: a TypeError names the image, no ComplexWarning."""
        images = {"template": synthetic.template, "reference": synthetic.reference}
        images[image] = cast(images[image])
        with warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            with pytest.raises(TypeError, match=f"{image} must hold real"):
                register(images["template"], images["reference"])

    def test_integer_images_are_accepted(self, synthetic):
        template = np.round(255 * synthetic.template).astype(np.uint8)
        reference = np.round(255 * synthetic.reference).astype(np.int32)
        problem = RegistrationSolver().build_problem(template, reference)
        assert problem.template.dtype == problem.reference.dtype == np.float64

    def test_non_finite_voxels_are_counted_at_the_shared_boundary(self, synthetic):
        """build_problem is what register, run and continuation share."""
        template = synthetic.template.copy()
        template[0, :2, 0] = [np.nan, np.inf]
        with pytest.raises(ValueError, match="template has 2 non-finite values"):
            RegistrationSolver().build_problem(template, synthetic.reference)

    @pytest.mark.parametrize("entry", ["build_problem", "register"])
    @pytest.mark.parametrize("shape", BAD_IMAGE_SHAPES, ids=str)
    def test_images_no_grid_holds_rejected(self, shape, entry):
        """2-D, 4-D and size-0 / size-1 axes: ``Grid``'s rule, before any transform."""
        images = np.ones((2, *shape))
        before = transforms()
        with pytest.raises(ValueError, match="shape"):
            if entry == "build_problem":
                RegistrationSolver().build_problem(images[0], images[1])
            else:
                register(images[0], images[1])
        assert transforms() == before

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("layer", sorted(NORMALIZE_LAYERS))
    def test_no_normalize_option_at_any_layer(self, synthetic, layer, value):
        """Images are always normalized: naming the switch is a TypeError,
        before any transform runs."""
        before = transforms()
        with pytest.raises(TypeError, match="'normalize'"):
            NORMALIZE_LAYERS[layer](synthetic, value)
        assert transforms() == before

    def test_non_finite_initial_velocity_rejected(self, synthetic):
        velocity = np.zeros((3, *synthetic.grid.shape))
        velocity[1, 0, 0, 0] = -np.inf
        solver = RegistrationSolver(options=quick_options())
        with pytest.raises(ValueError, match="initial_velocity has 1 non-finite value"):
            solver.run(synthetic.template, synthetic.reference, initial_velocity=velocity)

    def test_complex_initial_velocity_rejected(self, synthetic):
        """``v + 1j`` used to solve from ``Re v`` after a ``ComplexWarning``."""
        velocity = np.zeros((3, *synthetic.grid.shape)) + 1j
        solver = RegistrationSolver(options=quick_options())
        with pytest.raises(TypeError, match="initial_velocity must hold real .* complex128"):
            solver.run(synthetic.template, synthetic.reference, initial_velocity=velocity)

    @pytest.mark.parametrize("entry", ["solver", "register"])
    @pytest.mark.parametrize("name", ["regularization", "optimizer"])
    def test_unknown_choice_rejected_at_construction(self, synthetic, name, entry):
        """Named at the boundary, before any image is preprocessed."""
        before = transforms()
        with pytest.raises(ValueError, match=f"{name} must be one of .*, got 'foo'"):
            if entry == "solver":
                RegistrationSolver(**{name: "foo"}, options=quick_options())
            else:
                register(synthetic.template, synthetic.reference, **{name: "foo"})
        assert transforms() == before

    @pytest.mark.parametrize(
        "name,value",
        [("regularization", name) for name in REGULARIZATIONS]
        + [("optimizer", name) for name in OPTIMIZERS],
    )
    def test_every_supported_choice_constructs(self, name, value):
        assert getattr(RegistrationSolver(**{name: value}), name) == value

    @pytest.mark.parametrize("kernel", ["linear", "catmull_rom", "cubic_bspline"])
    @pytest.mark.parametrize("layer", sorted(KERNEL_LAYERS))
    def test_no_kernel_option_at_any_layer(self, synthetic, layer, kernel):
        """One kernel: naming one, even the default, is a TypeError at every
        layer that once took it, before any transform runs."""
        before = transforms()
        with pytest.raises(TypeError, match="'interpolation'|positional arguments"):
            KERNEL_LAYERS[layer](synthetic, kernel)
        assert transforms() == before

    def test_grid_shape_must_match_images(self, synthetic):
        solver = RegistrationSolver(options=quick_options())
        with pytest.raises(ValueError):
            solver.run(synthetic.template, synthetic.reference, grid=Grid((8, 8, 8)))

    def test_gradient_descent_front_end(self, synthetic):
        result = register(
            synthetic.template,
            synthetic.reference,
            optimizer="gradient_descent",
            options=quick_options(max_newton_iterations=4),
            grid=synthetic.grid,
        )
        assert result.num_hessian_matvecs == 0
        assert result.relative_residual <= 1.0


class TestTwoPointAxis:
    """``Grid`` accepts an axis of 2 points, and nothing moves along it.

    Its spectrum holds only the ``k = 0`` and Nyquist modes, and the spectral
    derivative zeroes the Nyquist mode, so every image gradient — hence the
    body force, the reduced gradient and each Newton step — has no component
    along that axis: the velocity component there stays exactly 0, while the
    other two register as on any grid.  This is intended: a 2-point axis
    carries no resolvable displacement, and the solve must neither fail nor
    fold the map.
    """

    @pytest.mark.parametrize("shape, axis", [((2, 8, 8), 0), ((8, 8, 2), 2)], ids=str)
    def test_converges_without_motion_along_the_axis(self, shape, axis):
        i0, i1, i2 = 2 * np.pi * np.indices(shape) / np.reshape(shape, (3, 1, 1, 1))
        # varies along all three axes, the 2-point one at its Nyquist mode;
        # the reference is the template shifted one cell along axis 1
        template = np.sin(i1) * (3.0 + np.cos(i0) + np.cos(i2))
        result = register(template, np.roll(template, 1, axis=1))
        assert result.optimization.converged
        assert result.optimization.termination_reason == "gradient_tolerance"
        assert np.max(np.abs(result.velocity[axis])) == 0.0
        assert np.max(np.abs(result.velocity[1])) > 0.1
        assert result.det_grad_stats["min"] > 0.0
        assert result.relative_residual < 0.5


class TestMetrics:
    def test_residual_norms(self, synthetic):
        grid = synthetic.grid
        assert residual_norm(synthetic.reference, synthetic.reference, grid) == 0.0
        before = residual_norm(synthetic.reference, synthetic.template, grid)
        assert before > 0.0
        assert relative_residual(
            synthetic.reference, synthetic.template, synthetic.template, grid
        ) == pytest.approx(1.0)

    def test_relative_residual_of_a_perfect_match_is_zero(self, synthetic):
        grid = synthetic.grid
        assert relative_residual(
            synthetic.reference, synthetic.template, synthetic.reference, grid
        ) == 0.0

    def test_residual_norm_rejects_mismatched_shapes(self):
        grid = Grid((8, 8, 8))
        with pytest.raises(ValueError, match="images must have identical shapes"):
            residual_norm(grid.zeros(), np.zeros((8, 8, 4)), grid)

    def test_residual_norm_of_a_constant_offset(self):
        # ||c|| over the 2 pi cube is |c| * sqrt(8 pi^3)
        grid = Grid((8, 8, 8))
        offset = np.full(grid.shape, 0.5)
        assert residual_norm(offset, grid.zeros(), grid) == pytest.approx(
            0.5 * np.sqrt(8 * np.pi**3)
        )

    def test_determinant_summary_of_the_identity_map(self):
        stats = determinant_summary(np.ones((4, 4, 4)))
        assert stats == {
            "min": 1.0,
            "max": 1.0,
            "mean": 1.0,
            "std": 0.0,
            "fraction_nonpositive": 0.0,
        }

    def test_determinant_summary(self):
        det = np.array([[[0.5, 1.0], [1.5, -0.1]]])
        stats = determinant_summary(det)
        assert stats["min"] == pytest.approx(-0.1)
        assert stats["max"] == pytest.approx(1.5)
        assert stats["fraction_nonpositive"] == pytest.approx(0.25)
