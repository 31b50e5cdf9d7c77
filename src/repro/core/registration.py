"""High-level registration front end.

:func:`register` is the public entry point a downstream user calls: it takes
two images (numpy arrays), pre-processes them the way the paper does
(intensity normalization to ``[0, 1]`` and spectral Gaussian smoothing),
builds the discretized optimal-control problem, runs the preconditioned inexact
Gauss-Newton-Krylov solver (optionally with ``beta``-continuation), and
packages the outputs the paper visualizes: the velocity, the deformation
map, the deformed template, the residual before/after, and the determinant
of the deformation gradient.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.config import check_environment
from repro.core.metrics import determinant_summary, relative_residual, residual_norm
from repro.core.optim.gauss_newton import (
    GaussNewtonKrylov,
    OptimizationResult,
    SolverOptions,
)
from repro.core.optim.gradient_descent import GradientDescent
from repro.core.problem import RegistrationProblem
from repro.core.regularization import REGULARIZATIONS
from repro.data.preprocessing import normalize_intensity, smooth_image
from repro.observability.snapshot import snapshot as observability_snapshot
from repro.observability.trace import trace_span
from repro.spectral.grid import Grid
from repro.transport.deformation import DeformationMap
from repro.utils.logging import get_logger
from repro.utils.validation import (
    check_bool,
    check_choice,
    check_finite,
    check_nonnegative,
    check_positive,
    check_positive_int,
    check_real_dtype,
    check_shape_3d,
)

LOGGER = get_logger("core.registration")

#: Name and version of the JSON document :meth:`RegistrationResult.to_dict`
#: emits.  The CLI's verbose report and the job service's per-job artifacts
#: share this one schema; bump the version on any breaking field change.
#: v2: adds the embedded ``observability`` snapshot block (a
#: ``repro.observability-snapshot`` document carrying its own version).
#: v3: drops the out-of-core tile-traffic block and its two summary keys, adds
#: ``optimization.termination_reason``.
#: v4: drops the interpolation-engine summary key, adds ``optimization.iterations``
#: (one convergence record per Newton iteration).
#: v5: drops the FFT-engine summary key and the per-solve plan-pool delta (the
#: ``plan_pool`` block and its two summary keys): a registration touches no
#: pool entry, the process-wide numbers stay in the ``observability`` block.
#: v6: the embedded ``observability`` snapshot is v4 (no per-tag pool block);
#: each ``optimization.iterations`` record adds ``negative_curvature``
#: and ``gradient_fallback``, which the Newton loop already computed.
RESULT_SCHEMA = "repro.registration-result"
RESULT_SCHEMA_VERSION = 6

#: Outer optimizers :class:`RegistrationSolver` drives, by name.
_DRIVERS = {"gauss_newton": GaussNewtonKrylov, "gradient_descent": GradientDescent}
OPTIMIZERS = tuple(_DRIVERS)


def json_safe(value: Any) -> Any:
    """Recursively coerce *value* into JSON-serializable builtins.

    Result documents and service metrics legitimately carry numpy scalars
    (ledger byte counts, pool statistics, residual norms), which
    ``json.dumps`` rejects.  Small numpy arrays become lists; unknown
    objects fall back to ``str``.
    """
    if isinstance(value, dict):
        return {str(key): json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def check_settings(settings: Any) -> None:
    """Raise naming the first solve setting no solve can use.

    *settings* is a :class:`RegistrationSolver` or a service
    :class:`~repro.service.jobs.RegistrationJobSpec`, whose constructors both
    call this: ``regularization`` must be one of :data:`REGULARIZATIONS`,
    ``optimizer`` one of :data:`OPTIMIZERS`, ``num_time_steps`` a positive
    integer, ``beta`` positive and finite and ``smooth_sigma`` finite and
    ``>= 0`` (``ValueError`` otherwise).  A setting of the wrong type — a
    non-integer ``num_time_steps``, a ``beta`` or ``smooth_sigma`` that is
    not a real number, an ``incompressible`` or ``gauss_newton`` that is not
    a bool — is a ``TypeError`` naming it: no value is parsed from text.
    """
    check_choice(settings.regularization, "regularization", REGULARIZATIONS)
    check_choice(settings.optimizer, "optimizer", OPTIMIZERS)
    check_positive_int(settings.num_time_steps, "num_time_steps")
    check_positive(settings.beta, "beta")
    check_nonnegative(settings.smooth_sigma, "smooth_sigma")
    check_bool(settings.incompressible, "incompressible")
    check_bool(settings.gauss_newton, "gauss_newton")


def check_image_pair(
    template: Any, reference: Any, grid: Optional[Grid]
) -> Tuple[int, int, int]:
    """Raise naming the first rule an image pair breaks; return its shape.

    Both images must be 3-D with every axis at least 2 wide, of one shape
    and of ``grid``'s shape when a grid is given (``ValueError``), hold real
    floating-point or integer values (``TypeError``) and no NaN or infinity
    (``ValueError``).  :meth:`RegistrationSolver.build_problem` and the
    service's :class:`~repro.service.jobs.RegistrationJobSpec` both call this.
    """
    shape = check_shape_3d(np.shape(template), "template shape")
    if np.shape(reference) != shape:
        raise ValueError(
            f"template and reference must share a shape, got {shape} "
            f"and {np.shape(reference)}"
        )
    if grid is not None and grid.shape != shape:
        raise ValueError(f"grid shape {grid.shape} does not match the image shape {shape}")
    for name, image in (("template", template), ("reference", reference)):
        image = np.asarray(image)
        check_real_dtype(image.dtype, name)
        check_finite(image, name)
    return shape


@dataclass
class RegistrationResult:
    """Everything the paper reports for a single registration run.

    A finished result keeps its answer, not its solver: the velocity, its own
    deformed template, the deformation map (whose displacement is computed
    and whose plan is dropped), the records, and :attr:`problem` (the
    pre-processed pair and the operators, without per-velocity data).
    ``optimization.final_iterate`` is ``None``: the state and adjoint
    histories, the gradient stack and the plan end with the solve.
    """

    velocity: np.ndarray
    deformed_template: np.ndarray
    deformation: DeformationMap
    optimization: OptimizationResult
    residual_before: float
    residual_after: float
    relative_residual: float
    det_grad_stats: Dict[str, float]
    elapsed_seconds: float
    problem: RegistrationProblem = field(repr=False, default=None)

    @property
    def converged(self) -> bool:
        return self.optimization.converged

    @property
    def num_newton_iterations(self) -> int:
        return self.optimization.num_iterations

    @property
    def num_hessian_matvecs(self) -> int:
        return self.optimization.total_hessian_matvecs

    @property
    def is_diffeomorphic(self) -> bool:
        """True when ``det(grad y1) > 0`` everywhere (Fig. 7 criterion)."""
        return self.det_grad_stats["min"] > 0.0

    def summary(self) -> Dict[str, object]:
        """Compact dictionary used by the examples and the bench harness."""
        return {
            "converged": self.converged,
            "newton_iterations": self.num_newton_iterations,
            "hessian_matvecs": self.num_hessian_matvecs,
            "residual_before": self.residual_before,
            "residual_after": self.residual_after,
            "relative_residual": self.relative_residual,
            "det_grad_min": self.det_grad_stats["min"],
            "det_grad_max": self.det_grad_stats["max"],
            "diffeomorphic": self.is_diffeomorphic,
            "time_to_solution": self.elapsed_seconds,
        }

    def to_dict(self) -> Dict[str, object]:
        """Versioned, JSON-serializable report of this registration.

        One schema (:data:`RESULT_SCHEMA` v. :data:`RESULT_SCHEMA_VERSION`)
        shared by every consumer — the CLI's ``--verbose`` report prints it,
        the job service embeds it in the per-job artifacts — so downstream
        tooling parses a single document shape.  Array payloads (velocity,
        deformed template) are deliberately excluded; they travel as
        ``.npz`` files.
        """
        opt = self.optimization
        return {
            "schema": RESULT_SCHEMA,
            "schema_version": RESULT_SCHEMA_VERSION,
            "summary": json_safe(self.summary()),
            "optimization": {
                "converged": bool(opt.converged),
                "num_iterations": int(opt.num_iterations),
                "total_hessian_matvecs": int(opt.total_hessian_matvecs),
                "termination_reason": opt.termination_reason,
                "iterations": json_safe(opt.convergence_table()),
            },
            "det_grad": json_safe(self.det_grad_stats),
            "observability": json_safe(observability_snapshot()),
            "elapsed_seconds": float(self.elapsed_seconds),
        }


@dataclass
class RegistrationSolver:
    """Configurable registration pipeline (pre-processing + optimization).

    Parameters mirror the experimental setup of Sec. IV-A3 of the paper.

    Parameters
    ----------
    beta:
        Regularization weight.
    regularization:
        ``"h1"`` (paper's Eq. 2a), ``"h2"`` or ``"h3"``.
    incompressible:
        Enforce ``div v = 0`` (volume-preserving / "mass preserving" maps).
    num_time_steps:
        Semi-Lagrangian time steps ``nt`` (paper default 4).
    gauss_newton:
        Gauss-Newton (True, paper default) or full Newton Hessian.
    optimizer:
        ``"gauss_newton"`` or ``"gradient_descent"`` (baseline).
    smooth_sigma:
        Standard deviation of the spectral Gaussian pre-smoothing in units of
        grid cells (paper: one grid cell).  ``0`` disables smoothing.
    options:
        Solver options (tolerances, iteration caps, budget).

    A setting :func:`check_settings` refuses (an unknown ``regularization``
    or ``optimizer``, ``num_time_steps < 1``, a ``beta`` that is not positive
    and finite, a ``smooth_sigma`` that is negative or not finite, a setting
    of the wrong type) raises at construction, before any image is touched,
    and so does a malformed ``REPRO_PLAN_POOL_BYTES`` or ``REPRO_TRACE``
    (:func:`repro.config.check_environment`).  Constructing a solver writes
    no process-wide state.
    """

    beta: float = 1e-2
    regularization: str = "h1"
    incompressible: bool = False
    num_time_steps: int = 4
    gauss_newton: bool = True
    optimizer: str = "gauss_newton"
    smooth_sigma: float = 1.0
    options: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self) -> None:
        check_settings(self)
        check_environment()

    def build_problem(
        self,
        template: np.ndarray,
        reference: np.ndarray,
        grid: Optional[Grid] = None,
    ) -> RegistrationProblem:
        """Pre-process the images and assemble the discretized problem.

        Both images are rescaled to ``[0, 1]``, then smoothed.  A pair
        :func:`check_image_pair` refuses raises before either is touched.
        """
        shape = check_image_pair(template, reference, grid)
        grid = grid or Grid(shape)
        template = normalize_intensity(template)
        reference = normalize_intensity(reference)
        if self.smooth_sigma > 0:
            template = smooth_image(template, grid, sigma_cells=self.smooth_sigma)
            reference = smooth_image(reference, grid, sigma_cells=self.smooth_sigma)

        return RegistrationProblem(
            grid=grid,
            reference=reference,
            template=template,
            beta=self.beta,
            regularization=self.regularization,
            incompressible=self.incompressible,
            num_time_steps=self.num_time_steps,
            gauss_newton=self.gauss_newton,
        )

    def run(
        self,
        template: np.ndarray,
        reference: np.ndarray,
        grid: Optional[Grid] = None,
        initial_velocity: Optional[np.ndarray] = None,
    ) -> RegistrationResult:
        """Register *template* to *reference* and collect the diagnostics."""
        start = time.perf_counter()
        with trace_span(
            "registration.solve",
            optimizer=self.optimizer,
            nt=self.num_time_steps,
        ) as root_span:
            problem = self.build_problem(template, reference, grid)
            root_span.set_attr("shape", list(problem.grid.shape))

            driver = _DRIVERS[self.optimizer](problem, self.options)
            optimization = driver.solve(initial_velocity)

            final, optimization.final_iterate = optimization.final_iterate, None
            deformation = DeformationMap(
                problem.grid,
                optimization.velocity,
                transport=problem.transport,
                plan=final.plan,
            )
            deformation.displacement()  # the final plan's last reader
            # its own array: the result does not pin the (nt + 1)-level history
            deformed_template = final.deformed_template.copy()
            # the solve is over: a finished result (or service job) keeps its
            # answer, not the iterate, a gather operator, a kept trial or a
            # live-iterate slot — all gone before the determinant's Jacobian
            final = None
            problem.release()
            res_before = residual_norm(problem.reference, problem.template, problem.grid)
            res_after = residual_norm(problem.reference, deformed_template, problem.grid)
            det_stats = determinant_summary(deformation.determinant())
        elapsed = time.perf_counter() - start

        LOGGER.info(
            "registration finished: residual %.3e -> %.3e, det(grad y) in [%.3f, %.3f]",
            res_before,
            res_after,
            det_stats["min"],
            det_stats["max"],
        )
        return RegistrationResult(
            velocity=optimization.velocity,
            deformed_template=deformed_template,
            deformation=deformation,
            optimization=optimization,
            residual_before=res_before,
            residual_after=res_after,
            relative_residual=relative_residual(
                problem.reference, problem.template, deformed_template, problem.grid
            ),
            det_grad_stats=det_stats,
            elapsed_seconds=elapsed,
            problem=problem,
        )


def register(
    template: np.ndarray,
    reference: np.ndarray,
    beta: float = 1e-2,
    regularization: str = "h1",
    incompressible: bool = False,
    num_time_steps: int = 4,
    gauss_newton: bool = True,
    optimizer: str = "gauss_newton",
    options: Optional[SolverOptions] = None,
    grid: Optional[Grid] = None,
    smooth_sigma: float = 1.0,
) -> RegistrationResult:
    """Register *template* onto *reference* (functional convenience wrapper).

    See :class:`RegistrationSolver` for the meaning of every parameter.
    The pool budget and tracing are process-wide settings
    (:mod:`repro.config`), not arguments of a solve.

    Examples
    --------
    >>> from repro.data.synthetic import synthetic_registration_problem
    >>> problem = synthetic_registration_problem(16)
    >>> result = register(problem.template, problem.reference, beta=1e-2)
    >>> result.relative_residual < 1.0
    True
    """
    solver = RegistrationSolver(
        beta=beta,
        regularization=regularization,
        incompressible=incompressible,
        num_time_steps=num_time_steps,
        gauss_newton=gauss_newton,
        optimizer=optimizer,
        options=options or SolverOptions(),
        smooth_sigma=smooth_sigma,
    )
    return solver.run(template, reference, grid=grid)
