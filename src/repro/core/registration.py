"""High-level registration front end.

:func:`register` is the public entry point a downstream user calls: it takes
two images (numpy arrays), pre-processes them the way the paper does
(intensity normalization and spectral Gaussian smoothing), builds the
discretized optimal-control problem, runs the preconditioned inexact
Gauss-Newton-Krylov solver (optionally with ``beta``-continuation), and
packages the outputs the paper visualizes: the velocity, the deformation
map, the deformed template, the residual before/after, and the determinant
of the deformation gradient.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.config import RegistrationConfig
from repro.core.metrics import determinant_summary, relative_residual, residual_norm
from repro.core.optim.gauss_newton import (
    GaussNewtonKrylov,
    OptimizationResult,
    SolverOptions,
)
from repro.core.optim.gradient_descent import GradientDescent
from repro.core.problem import RegistrationProblem
from repro.data.preprocessing import normalize_intensity, smooth_image
from repro.observability.snapshot import snapshot as observability_snapshot
from repro.observability.trace import trace_span
from repro.runtime.plan_pool import PoolStats, get_plan_pool
from repro.spectral.grid import Grid
from repro.transport.deformation import DeformationMap
from repro.utils.logging import get_logger
from repro.utils.validation import check_finite

LOGGER = get_logger("core.registration")

#: Name and version of the JSON document :meth:`RegistrationResult.to_dict`
#: emits.  The CLI's verbose report and the job service's per-job artifacts
#: share this one schema; bump the version on any breaking field change.
#: v2: adds the embedded ``observability`` snapshot block (a
#: ``repro.observability-snapshot`` document carrying its own version).
#: v3: drops the out-of-core tile-traffic block and its two summary keys, adds
#: ``optimization.termination_reason``.
RESULT_SCHEMA = "repro.registration-result"
RESULT_SCHEMA_VERSION = 3

_legacy_kwargs_warned = False


def _warn_legacy_backend_kwargs() -> None:
    """One-per-process deprecation warning for the pre-config kwargs."""
    global _legacy_kwargs_warned
    if _legacy_kwargs_warned:
        return
    _legacy_kwargs_warned = True
    warnings.warn(
        "passing fft_backend/interp_backend to register() directly is "
        "deprecated; bundle them in a repro.RegistrationConfig "
        "(register(..., config=RegistrationConfig(fft_backend=...)))",
        DeprecationWarning,
        stacklevel=3,
    )


def _jsonable(value):
    """Coerce numpy scalars (and nested containers) to plain JSON types."""
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    return value


@dataclass
class RegistrationResult:
    """Everything the paper reports for a single registration run."""

    velocity: np.ndarray
    deformed_template: np.ndarray
    deformation: DeformationMap
    optimization: OptimizationResult
    residual_before: float
    residual_after: float
    relative_residual: float
    det_grad_stats: Dict[str, float]
    elapsed_seconds: float
    plan_pool: Optional[PoolStats] = None
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
            "fft_backend": (
                self.problem.operators.fft.backend_name if self.problem is not None else "?"
            ),
            "interp_backend": (
                self.problem.transport.interpolator.backend_name
                if self.problem is not None
                else "?"
            ),
            "plan_pool_hits": self.plan_pool.hits if self.plan_pool is not None else 0,
            "plan_pool_misses": self.plan_pool.misses if self.plan_pool is not None else 0,
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
            "summary": _jsonable(self.summary()),
            "optimization": {
                "converged": bool(opt.converged),
                "num_iterations": int(opt.num_iterations),
                "total_hessian_matvecs": int(opt.total_hessian_matvecs),
                "termination_reason": opt.termination_reason,
            },
            "det_grad": _jsonable(self.det_grad_stats),
            "plan_pool": (
                _jsonable(self.plan_pool.as_dict()) if self.plan_pool is not None else None
            ),
            "observability": _jsonable(observability_snapshot()),
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
    normalize:
        Rescale both images to ``[0, 1]`` before registration.
    options:
        Solver options (tolerances, iteration caps, preconditioner variant).
    interpolation:
        Off-grid interpolation kernel for the semi-Lagrangian scheme.
    fft_backend:
        FFT engine for every spectral operation of the pipeline
        (``"numpy"``, ``"scipy"``, ``"pyfftw"``, a backend instance, or
        ``None`` for the ``REPRO_FFT_BACKEND`` / numpy default).
    interp_backend:
        Interpolation engine for every semi-Lagrangian gather of the
        pipeline (``"scipy"``, ``"numpy"``, ``"numba"``, a backend
        instance, or ``None`` for the ``REPRO_INTERP_BACKEND`` / scipy
        default).
    config:
        Consolidated execution configuration
        (:class:`repro.config.RegistrationConfig`).  When provided it is
        applied process-wide (worker default, pool budget, gradient cache,
        tracing) and supplies the FFT/interpolation engines
        unless the explicit ``fft_backend``/``interp_backend`` arguments
        override them.
    """

    beta: float = 1e-2
    regularization: str = "h1"
    incompressible: bool = False
    num_time_steps: int = 4
    gauss_newton: bool = True
    optimizer: str = "gauss_newton"
    smooth_sigma: float = 1.0
    normalize: bool = True
    options: SolverOptions = field(default_factory=SolverOptions)
    interpolation: str = "cubic_bspline"
    fft_backend: Optional[object] = None
    interp_backend: Optional[object] = None
    config: Optional[RegistrationConfig] = None

    def __post_init__(self) -> None:
        if self.config is None:
            return
        self.config.apply()
        if self.fft_backend is None:
            self.fft_backend = self.config.fft_backend
        if self.interp_backend is None:
            self.interp_backend = self.config.interp_backend

    def build_problem(
        self,
        template: np.ndarray,
        reference: np.ndarray,
        grid: Optional[Grid] = None,
    ) -> RegistrationProblem:
        """Pre-process the images and assemble the discretized problem."""
        template = np.asarray(template, dtype=np.float64)
        reference = np.asarray(reference, dtype=np.float64)
        if template.shape != reference.shape:
            raise ValueError(
                f"template and reference must share a shape, got {template.shape} "
                f"and {reference.shape}"
            )
        grid = grid or Grid(template.shape)
        if grid.shape != template.shape:
            raise ValueError(
                f"grid shape {grid.shape} does not match the image shape {template.shape}"
            )
        check_finite(template, "template")
        check_finite(reference, "reference")

        if self.normalize:
            template = normalize_intensity(template)
            reference = normalize_intensity(reference)
        if self.smooth_sigma > 0:
            template = smooth_image(
                template, grid, sigma_cells=self.smooth_sigma, backend=self.fft_backend
            )
            reference = smooth_image(
                reference, grid, sigma_cells=self.smooth_sigma, backend=self.fft_backend
            )

        return RegistrationProblem(
            grid=grid,
            reference=reference,
            template=template,
            beta=self.beta,
            regularization=self.regularization,
            incompressible=self.incompressible,
            num_time_steps=self.num_time_steps,
            gauss_newton=self.gauss_newton,
            interpolation=self.interpolation,
            fft_backend=self.fft_backend,
            interp_backend=self.interp_backend,
        )

    def run(
        self,
        template: np.ndarray,
        reference: np.ndarray,
        grid: Optional[Grid] = None,
        initial_velocity: Optional[np.ndarray] = None,
    ) -> RegistrationResult:
        """Register *template* to *reference* and collect the diagnostics."""
        if initial_velocity is not None:
            check_finite(np.asarray(initial_velocity), "initial_velocity")
        start = time.perf_counter()
        pool_before = get_plan_pool().stats
        with trace_span(
            "registration.solve",
            optimizer=self.optimizer,
            nt=self.num_time_steps,
        ) as root_span:
            problem = self.build_problem(template, reference, grid)
            root_span.set_attr("shape", list(problem.grid.shape))

            if self.optimizer == "gauss_newton":
                driver = GaussNewtonKrylov(problem, self.options)
            elif self.optimizer == "gradient_descent":
                driver = GradientDescent(problem, self.options)
            else:
                raise ValueError(
                    f"unknown optimizer {self.optimizer!r}; expected 'gauss_newton' or "
                    "'gradient_descent'"
                )
            optimization = driver.solve(initial_velocity)

            deformation = DeformationMap(
                problem.grid,
                optimization.velocity,
                transport=problem.transport,
                plan=optimization.final_iterate.plan,
            )
            deformed_template = optimization.final_iterate.deformed_template
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
            plan_pool=get_plan_pool().stats - pool_before,
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
    normalize: bool = True,
    interpolation: str = "cubic_bspline",
    fft_backend: Optional[object] = None,
    interp_backend: Optional[object] = None,
    config: Optional[RegistrationConfig] = None,
) -> RegistrationResult:
    """Register *template* onto *reference* (functional convenience wrapper).

    See :class:`RegistrationSolver` for the meaning of every parameter.
    Execution knobs (backends, workers, pool budget) belong in
    *config* (:class:`repro.config.RegistrationConfig`); the bare
    ``fft_backend``/``interp_backend`` keywords are the legacy spelling and
    warn (once per process) when used.

    Examples
    --------
    >>> from repro.data.synthetic import synthetic_registration_problem
    >>> problem = synthetic_registration_problem(16)
    >>> result = register(problem.template, problem.reference, beta=1e-2)
    >>> result.relative_residual < 1.0
    True
    """
    if fft_backend is not None or interp_backend is not None:
        _warn_legacy_backend_kwargs()
    solver = RegistrationSolver(
        beta=beta,
        regularization=regularization,
        incompressible=incompressible,
        num_time_steps=num_time_steps,
        gauss_newton=gauss_newton,
        optimizer=optimizer,
        options=options or SolverOptions(),
        smooth_sigma=smooth_sigma,
        normalize=normalize,
        interpolation=interpolation,
        fft_backend=fft_backend,
        interp_backend=interp_backend,
        config=config,
    )
    return solver.run(template, reference, grid=grid)
