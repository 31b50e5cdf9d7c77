"""Atlas (population) registration: the service's first batch workload.

Atlas construction registers every subject image of a population to one
fixed reference (the atlas/template) — the paper's clinical motivation for
a *fast* solver is exactly such population studies, where "a single study
may require thousands of registrations".  The workload is embarrassingly
parallel across subjects: every registration shares the grid and the
regularization (spectral symbols are cached per grid), while each solve's
per-velocity planning data is its own and is released when it ends.

:func:`run_atlas` drives the workload through a
:class:`~repro.service.workers.RegistrationService`: submit one
registration job per subject, gather, and average the deformed subjects
into the updated atlas estimate (one fixed-template iteration of the
classical iterative atlas-building loop).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.service.jobs import JOB_CLASS_ATLAS, Job, RegistrationJobSpec
from repro.service.workers import RegistrationService

__all__ = ["AtlasResult", "run_atlas", "submit_atlas"]


@dataclass
class AtlasResult:
    """Outcome of one fixed-template atlas pass."""

    #: Per-subject registration results (``None`` where a job failed and
    #: ``raise_on_error=False`` kept the survivors).
    results: List[Any]
    #: Per-subject job handles (status, metrics, timings).
    jobs: List[Job]
    #: Mean of the deformed subjects — the updated atlas estimate.
    mean_deformed: Optional[np.ndarray]

    @property
    def num_succeeded(self) -> int:
        return sum(1 for result in self.results if result is not None)

    @property
    def num_failed(self) -> int:
        return len(self.results) - self.num_succeeded

    def summary(self) -> Dict[str, Any]:
        """Compact population-level report (used by the CLI and the bench)."""
        residuals = [
            result.relative_residual for result in self.results if result is not None
        ]
        return {
            "num_subjects": len(self.results),
            "num_succeeded": self.num_succeeded,
            "num_failed": self.num_failed,
            "mean_relative_residual": float(np.mean(residuals)) if residuals else None,
            "max_relative_residual": float(np.max(residuals)) if residuals else None,
            "all_diffeomorphic": all(
                result.is_diffeomorphic for result in self.results if result is not None
            ),
        }


def submit_atlas(
    service: RegistrationService,
    reference: np.ndarray,
    movings: Sequence[np.ndarray],
    **register_kwargs: Any,
) -> List[Job]:
    """Queue one registration job per subject; returns the handles.

    *register_kwargs* are forwarded into every
    :class:`~repro.service.jobs.RegistrationJobSpec` (``beta``,
    ``num_time_steps``, ``options``, ...), so the whole population runs
    under one set of solver parameters.  Atlas jobs submit under the
    ``atlas-burst`` job class by default, so the queue's weighted claiming
    keeps interactive registrations flowing through a population burst.
    A subject whose shape is not the reference's is a :class:`ValueError`
    before any job is queued.
    """
    register_kwargs.setdefault("job_class", JOB_CLASS_ATLAS)
    # every spec is checked (shapes, settings) before any job is queued
    specs = [
        RegistrationJobSpec(template=moving, reference=reference, **register_kwargs)
        for moving in movings
    ]
    return [service.submit_registration(spec) for spec in specs]


def run_atlas(
    reference: np.ndarray,
    movings: Sequence[np.ndarray],
    service: Optional[RegistrationService] = None,
    raise_on_error: bool = True,
    **register_kwargs: Any,
) -> AtlasResult:
    """Register every subject in *movings* to *reference* through the service.

    Parameters
    ----------
    reference:
        The fixed atlas/template image.
    movings:
        The subject images (all sharing the reference's shape).
    service:
        Service to run on; when omitted a private one is created (with its
        defaults) and shut down afterwards.
    raise_on_error:
        ``True`` propagates the first failed subject; ``False`` records
        ``None`` for failures and averages the survivors.
    register_kwargs:
        Forwarded to every subject's registration (see :func:`submit_atlas`).
    """
    if not len(movings):
        raise ValueError("movings must contain at least one subject image")
    owned = service is None
    if service is None:
        service = RegistrationService()
    try:
        jobs = submit_atlas(service, reference, movings, **register_kwargs)
        results = service.gather(jobs, raise_on_error=raise_on_error)
    finally:
        if owned:
            service.shutdown()
    deformed = [result.deformed_template for result in results if result is not None]
    mean_deformed = np.mean(deformed, axis=0) if deformed else None
    return AtlasResult(results=results, jobs=jobs, mean_deformed=mean_deformed)
