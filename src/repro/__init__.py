"""repro — reproduction of "Distributed-Memory Large Deformation
Diffeomorphic 3D Image Registration" (Mang, Gholami, Biros; SC 2016).

The package is organized bottom-up, mirroring the structure of the paper:

* :mod:`repro.spectral` — Fourier discretization in space (Sec. III-B1),
* :mod:`repro.transport` — semi-Lagrangian transport in time (Sec. III-B2),
* :mod:`repro.runtime` — the execution runtime: the LRU plan pool with
  byte-accurate accounting (the distributed scatter plans' cache and the
  residency budget) and cooperative cancellation,
* :mod:`repro.core` — the optimal-control registration problem and the
  preconditioned inexact Gauss-Newton-Krylov solver (Sec. II-B, III-A),
* :mod:`repro.parallel` — the distributed-memory substrate: pencil
  decomposition, ghost exchange, semi-Lagrangian scatter and distributed
  transport, and the analytic performance model used to reproduce the
  scaling studies (Sec. III-C, IV),
* :mod:`repro.service` — the async job layer: queued registrations,
  one compute lane, transport micro-batching and the atlas workload,
* :mod:`repro.data` — the synthetic problem of Fig. 5 and the brain-phantom
  substitute for the NIREP data,
* :mod:`repro.analysis` — scaling analysis, table formatting and the paper's
  reference tables.

This module is the stable facade: everything a downstream user needs for
the two supported calling styles is importable from ``repro`` directly.

Synchronous quick start
-----------------------
>>> from repro import register
>>> from repro.data.synthetic import synthetic_registration_problem
>>> prob = synthetic_registration_problem(16)
>>> result = register(prob.template, prob.reference, beta=1e-2)
>>> result.relative_residual < 1.0
True

Queued (service) style: a script owns a :class:`repro.RegistrationService`
and submits :class:`repro.service.RegistrationJobSpec` jobs to it (see
:mod:`repro.service`); there is no process-wide default service.

The two process-wide settings, the plan pool's budget and tracing, are read
from ``REPRO_PLAN_POOL_BYTES`` and ``REPRO_TRACE`` (see :mod:`repro.config`);
every other setting is an argument of the call that uses it.
"""

from repro.core.optim.gauss_newton import SolverOptions
from repro.core.registration import RegistrationResult, RegistrationSolver, register
from repro.service import Job, JobStatus, RegistrationService
from repro.spectral.grid import Grid

__version__ = "1.1.0"

__all__ = [
    "Grid",
    "Job",
    "JobStatus",
    "RegistrationResult",
    "RegistrationService",
    "RegistrationSolver",
    "SolverOptions",
    "__version__",
    "register",
]
