"""Command-line interface.

Three subcommands are provided so the solver can be driven without writing
Python:

``repro-register register``
    Register a template onto a reference image.  Inputs are either an
    ``.npz`` problem file (as written by :func:`repro.data.io.save_problem`,
    i.e. arrays ``reference`` and ``template``), or one of the built-in
    problems (``--synthetic N``, ``--brain N``) used throughout the paper's
    evaluation.  The resulting velocity, deformed template and determinant
    map are written to an ``.npz`` file.

``repro-register scaling``
    Print one of the paper's scaling tables (I-IV) next to the projection of
    the calibrated performance model, or a custom configuration
    (``--grid N --tasks p --machine maverick``).

``repro-register serve`` (also installed as ``repro-serve``)
    Run an atlas (population) workload through the registration service:
    every subject image is queued as a job, a worker pool executes the
    solves sharing the process-wide plan pool, and per-job JSON artifacts
    can be journaled with ``--artifacts-dir``.  With ``--http PORT`` (or
    ``$REPRO_HTTP_PORT``) the command instead runs a long-lived service
    exposing the stdlib HTTP front (``POST /jobs``, ``GET /jobs/<id>``,
    ``DELETE /jobs/<id>``, ``GET /stats``); with ``--journal DIR`` (or
    ``$REPRO_SERVICE_JOURNAL``) every submission is crash-safe — a killed
    service re-queues its unfinished jobs on restart.

Execution knobs (``--fft-backend``, ``--plan-pool-bytes``, ``--workers``, ...)
are shared by ``register`` and ``serve``; internally they are layered onto
a :class:`repro.config.RegistrationConfig` (flags beat config fields beat
``REPRO_*`` environment variables beat built-in defaults).

Examples
--------
::

    repro-register register --synthetic 32 --beta 1e-2 --output result.npz
    repro-register register --input pair.npz --incompressible --output result.npz
    repro-register scaling --table I
    repro-register scaling --grid 256 --tasks 512 --machine stampede
    repro-serve --synthetic 16 --subjects 4 --max-batch 4 --output atlas.npz
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

import numpy as np

from repro.analysis.experiments import reproduce_scaling_table
from repro.analysis.reporting import format_breakdown_table, format_rows
from repro.config import RegistrationConfig, env_http_port
from repro.core.gradients import gradient_cache_decision_log
from repro.core.optim.gauss_newton import SolverOptions
from repro.core.registration import RegistrationSolver
from repro.data.brain import brain_registration_pair
from repro.data.io import load_problem
from repro.data.synthetic import synthetic_population, synthetic_registration_problem
from repro.observability import (
    env_trace_out,
    format_phase_table,
    tracing_enabled,
    write_chrome_trace,
)
from repro.parallel.machines import get_machine
from repro.parallel.performance import RegistrationCostModel
from repro.runtime import get_plan_pool
from repro.spectral.backends import (
    BackendUnavailableError,
    available_backends,
    registered_backends,
)
from repro.transport.kernels import (
    available_backends as available_interp_backends,
    registered_backends as registered_interp_backends,
)
from repro.utils.logging import set_verbosity


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    """Execution-configuration flags shared by ``register`` and ``serve``.

    Each flag maps onto one :class:`repro.config.RegistrationConfig` field
    (see :func:`_config_from_args`); leaving a flag unset defers to the
    config/environment defaults.
    """
    sub.add_argument(
        "--fft-backend",
        choices=registered_backends(),
        default=None,
        help=(
            "FFT engine for the spectral kernels (default: $REPRO_FFT_BACKEND "
            f"or 'numpy'; available here: {', '.join(available_backends())})"
        ),
    )
    sub.add_argument(
        "--interp-backend",
        choices=registered_interp_backends(),
        default=None,
        help=(
            "gather engine for the semi-Lagrangian interpolation (default: "
            "$REPRO_INTERP_BACKEND or 'scipy'; available here: "
            f"{', '.join(available_interp_backends())})"
        ),
    )
    sub.add_argument(
        "--plan-pool-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help=(
            "memory budget of the shared execution-plan pool (default: "
            "$REPRO_PLAN_POOL_BYTES or 512 MiB; 0 disables plan caching)"
        ),
    )
    sub.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "shared worker count of every subsystem, service threads included (default: "
            "$REPRO_WORKERS, else each subsystem's own); $REPRO_FFT_WORKERS / "
            "$REPRO_INTERP_WORKERS / $REPRO_SERVICE_WORKERS override it"
        ),
    )
    sub.add_argument(
        "--trace",
        action="store_true",
        default=None,
        help=(
            "record structured tracing spans for every solver/runtime phase "
            "(default: $REPRO_TRACE; results are bitwise unchanged)"
        ),
    )
    sub.add_argument(
        "--trace-out",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "write the recorded spans as Chrome trace-event JSON to PATH "
            "(loadable in Perfetto / chrome://tracing; implies --trace; "
            "default: $REPRO_TRACE_OUT)"
        ),
    )


def _config_from_args(
    args: argparse.Namespace, base: Optional[RegistrationConfig] = None
) -> RegistrationConfig:
    """Layer the CLI's configuration flags over *base* (flags win)."""
    base = base if base is not None else RegistrationConfig()
    overrides = {
        "fft_backend": args.fft_backend,
        "interp_backend": args.interp_backend,
        "plan_pool_bytes": args.plan_pool_bytes,
        "workers": args.workers,
        "trace": args.trace,
        "trace_out": args.trace_out,
    }
    return base.replace(**{name: value for name, value in overrides.items() if value is not None})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-register",
        description="Large-deformation diffeomorphic 3D image registration (SC16 reproduction)",
    )
    parser.add_argument("--verbose", action="store_true", help="print per-iteration progress")
    subparsers = parser.add_subparsers(dest="command", required=True)

    reg = subparsers.add_parser("register", help="run a registration")
    source = reg.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", type=str, help=".npz file with 'reference' and 'template'")
    source.add_argument(
        "--synthetic", type=int, metavar="N", help="use the paper's synthetic problem at N^3"
    )
    source.add_argument(
        "--brain", type=int, metavar="N", help="use the brain-phantom pair at base resolution N"
    )
    reg.add_argument("--output", type=str, default=None, help="output .npz path")
    reg.add_argument("--beta", type=float, default=1e-2, help="regularization weight")
    reg.add_argument(
        "--regularization", choices=("h1", "h2", "h3"), default="h1", help="Sobolev seminorm"
    )
    reg.add_argument("--incompressible", action="store_true", help="enforce div v = 0")
    reg.add_argument("--nt", type=int, default=4, help="semi-Lagrangian time steps")
    reg.add_argument("--gtol", type=float, default=1e-2, help="relative gradient tolerance")
    reg.add_argument("--max-newton", type=int, default=20, help="maximum Newton iterations")
    reg.add_argument("--max-krylov", type=int, default=50, help="maximum PCG iterations per step")
    reg.add_argument(
        "--optimizer",
        choices=("gauss_newton", "gradient_descent"),
        default="gauss_newton",
        help="outer optimizer",
    )
    _add_config_flags(reg)

    serve = subparsers.add_parser(
        "serve",
        help="run an atlas (population) workload through the job service",
        description=(
            "Queue one registration job per subject image against a fixed "
            "atlas/reference, execute them on a worker pool sharing the "
            "process-wide plan pool, and report population-level results "
            "plus service statistics."
        ),
    )
    # SUPPRESS: only set when present, so the top-level --verbose survives
    serve.add_argument(
        "--verbose",
        action="store_true",
        default=argparse.SUPPRESS,
        help="print per-iteration progress",
    )
    # not required: --http mode serves submissions instead of a population
    serve_source = serve.add_mutually_exclusive_group(required=False)
    serve_source.add_argument(
        "--input",
        type=str,
        default=None,
        help=".npz file with 'reference' (N1,N2,N3) and 'subjects' (K,N1,N2,N3)",
    )
    serve_source.add_argument(
        "--synthetic",
        type=int,
        default=None,
        metavar="N",
        help="use a synthetic population at N^3 (see --subjects)",
    )
    serve.add_argument(
        "--subjects", type=int, default=4, metavar="K", help="synthetic population size"
    )
    serve.add_argument("--output", type=str, default=None, help="output .npz path")
    serve.add_argument("--beta", type=float, default=1e-2, help="regularization weight")
    serve.add_argument(
        "--regularization", choices=("h1", "h2", "h3"), default="h1", help="Sobolev seminorm"
    )
    serve.add_argument("--incompressible", action="store_true", help="enforce div v = 0")
    serve.add_argument("--nt", type=int, default=4, help="semi-Lagrangian time steps")
    serve.add_argument("--gtol", type=float, default=1e-2, help="relative gradient tolerance")
    serve.add_argument("--max-newton", type=int, default=20, help="maximum Newton iterations")
    serve.add_argument(
        "--max-krylov", type=int, default=50, help="maximum PCG iterations per step"
    )
    serve.add_argument(
        "--num-workers",
        type=int,
        default=None,
        metavar="N",
        help="service worker threads (default: $REPRO_SERVICE_WORKERS or 1: solves hold the GIL)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=4,
        metavar="B",
        help="micro-batch size cap for compatible transport jobs (1 disables batching)",
    )
    serve.add_argument(
        "--artifacts-dir",
        type=str,
        default=None,
        metavar="DIR",
        help="journal every finished job to DIR/job-<id>.json",
    )
    serve.add_argument(
        "--journal",
        type=str,
        default=None,
        metavar="DIR",
        help=(
            "durable job journal directory (default: $REPRO_SERVICE_JOURNAL); "
            "submissions are fsync'd before they are acknowledged and a "
            "restarted service re-queues unfinished jobs"
        ),
    )
    serve.add_argument(
        "--http",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "serve submissions over HTTP on PORT instead of running an atlas "
            "workload (default: $REPRO_HTTP_PORT; 0 binds any free port)"
        ),
    )
    serve.add_argument(
        "--http-host",
        type=str,
        default="127.0.0.1",
        metavar="HOST",
        help="bind address of the HTTP front (default: 127.0.0.1)",
    )
    _add_config_flags(serve)

    scal = subparsers.add_parser("scaling", help="print paper-vs-model scaling tables")
    scal.add_argument("--table", choices=("I", "II", "III", "IV"), default=None)
    scal.add_argument("--grid", type=int, default=None, help="grid points per dimension")
    scal.add_argument("--tasks", type=int, default=None, help="number of MPI tasks")
    scal.add_argument(
        "--machine",
        choices=("maverick", "maverick-2tpn", "stampede"),
        default="maverick",
    )
    scal.add_argument("--matvecs", type=int, default=2, help="Hessian mat-vecs to assume")
    scal.add_argument("--newton", type=int, default=2, help="Newton iterations to assume")
    return parser


def _export_trace(config: RegistrationConfig) -> Optional[str]:
    """Write the Chrome trace file when tracing is on and a path is set."""
    if not tracing_enabled():
        return None
    path = config.trace_out if config.trace_out is not None else env_trace_out()
    if not path:
        return None
    write_chrome_trace(path)
    return path


def _load_pair(args: argparse.Namespace):
    if args.input:
        data = load_problem(args.input)
        return data["reference"], data["template"], data["grid"]
    if args.synthetic:
        problem = synthetic_registration_problem(
            args.synthetic, incompressible=args.incompressible
        )
        return problem.reference, problem.template, problem.grid
    pair = brain_registration_pair(base_resolution=args.brain)
    return pair.reference, pair.template, pair.grid


def _run_register(
    args: argparse.Namespace, base_config: Optional[RegistrationConfig] = None
) -> int:
    try:
        # construct, validate and apply every knob (flag or environment)
        # early, for a clean error message before any data is loaded
        config = _config_from_args(args, base_config).apply()
    except (BackendUnavailableError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reference, template, grid = _load_pair(args)
    options = SolverOptions(
        gradient_tolerance=args.gtol,
        max_newton_iterations=args.max_newton,
        max_krylov_iterations=args.max_krylov,
        verbose=args.verbose,
    )
    solver = RegistrationSolver(
        beta=args.beta,
        regularization=args.regularization,
        incompressible=args.incompressible,
        num_time_steps=args.nt,
        optimizer=args.optimizer,
        options=options,
        config=config,
    )
    result = solver.run(template, reference, grid=grid)
    print(format_rows([result.summary()], title="Registration summary"))
    if args.verbose:
        # the same versioned document the service journals per job
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        pool = get_plan_pool()
        stats = pool.stats
        print(
            f"plan pool: {stats.hits} hits, {stats.misses} misses, "
            f"{stats.evictions} evictions, {stats.current_bytes} bytes resident "
            f"(peak {stats.peak_bytes})"
        )
        for tag, tag_stats in pool.stats_by_tag().items():
            print(
                f"  {tag}: {tag_stats.hits} hits, {tag_stats.misses} misses, "
                f"{tag_stats.entries} entries, {tag_stats.current_bytes} bytes"
            )
        cache_decisions = gradient_cache_decision_log()
        if cache_decisions.total:
            counts = ", ".join(
                f"{mode}: {count}"
                for mode, count in cache_decisions.counts().items()
            )
            print(
                f"gradient cache: {cache_decisions.total} decisions ({counts})"
            )
            last = cache_decisions.recent()[-1]
            print(
                f"  last: {last.mode} for {last.num_levels} levels "
                f"({last.reason})"
            )
        phase_table = format_phase_table()
        if phase_table:
            print("phase timings (traced spans):")
            print(phase_table)
    trace_path = _export_trace(config)
    if trace_path:
        print(f"trace written to {trace_path}")
    if args.output:
        np.savez_compressed(
            args.output,
            velocity=result.velocity,
            deformed_template=result.deformed_template,
            determinant=result.deformation.determinant(),
            residual_before=result.residual_before,
            residual_after=result.residual_after,
        )
        print(f"result written to {args.output}")
    return 0 if result.relative_residual < 1.0 else 1


def _load_population(args: argparse.Namespace):
    if args.input:
        with np.load(args.input) as data:
            if "reference" not in data or "subjects" not in data:
                raise ValueError(
                    f"{args.input} must contain 'reference' (N1,N2,N3) and "
                    "'subjects' (K,N1,N2,N3) arrays"
                )
            return np.asarray(data["reference"]), list(np.asarray(data["subjects"]))
    population = synthetic_population(
        args.synthetic,
        num_subjects=args.subjects,
        num_time_steps=args.nt,
        incompressible=args.incompressible,
    )
    return population.atlas, population.subjects


def _run_http_service(
    args: argparse.Namespace, config: RegistrationConfig, port: int
) -> int:
    """Long-lived server mode: submissions arrive over HTTP, not argv."""
    import threading

    from repro.service import RegistrationService
    from repro.service.http import serve_http

    with RegistrationService(
        config=config,
        num_workers=args.num_workers,
        max_batch=args.max_batch,
        artifacts_dir=args.artifacts_dir,
        journal_dir=args.journal,
    ) as service:
        if service.recovered_jobs:
            print(f"journal: re-queued {len(service.recovered_jobs)} unfinished job(s)")
        server = serve_http(service, port, host=args.http_host)
        print(f"service listening on http://{args.http_host}:{server.port}", flush=True)
        try:
            # serve_forever runs on the daemon thread; park this one
            threading.Event().wait()
        except KeyboardInterrupt:
            print("shutting down", file=sys.stderr)
        finally:
            server.shutdown()
    return 0


def _run_serve(
    args: argparse.Namespace, base_config: Optional[RegistrationConfig] = None
) -> int:
    # imported here: the service pulls in the whole parallel stack, which the
    # plain register/scaling paths never need
    from repro.service import RegistrationService, run_atlas

    try:
        http_port = args.http if args.http is not None else env_http_port()
        if http_port is not None and not 0 <= http_port <= 65535:
            raise ValueError(f"--http port must lie in [0, 65535], got {http_port}")
        config = _config_from_args(args, base_config).apply()
        if http_port is not None:
            if args.input is not None or args.synthetic is not None:
                raise ValueError("--http serves submissions; drop --input/--synthetic")
            return _run_http_service(args, config, http_port)
        if args.input is None and args.synthetic is None:
            raise ValueError("one of --input, --synthetic or --http is required")
        reference, subjects = _load_population(args)
    except (BackendUnavailableError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    options = SolverOptions(
        gradient_tolerance=args.gtol,
        max_newton_iterations=args.max_newton,
        max_krylov_iterations=args.max_krylov,
        verbose=args.verbose,
    )
    with RegistrationService(
        config=config,
        num_workers=args.num_workers,
        max_batch=args.max_batch,
        artifacts_dir=args.artifacts_dir,
        journal_dir=args.journal,
    ) as service:
        atlas = run_atlas(
            reference,
            subjects,
            service=service,
            raise_on_error=False,
            beta=args.beta,
            regularization=args.regularization,
            incompressible=args.incompressible,
            num_time_steps=args.nt,
            options=options,
        )
        stats = service.service_stats()
    print(format_rows([atlas.summary()], title="Atlas registration summary"))
    print(
        f"service: {stats['jobs_submitted']} jobs on {stats['num_workers']} workers, "
        f"{stats['batches_executed']} batches ({stats['batched_jobs']} jobs batched)"
    )
    pool = stats["plan_pool"]
    print(
        f"plan pool: {pool['hits']} hits, {pool['misses']} misses "
        f"(hit rate {stats['plan_pool_hit_rate']:.0%}), "
        f"{pool['current_bytes']} bytes resident"
    )
    for job in atlas.jobs:
        if job.record.error is not None:
            print(f"job {job.job_id} failed: {job.record.error}", file=sys.stderr)
    trace_path = _export_trace(config)
    if trace_path:
        print(f"trace written to {trace_path}")
    if args.artifacts_dir:
        print(f"per-job artifacts written to {args.artifacts_dir}")
    if args.output and atlas.mean_deformed is not None:
        np.savez_compressed(
            args.output,
            mean_deformed=atlas.mean_deformed,
            relative_residuals=np.array(
                [
                    result.relative_residual if result is not None else np.nan
                    for result in atlas.results
                ]
            ),
        )
        print(f"atlas estimate written to {args.output}")
    return 0 if atlas.num_failed == 0 else 1


def _run_scaling(args: argparse.Namespace) -> int:
    if args.table:
        entries = reproduce_scaling_table(
            args.table,
            num_newton_iterations=args.newton,
            num_hessian_matvecs=args.matvecs,
        )
        print(
            format_breakdown_table(
                entries, title=f"Table {args.table}: paper rows vs model projections"
            )
        )
        return 0
    if args.grid is None or args.tasks is None:
        print("either --table or both --grid and --tasks are required", file=sys.stderr)
        return 2
    model = RegistrationCostModel(
        grid_shape=(args.grid,) * 3,
        num_tasks=args.tasks,
        machine=get_machine(args.machine),
        num_newton_iterations=args.newton,
        num_hessian_matvecs=args.matvecs,
    )
    breakdown = model.breakdown().as_dict()
    breakdown.update({"grid": f"{args.grid}^3", "machine": args.machine})
    print(format_rows([breakdown], title="Modeled cost"))
    return 0


def main(
    argv: Optional[Sequence[str]] = None,
    config: Optional[RegistrationConfig] = None,
) -> int:
    """Entry point of the ``repro-register`` console script.

    *config* is an optional base :class:`repro.config.RegistrationConfig`
    for embedding callers; the command-line flags are layered on top of it
    (flags win field by field).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        set_verbosity("info")
    if args.command == "register":
        return _run_register(args, config)
    if args.command == "serve":
        return _run_serve(args, config)
    return _run_scaling(args)


def serve_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``repro-serve`` console script (= ``serve``)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    return main(["serve", *argv])


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
