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
    solves, and per-job JSON artifacts
    can be journaled with ``--artifacts-dir``.  With ``--http PORT`` the
    command instead runs a long-lived service exposing the stdlib HTTP front
    (``POST /jobs``, ``GET /jobs/<id>``, ``DELETE /jobs/<id>``,
    ``GET /stats``); with ``--journal DIR`` every submission is crash-safe —
    a killed service re-queues its unfinished jobs on restart.

The process-wide flags ``--plan-pool-bytes``, ``--trace`` and ``--trace-out``
are shared by ``register`` and ``serve``.  They set the state the
``REPRO_PLAN_POOL_BYTES`` / ``REPRO_TRACE`` variables set, after both
variables are checked, so a flag wins over its variable.

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
from repro.config import check_environment
from repro.core.gradients import gradient_cache_decision_log
from repro.core.optim.gauss_newton import SolverOptions
from repro.core.registration import OPTIMIZERS, RegistrationSolver
from repro.core.regularization import REGULARIZATIONS
from repro.data.brain import brain_registration_pair
from repro.data.io import load_problem
from repro.data.synthetic import synthetic_population, synthetic_registration_problem
from repro.observability import enable_tracing, format_phase_table, write_chrome_trace
from repro.parallel.machines import get_machine
from repro.parallel.performance import RegistrationCostModel
from repro.runtime.plan_pool import configure_plan_pool
from repro.utils.logging import set_verbosity
from repro.utils.validation import check_positive_int


def _add_runtime_flags(sub: argparse.ArgumentParser) -> None:
    """The process-wide flags ``register`` and ``serve`` share."""
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
        "--trace",
        action="store_true",
        default=None,
        help=(
            "record structured tracing spans for every solver/runtime phase "
            "(default: $REPRO_TRACE or off; results are bitwise unchanged)"
        ),
    )
    sub.add_argument(
        "--trace-out",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "write the recorded spans as Chrome trace-event JSON to PATH "
            "(loadable in Perfetto / chrome://tracing; implies --trace)"
        ),
    )


def _add_solver_flags(sub: argparse.ArgumentParser) -> None:
    """The output path and solver settings ``register`` and ``serve`` share."""
    sub.add_argument("--output", type=str, default=None, help="output .npz path")
    sub.add_argument("--beta", type=float, default=1e-2, help="regularization weight")
    sub.add_argument(
        "--regularization", choices=REGULARIZATIONS, default="h1", help="Sobolev seminorm"
    )
    sub.add_argument("--incompressible", action="store_true", help="enforce div v = 0")
    sub.add_argument("--nt", type=int, default=4, help="semi-Lagrangian time steps")
    sub.add_argument("--gtol", type=float, default=1e-2, help="relative gradient tolerance")
    sub.add_argument("--max-newton", type=int, default=20, help="maximum Newton iterations")
    sub.add_argument("--max-krylov", type=int, default=50, help="maximum PCG iterations per step")


def _apply_runtime_flags(args: argparse.Namespace) -> None:
    """Check the environment, then set the process-wide state the flags name.

    A malformed ``REPRO_PLAN_POOL_BYTES`` / ``REPRO_TRACE`` or a negative
    ``--plan-pool-bytes`` raises :class:`ValueError` before any work.
    """
    check_environment()
    if args.plan_pool_bytes is not None:
        configure_plan_pool(args.plan_pool_bytes)
    if args.trace or args.trace_out:
        enable_tracing()


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
    _add_solver_flags(reg)
    reg.add_argument(
        "--optimizer",
        choices=OPTIMIZERS,
        default="gauss_newton",
        help="outer optimizer",
    )
    _add_runtime_flags(reg)

    serve = subparsers.add_parser(
        "serve",
        help="run an atlas (population) workload through the job service",
        description=(
            "Queue one registration job per subject image against a fixed "
            "atlas/reference, execute them on a worker pool, and report "
            "population-level results plus service statistics."
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
    _add_solver_flags(serve)
    serve.add_argument(
        "--num-workers",
        type=int,
        default=None,
        metavar="N",
        help="service worker threads (default: 1, as solves hold the GIL)",
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
            "durable job journal directory (default: none); submissions are "
            "fsync'd before they are acknowledged and a restarted service "
            "re-queues unfinished jobs"
        ),
    )
    serve.add_argument(
        "--http",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "serve submissions over HTTP on PORT instead of running an atlas "
            "workload (0 binds any free port)"
        ),
    )
    serve.add_argument(
        "--http-host",
        type=str,
        default="127.0.0.1",
        metavar="HOST",
        help="bind address of the HTTP front (default: 127.0.0.1)",
    )
    _add_runtime_flags(serve)

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


def _export_trace(args: argparse.Namespace) -> None:
    """Write the Chrome trace file ``--trace-out`` names, if any."""
    if args.trace_out:
        write_chrome_trace(args.trace_out)
        print(f"trace written to {args.trace_out}")


def _solver_options(args: argparse.Namespace) -> SolverOptions:
    return SolverOptions(
        gradient_tolerance=args.gtol,
        max_newton_iterations=args.max_newton,
        max_krylov_iterations=args.max_krylov,
        verbose=args.verbose,
    )


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


def _run_register(args: argparse.Namespace) -> int:
    try:
        # check the environment, apply the flags and build the solver before
        # any data is loaded, for a clean error message
        _apply_runtime_flags(args)
        solver = RegistrationSolver(
            beta=args.beta,
            regularization=args.regularization,
            incompressible=args.incompressible,
            num_time_steps=args.nt,
            optimizer=args.optimizer,
            options=_solver_options(args),
        )
        # an image size no grid holds (``--synthetic 1``) fails here
        reference, template, grid = _load_pair(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = solver.run(template, reference, grid=grid)
    print(format_rows([result.summary()], title="Registration summary"))
    if args.verbose:
        # the same versioned document the service journals per job
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
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
    _export_trace(args)
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


def _run_http_service(args: argparse.Namespace) -> int:
    """Long-lived server mode: submissions arrive over HTTP, not argv."""
    import threading

    from repro.service import RegistrationService
    from repro.service.http import serve_http

    with RegistrationService(
        num_workers=args.num_workers,
        max_batch=args.max_batch,
        artifacts_dir=args.artifacts_dir,
        journal_dir=args.journal,
    ) as service:
        if service.recovered_jobs:
            print(f"journal: re-queued {len(service.recovered_jobs)} unfinished job(s)")
        server = serve_http(service, args.http, host=args.http_host)
        print(f"service listening on http://{args.http_host}:{server.port}", flush=True)
        try:
            # serve_forever runs on the daemon thread; park this one
            threading.Event().wait()
        except KeyboardInterrupt:
            print("shutting down", file=sys.stderr)
        finally:
            server.shutdown()
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    # imported here: the service pulls in the whole parallel stack, which the
    # plain register/scaling paths never need
    from repro.service import RegistrationService, run_atlas

    try:
        if args.http is not None and not 0 <= args.http <= 65535:
            raise ValueError(f"--http port must lie in [0, 65535], got {args.http}")
        _apply_runtime_flags(args)
        if args.http is not None:
            if args.input is not None or args.synthetic is not None:
                raise ValueError("--http serves submissions; drop --input/--synthetic")
            return _run_http_service(args)
        if args.input is None and args.synthetic is None:
            raise ValueError("one of --input, --synthetic or --http is required")
        options = _solver_options(args)
        # every subject's job runs these settings, and the service these
        # counts: check them before any image is loaded (the journal still
        # opens with the service, after the load)
        RegistrationSolver(beta=args.beta, regularization=args.regularization, options=options)
        if args.num_workers is not None:
            check_positive_int(args.num_workers, "num_workers")
        check_positive_int(args.max_batch, "max_batch")
        reference, subjects = _load_population(args)
        service = RegistrationService(
            num_workers=args.num_workers,
            max_batch=args.max_batch,
            artifacts_dir=args.artifacts_dir,
            journal_dir=args.journal,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with service:
        try:
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
        except ValueError as exc:  # images no job accepts: nothing was queued
            print(f"error: {exc}", file=sys.stderr)
            return 2
        stats = service.service_stats()
    print(format_rows([atlas.summary()], title="Atlas registration summary"))
    print(
        f"service: {stats['jobs_submitted']} jobs on {stats['num_workers']} workers, "
        f"{stats['batches_executed']} batches ({stats['batched_jobs']} jobs batched)"
    )
    pool = stats["observability"]["plan_pool"]
    print(
        f"plan pool: {pool['hits']} hits, {pool['misses']} misses "
        f"(hit rate {pool['hits'] / max(pool['hits'] + pool['misses'], 1):.0%}), "
        f"{pool['current_bytes']} bytes resident"
    )
    for job in atlas.jobs:
        if job.record.error is not None:
            print(f"job {job.job_id} failed: {job.record.error}", file=sys.stderr)
    _export_trace(args)
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
    try:
        model = RegistrationCostModel(
            grid_shape=(args.grid,) * 3,
            num_tasks=args.tasks,
            machine=get_machine(args.machine),
            num_newton_iterations=args.newton,
            num_hessian_matvecs=args.matvecs,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    breakdown = model.breakdown().as_dict()
    breakdown.update({"grid": f"{args.grid}^3", "machine": args.machine})
    print(format_rows([breakdown], title="Modeled cost"))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``repro-register`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        set_verbosity("info")
    if args.command == "register":
        return _run_register(args)
    if args.command == "serve":
        return _run_serve(args)
    return _run_scaling(args)


def serve_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``repro-serve`` console script (= ``serve``)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    return main(["serve", *argv])


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
