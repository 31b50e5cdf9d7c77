"""Spans around the program's public callables, recorded from outside.

The wrappers are class-attribute (or module-attribute) replacements installed
by the harness *after* the untraced reps, so the timed numbers never pay for
them and ``src/`` carries no benchmark code.  Each call of a wrapped callable
records one span ``[name, parent, start, end, batch, rep]`` on a per-thread
list (the service's worker threads nest on their own stacks); a layer's
**self time** is its spans' duration minus the part their child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Sequence, Tuple

# span fields
NAME, PARENT, START, END, BATCH, REP = range(6)

#: name of the span the harness opens around one whole rep (its self time is
#: the wall no wrapped callable accounts for)
ROOT = "bench.rep"


def _stack_depth(args: tuple) -> int:
    """Fields gathered by one ``interpolate_many*`` call (``B`` of the stack)."""
    fields = args[1]
    count = getattr(fields, "num_fields", None)
    return int(count if count is not None else len(fields))


#: span names whose calls gather a stack: how to read its depth off the arguments
BATCH_OF = {"interp.many": _stack_depth, "interp.many_planned": _stack_depth}


def seams() -> List[Tuple[object, str, str, str]]:
    """``(owner, attribute, span name, layer)`` of every wrapped seam.

    Imported lazily: the table names the program's modules, which the parent
    process never loads.
    """
    from repro.core import gradients, problem, registration
    from repro.core.optim import continuation, gauss_newton, line_search
    from repro.parallel import comm, ghost, scatter
    from repro.parallel import transport as parallel_transport
    from repro.runtime import plan_pool
    from repro.service import artifacts, journal, workers
    from repro.spectral import fft, operators
    from repro.transport import deformation, interpolation, semi_lagrangian, solvers

    # the package re-exports the function under the module's own name
    pcg_module = sys.modules["repro.core.optim.pcg"]
    interp = interpolation.PeriodicInterpolator
    service = workers.RegistrationService
    table = [
        (interp, "__call__", "interp.call", "transport.gather"),
        (interp, "interpolate_planned", "interp.planned", "transport.gather"),
        (interp, "interpolate_many", "interp.many", "transport.gather"),
        (interp, "interpolate_many_planned", "interp.many_planned", "transport.gather"),
        (interp, "plan", "interp.plan", "transport.plan_build"),
        (solvers.TransportSolver, "plan", "transport.plan", "transport.plan_build"),
        (semi_lagrangian, "compute_departure_points", "transport.departure_points",
         "transport.plan_build"),
        (deformation.DeformationMap, "determinant", "transport.detgrad", "transport.solver"),
        (plan_pool.PlanPool, "get", "pool.get", "runtime.pool"),
        (plan_pool, "array_fingerprint", "pool.fingerprint", "runtime.pool"),
        (problem.RegistrationProblem, "hessian_matvec", "core.matvec", "core.driver"),
        (problem.RegistrationProblem, "linearize", "core.linearize", "core.driver"),
        (problem.RegistrationProblem, "evaluate_objective", "core.objective", "core.driver"),
        (gradients, "plan_state_gradients", "core.state_gradients", "core.driver"),
        (gradients, "accumulate_weighted_products", "core.accumulate", "core.accumulate"),
        (registration, "register", "core.register", "core.driver"),
        (registration.RegistrationSolver, "build_problem", "core.preprocess", "core.driver"),
        (registration.RegistrationSolver, "run", "core.run", "core.driver"),
        (gauss_newton.GaussNewtonKrylov, "solve", "core.newton", "core.driver"),
        (pcg_module, "pcg", "core.pcg", "core.driver"),
        (line_search.ArmijoLineSearch, "search", "core.line_search", "core.driver"),
        (continuation.BetaContinuation, "run", "core.continuation", "core.driver"),
        (service, "submit_registration", "service.submit", "service"),
        (service, "submit_transport", "service.submit", "service"),
        (service, "gather", "service.gather", "service.wait"),
        (journal.JobJournal, "record_submitted", "service.journal", "service"),
        (journal.JobJournal, "record_terminal", "service.journal", "service"),
        (artifacts, "write_job_artifact", "service.artifact", "service"),
        (parallel_transport.DistributedTransportSolver, "solve_state_many",
         "parallel.solve_state_many", "parallel"),
        (scatter.ScatterInterpolationPlan, "interpolate_many", "parallel.scatter", "parallel"),
        (ghost, "exchange_ghost_layers_batched", "parallel.ghost", "parallel"),
        (comm.SimulatedCommunicator, "alltoallv", "parallel.alltoallv", "parallel"),
    ]
    for method in ("solve_state", "solve_state_final", "solve_adjoint",
                   "solve_incremental_state", "solve_incremental_adjoint"):
        table.append((solvers.TransportSolver, method, f"transport.{method}",
                      "transport.solver"))
    for method in ("forward", "backward", "forward_batch", "backward_batch"):
        table.append((fft.FourierTransform, method, f"fft.{method}", "spectral.fft"))
    for method in ("gradient", "gradient_many", "divergence", "divergence_many", "jacobian",
                   "leray_project", "apply_vector_symbol", "apply_scalar_symbol"):
        table.append((operators.SpectralOperators, method, f"spectral.{method}",
                      "spectral.ops"))
    return table


class Recorder:
    """In-memory span store with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.rep = -1
        self.layers: Dict[str, str] = {ROOT: "bench.unattributed"}
        self._threads: List[Tuple[str, list]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    def _thread_state(self) -> Tuple[list, list]:
        spans: list = []
        stack: list = []
        self._local.spans, self._local.stack = spans, stack
        with self._lock:
            self._threads.append((threading.current_thread().name, spans))
        return spans, stack

    def _open(self, name: str, batch: int) -> Tuple[list, list]:
        """Start a span on the calling thread; returns it and the thread's stack."""
        local = self._local
        try:
            spans, stack = local.spans, local.stack
        except AttributeError:
            spans, stack = self._thread_state()
        span = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0, batch, self.rep]
        stack.append(len(spans))
        spans.append(span)
        return span, stack

    def wrap(self, fn: Callable, name: str, batch_of=None) -> Callable:
        """*fn* with one span recorded per call."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, stack = self._open(name, batch_of(args) if batch_of is not None else 1)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def root_span(self):
        """The span around one whole rep (the harness opens it)."""
        span, stack = self._open(ROOT, 1)
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            stack.pop()

    def install(self) -> None:
        """Replace every seam with its traced wrapper (idempotent)."""
        if self._installed:
            return
        for owner, attr, name, layer in seams():
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self.layers[name] = layer
            traced = self.wrap(original, name, BATCH_OF.get(name))
            if isinstance(owner, type):
                targets = [owner]
            else:
                # a module-level function is bound by name in every module
                # that imported it; rebind each of those references
                targets = [
                    module for key, module in list(sys.modules.items())
                    if key.startswith("repro") and module is not None
                    and module.__dict__.get(attr) is original
                ]
            for target in targets:
                self._installed.append((target, attr, original))
                setattr(target, attr, traced)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._installed):
            setattr(target, attr, original)
        self._installed.clear()

    # ------------------------------------------------------------------ #
    def threads(self) -> List[Tuple[str, list]]:
        with self._lock:
            return list(self._threads)

    def write(self, path) -> None:
        """All spans as JSON: one list per thread, fields as in the header."""
        document = {
            "fields": ["name", "parent", "start", "end", "batch", "rep"],
            "layers": self.layers,
            "threads": [{"thread": name, "spans": spans} for name, spans in self.threads()],
        }
        with open(path, "w") as handle:
            json.dump(document, handle)


def per_span_cost(calls: int = 20000) -> float:
    """Seconds one span adds to a call (wrapped minus bare no-op), calibrated."""
    def noop():
        return None

    traced = Recorder().wrap(noop, "calibration")
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(time.perf_counter() - start - bare, 0.0) / calls


def self_times(spans: Sequence[list]) -> List[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


class RepProfile:
    """Aggregates of the spans one rep recorded, over every thread."""

    def __init__(self, recorder: Recorder, rep: int) -> None:
        self.self_by_layer: Dict[str, float] = defaultdict(float)
        self.durations_by_name: Dict[str, List[float]] = defaultdict(list)
        self.stack_gather_self = 0.0
        self.span_count = 0
        #: self times on the thread that holds the root span, and that span
        self.main_self_sum = 0.0
        self.root_wall = 0.0
        #: duration of the outermost spans of every other (worker) thread
        self.worker_busy = 0.0
        for _, spans in recorder.threads():
            own = self_times(spans)
            is_main = any(span[NAME] == ROOT and span[REP] == rep for span in spans)
            for span, self_s in zip(spans, own):
                if span[REP] != rep:
                    continue
                name = span[NAME]
                duration = span[END] - span[START]
                layer = recorder.layers[name]
                self.span_count += 1
                self.self_by_layer[layer] += self_s
                self.durations_by_name[name].append(duration)
                if layer == "transport.gather" and span[BATCH] > 1:
                    self.stack_gather_self += self_s
                if is_main:
                    self.main_self_sum += self_s
                    if name == ROOT:
                        self.root_wall += duration
                elif span[PARENT] < 0:
                    self.worker_busy += duration

    def calls(self, name: str) -> int:
        return len(self.durations_by_name[name])

    def total(self, name: str) -> float:
        """Summed duration (children included) of the spans called *name*."""
        return sum(self.durations_by_name[name])
