"""The end-to-end harness's seams into the program still resolve.

``benchmarks/e2e/spans.py`` wraps public callables of ``src/`` by name
(``spans.seams()``), and ``benchmarks/e2e/workloads.py`` imports the
program's facade.  A rename in ``src/`` breaks the harness without breaking
any other tier-1 test, so this module imports both files as they are and
resolves every seam the way ``Recorder.install`` does: ``owner.__dict__``
for a class (the attribute must be the class's own), ``getattr`` for a
module.  It also runs the harness's per-rep reset and its pool counter
reads, which name plan-pool and decision-log fields outside ``spans.py``.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
E2E = ROOT / "benchmarks" / "e2e"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"e2e_{name}", E2E / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
SEAMS = spans.seams()


def _seam_id(seam) -> str:
    owner, attr, _, _ = seam
    return f"{getattr(owner, '__qualname__', owner.__name__)}.{attr}"


@pytest.mark.parametrize("seam", SEAMS, ids=[_seam_id(seam) for seam in SEAMS])
def test_seam_resolves_to_a_callable(seam):
    owner, attr, name, layer = seam
    if isinstance(owner, type):
        assert attr in owner.__dict__, f"{owner.__qualname__} does not define {attr}"
        target = owner.__dict__[attr]
    else:
        assert hasattr(owner, attr), f"module {owner.__name__} has no {attr}"
        target = getattr(owner, attr)
    assert callable(target)
    assert name and layer


def test_workloads_import_and_match_the_declared_ones():
    workloads = _load("workloads")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert list(workloads.all_workloads()) == [entry["name"] for entry in declared]


def test_the_harness_pool_and_log_reads_still_resolve():
    """``reset_program_state`` resets the pool and the decision logs, and
    ``counter_delta`` reads the pool's ``hits`` / ``misses`` / ``peak_bytes``:
    run both from the unedited harness, around one miss and one hit."""
    from repro.runtime.plan_pool import get_plan_pool

    workloads = _load("workloads")
    workloads.reset_program_state()
    before = workloads.program_counters()
    for _ in range(2):
        get_plan_pool().get(("harness-seam", 1), lambda: bytearray(64), nbytes=len)
    counts = workloads.counter_delta(before)
    assert counts["runtime.pool_hits"] == 1
    assert counts["runtime.pool_misses"] == 1
    assert counts["runtime.pool_bytes"] == 64
