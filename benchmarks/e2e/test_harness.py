"""Self-test of the benchmark harness (run explicitly; not in tier-1 ``testpaths``).

    python -m pytest benchmarks/e2e/test_harness.py -q
    python benchmarks/e2e/test_harness.py

Runs all four workloads at smoke size (8^3-12^3, one rep, timed and traced)
and checks that exactly the workloads and metrics ``BENCHMARK.json`` declares
come out, each finite and with the declared unit.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def smoke(workload: str, trace: int) -> dict:
    finished = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--workload", workload,
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=120)
    return json.loads(finished.stdout.strip().splitlines()[-1])


def test_smoke_emits_exactly_the_declared_metrics() -> None:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == [
        "solve32", "incomp32", "brain16_cont", "burst16"]
    start = time.monotonic()
    for workload in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = smoke(workload["name"], trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0
            assert result["attempted"] >= 1
            emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
            assert emitted == {metric["name"]: metric["unit"] for metric in spec[kind]}
            for name, entry in result["metrics"].items():
                assert math.isfinite(entry["value"]), (workload["name"], name)
    assert time.monotonic() - start < 30.0


if __name__ == "__main__":
    test_smoke_emits_exactly_the_declared_metrics()
    print("ok")
