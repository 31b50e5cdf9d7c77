"""The trajectory regression gate of ``benchmarks/summarize_results.py``.

``--trajectory OLD.json NEW.json`` sets the change-side medians of two
committed ``BENCH_<pr>.json`` points side by side and judges NEW's change
side against OLD's code as NEW's own session re-read it (its ``parent``
side), with the direction and bound that ``BENCHMARK.json`` declares per
end-to-end metric.  Driven here on synthetic documents (the committed points
only ever show the passing case).
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "summarize_results", ROOT / "benchmarks" / "summarize_results.py"
)
summarize_results = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(summarize_results)

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in DECLARED["workloads"]]
METRICS = {entry["name"]: entry for entry in DECLARED["end_to_end"]}


def trajectory_point(pr: int, scale=None, failed: int = 0, session: float = 1.0) -> dict:
    """A minimal trajectory document.

    The parent side reads the previous point's change side times *session*
    (the host moved between the two measuring sessions); *scale* maps
    (workload, metric) to the change side's factor on top of that.
    """
    base = {"setup_s": 0.6, "solve_s": 1.0, "jobs_per_s": 1.0, "peak_rss_mb": 128.0}
    base = {metric: value * session for metric, value in base.items()}
    scale = scale or {}
    return {
        "schema": "repro.bench-trajectory",
        "schema_version": 1,
        "pr": pr,
        "failed_operations": {"parent": 0, "change": failed},
        "end_to_end": {
            workload: {
                metric: {
                    "parent": {"median": value},
                    "change": {"median": value * scale.get((workload, metric), 1.0)},
                }
                for metric, value in base.items()
            }
            for workload in WORKLOADS
        },
    }


def run(tmp_path, old, new, capsys):
    paths = []
    for name, document in (("old.json", old), ("new.json", new)):
        path = tmp_path / name
        path.write_text(json.dumps(document))
        paths.append(str(path))
    code = summarize_results.main(["--trajectory", *paths])
    return code, capsys.readouterr()


def test_declaration_covers_the_sixteen_pairs():
    assert len(WORKLOADS) * len(METRICS) == 16


def test_changes_inside_the_bounds_pass(tmp_path, capsys):
    inside = {
        ("solve32", "solve_s"): 0.8,  # better
        ("incomp32", "solve_s"): 1.24,  # worse, inside 0.25
        ("burst16", "jobs_per_s"): 0.76,  # higher is better: 24 % worse
        ("brain16_cont", "peak_rss_mb"): 1.09,  # inside 0.10
    }
    code, captured = run(tmp_path, trajectory_point(17), trajectory_point(18, inside), capsys)
    assert code == 0 and captured.err == ""
    rows = captured.out.splitlines()
    assert rows[0] == "trajectory: PR 17 -> PR 18 (change-side medians)"
    assert len(rows) == 2 + 16  # title, header, one row per (workload, metric)
    (solve,) = [row for row in rows if row.startswith("solve32") and " solve_s " in row]
    assert solve.split()[2:7] == ["1", "0.8", "0.800", "1.000", "-20.0%"]
    (burst,) = [row for row in rows if row.startswith("burst16") and "jobs_per_s" in row]
    assert burst.split()[4:7] == ["0.760", "1.000", "+24.0%"]
    assert "EXCEEDS" not in captured.out


def test_a_slower_session_is_not_a_regression(tmp_path, capsys):
    """The same code read 40 % slower in NEW's session: reported, divided out."""
    new = trajectory_point(18, {("solve32", "solve_s"): 0.9}, session=1.4)
    code, captured = run(tmp_path, trajectory_point(17), new, capsys)
    assert code == 0 and captured.err == ""
    (solve,) = [
        row for row in captured.out.splitlines()
        if row.startswith("solve32") and " solve_s " in row
    ]
    assert solve.split()[2:7] == ["1", "1.26", "1.260", "1.400", "-10.0%"]


@pytest.mark.parametrize(
    "pair, factor",
    [
        (("solve32", "solve_s"), 1.26),
        (("burst16", "jobs_per_s"), 0.74),
        (("incomp32", "peak_rss_mb"), 1.11),
        (("brain16_cont", "setup_s"), 1.3),
    ],
)
def test_one_pair_beyond_its_bound_fails(tmp_path, capsys, pair, factor):
    code, captured = run(
        tmp_path, trajectory_point(17), trajectory_point(18, {pair: factor}), capsys
    )
    assert code == 1
    assert captured.out.count("EXCEEDS BOUND") == 1
    (regression,) = captured.err.strip().splitlines()
    assert regression.startswith(f"regression: {pair[0]} {pair[1]}:")
    assert f"bound {METRICS[pair[1]]['bound']:.2f}" in regression


def test_failed_operations_on_the_change_side_fail(tmp_path, capsys):
    code, captured = run(
        tmp_path, trajectory_point(17), trajectory_point(18, failed=2), capsys
    )
    assert code == 1
    assert "2 failed operation(s)" in captured.err
    assert "EXCEEDS" not in captured.out


def test_other_schemas_are_rejected(tmp_path, capsys):
    summary = copy.deepcopy(trajectory_point(18))
    summary["schema"] = "repro.bench-summary"
    code, captured = run(tmp_path, trajectory_point(17), summary, capsys)
    assert code == 1 and "not a 'repro.bench-trajectory' document" in captured.err


def test_committed_trajectory_is_within_bounds(capsys):
    """What CI runs: the two newest committed points."""
    points = sorted(ROOT.glob("BENCH_*.json"), key=lambda path: int(path.stem.split("_")[1]))
    assert len(points) >= 2
    assert summarize_results.main(["--trajectory", *map(str, points[-2:])]) == 0
    capsys.readouterr()
