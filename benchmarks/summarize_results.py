#!/usr/bin/env python
"""Roll ``benchmarks/results/*.json`` up into one ``summary.json``.

Every ``bench_*`` module writes a machine-readable artifact wrapped in the
``repro.bench-result`` envelope (see ``benchmarks/conftest.py``).  CI uploads
the whole results directory, but diffing a PR's perf trajectory against the
previous run means opening dozens of documents.  This script condenses them
into a single ``summary.json``: one entry per bench with its headline numeric
fields (scalars at the top two levels of the payload; tables are reduced to
their row counts).  Stdlib only — it must run in the leanest CI leg.

``--trajectory OLD.json NEW.json`` is the regression gate over the committed
end-to-end trajectory (the root-level ``BENCH_<pr>.json`` documents, schema
``repro.bench-trajectory``): for every (workload, end-to-end metric) that
``BENCHMARK.json`` declares it prints OLD's ``change`` median (the base),
NEW's ``change`` median and their ratio, with the declared direction and
bound.  The two medians come from two measuring sessions, and the host's
speed moves between sessions by more than the bounds (``BENCH_18.json``
reads PR 17's code 26-41 % slower than ``BENCH_17.json`` did, at reference
machine speed), so the verdict divides that out: NEW's ``parent`` side is
OLD's ``change`` code measured again in NEW's session, ``session`` is how
much the same code moved between the two, and ``worse by`` is NEW's change
side against the base re-read in its own session.  It exits 1 when a pair is
worse than its bound or NEW records failed operations.

Usage::

    python benchmarks/summarize_results.py            # writes results/summary.json
    python benchmarks/summarize_results.py --check    # exit 1 on malformed envelopes
    python benchmarks/summarize_results.py --trajectory BENCH_17.json BENCH_18.json
"""

from __future__ import annotations

import argparse
import json
import numbers
import sys
from datetime import datetime, timezone
from pathlib import Path

SUMMARY_SCHEMA = "repro.bench-summary"
SUMMARY_SCHEMA_VERSION = 1

#: Envelope of the per-bench documents this script consumes.
RESULT_SCHEMA = "repro.bench-result"

ENVELOPE_KEYS = frozenset({"schema", "schema_version", "bench", "timestamp"})

#: Schema of the root-level ``BENCH_<pr>.json`` trajectory points.
TRAJECTORY_SCHEMA = "repro.bench-trajectory"

BENCHMARK_DECLARATION = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def headline_numbers(payload: dict) -> dict:
    """Numeric scalars from the top two payload levels, dotted-key flattened.

    Lists (the row-oriented tables most benches emit) are reduced to a
    ``<key>.rows`` count so the summary stays one line per number instead of
    duplicating the table.
    """
    headline: dict = {}
    for key, value in payload.items():
        if key in ENVELOPE_KEYS:
            continue
        if isinstance(value, bool) or isinstance(value, numbers.Number):
            headline[key] = value
        elif isinstance(value, list):
            headline[f"{key}.rows"] = len(value)
        elif isinstance(value, dict):
            for sub_key, sub_value in value.items():
                if isinstance(sub_value, bool) or isinstance(sub_value, numbers.Number):
                    headline[f"{key}.{sub_key}"] = sub_value
                elif isinstance(sub_value, list):
                    headline[f"{key}.{sub_key}.rows"] = len(sub_value)
    return headline


def summarize(results_dir: Path) -> tuple[dict, list[str]]:
    """Build the summary document; returns ``(summary, problems)``."""
    benches: dict = {}
    problems: list[str] = []
    for path in sorted(results_dir.glob("*.json")):
        if path.name == "summary.json":
            continue
        try:
            document = json.loads(path.read_text())
        except json.JSONDecodeError as error:
            problems.append(f"{path.name}: invalid JSON ({error})")
            continue
        if not isinstance(document, dict) or document.get("schema") != RESULT_SCHEMA:
            problems.append(
                f"{path.name}: missing the {RESULT_SCHEMA!r} envelope; skipped"
            )
            continue
        bench = document.get("bench", path.stem)
        benches[bench] = {
            "file": path.name,
            "schema_version": document.get("schema_version"),
            "timestamp": document.get("timestamp"),
            "headline": headline_numbers(document),
        }
    summary = {
        "schema": SUMMARY_SCHEMA,
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "num_benches": len(benches),
        "benches": benches,
    }
    return summary, problems


def compare_trajectory(old: dict, new: dict, declared: dict) -> tuple[list[str], list[str]]:
    """NEW's change side against OLD's; returns ``(table rows, regressions)``.

    ``worse by`` is the harness's own figure (``benchmarks/e2e/run.py``),
    the relative change of the median in the metric's bad direction, taken
    against the base as NEW's session read it (module docstring).
    """
    rows = [f"{'workload':14s} {'metric':12s} {'base':>12s} {'new':>12s} {'ratio':>7s} "
            f"{'session':>8s} {'worse by':>9s} {'bound':>6s}"]
    regressions = []
    for document in (old, new):
        if document.get("schema") != TRAJECTORY_SCHEMA:
            regressions.append(f"PR {document.get('pr')}: not a {TRAJECTORY_SCHEMA!r} document")
    if regressions:
        return rows, regressions
    for workload in (entry["name"] for entry in declared["workloads"]):
        for metric in declared["end_to_end"]:
            name = metric["name"]
            base = old["end_to_end"][workload][name]["change"]["median"]
            value = new["end_to_end"][workload][name]["change"]["median"]
            reread = new["end_to_end"][workload][name]["parent"]["median"]
            worse = (value - reread) / reread
            if metric["better"] == "higher":
                worse = -worse
            verdict = ""
            if worse > metric["bound"]:
                verdict = "  EXCEEDS BOUND"
                regressions.append(
                    f"{workload} {name}: {base:.5g} -> {value:.5g}, base re-read as {reread:.5g} "
                    f"({worse:+.1%} worse, bound {metric['bound']:.2f})")
            rows.append(f"{workload:14s} {name:12s} {base:12.5g} {value:12.5g} "
                        f"{value / base:7.3f} {reread / base:8.3f} {worse:+9.1%} "
                        f"{metric['bound']:6.2f}{verdict}")
    failed = new.get("failed_operations", {}).get("change", 0)
    if failed > 0:
        regressions.append(f"PR {new.get('pr')}: {failed} failed operation(s) on the change side")
    return rows, regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--results-dir",
        type=Path,
        default=Path(__file__).parent / "results",
        help="directory holding the per-bench *.json artifacts",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="summary path (default: <results-dir>/summary.json)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero if any artifact is malformed",
    )
    parser.add_argument(
        "--trajectory",
        nargs=2,
        type=Path,
        metavar=("OLD", "NEW"),
        help="compare two BENCH_<pr>.json trajectory points; exit 1 on a regression",
    )
    args = parser.parse_args(argv)

    if args.trajectory:
        old, new, declared = (
            json.loads(path.read_text()) for path in (*args.trajectory, BENCHMARK_DECLARATION)
        )
        rows, regressions = compare_trajectory(old, new, declared)
        print(f"trajectory: PR {old.get('pr')} -> PR {new.get('pr')} (change-side medians)")
        print("\n".join(rows))
        for regression in regressions:
            print(f"regression: {regression}", file=sys.stderr)
        return 1 if regressions else 0

    if not args.results_dir.is_dir():
        print(f"results directory {args.results_dir} does not exist", file=sys.stderr)
        return 1
    summary, problems = summarize(args.results_dir)
    output = args.output or args.results_dir / "summary.json"
    output.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"{summary['num_benches']} bench artifacts rolled up into {output}")
    for problem in problems:
        print(f"warning: {problem}", file=sys.stderr)
    if problems and args.check:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
