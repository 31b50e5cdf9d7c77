"""The README's environment-variable table lists exactly the knobs the code reads."""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

KNOB = re.compile(r"REPRO_[A-Z_]+")

#: Read by the benchmarks only, documented in the same table.
BENCHMARK_ONLY = {"REPRO_BENCH_NONSTRICT"}


def _source_knobs() -> set:
    return {
        name
        for path in (ROOT / "src" / "repro").rglob("*.py")
        for name in KNOB.findall(path.read_text())
    }


def _table_rows() -> list:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("### Environment variables", 1)[1].split("\n#", 1)[0]
    return re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", section, flags=re.MULTILINE)


def test_table_rows_match_the_knobs_in_the_source():
    rows = _table_rows()
    assert len(rows) == len(set(rows)), "a knob is listed twice"
    assert set(rows) - BENCHMARK_ONLY == _source_knobs()


def test_knob_count():
    assert _source_knobs() == {"REPRO_PLAN_POOL_BYTES", "REPRO_TRACE"}
