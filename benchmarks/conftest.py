"""Shared fixtures and helpers for the benchmark harness.

Every ``bench_*`` module regenerates one table or figure of the paper's
evaluation section and is named after it (see README.md, "Substitutions",
for what is measured and what is modeled).  The harness

* runs the *measured* part (real solves at laptop-scale resolution),
* produces the *modeled* rows for the paper's node counts via the
  calibrated performance model,
* prints the paper's reference row next to the reproduced row, and
* writes the formatted comparison to ``benchmarks/results/<name>.txt``.
  Machine-readable twins go to ``benchmarks/results/<name>.json`` (the
  ``record_json`` fixture), so the perf trajectory can be tracked across
  PRs without parsing tables.

Run with ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path

import pytest

#: Name and version of the machine-readable benchmark artifact envelope;
#: every ``record_json`` document carries it so collectors can dispatch on
#: the schema without knowing the individual bench payloads.
BENCH_SCHEMA = "repro.bench-result"
BENCH_SCHEMA_VERSION = 1

RESULTS_DIR = Path(__file__).parent / "results"


def _coerce(value):
    """JSON fallback for numpy scalars and other non-native payload values."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return str(value)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def record_text(results_dir):
    """Write a text artifact into benchmarks/results and echo it to stdout."""

    def _write(name: str, text: str) -> Path:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{'=' * 78}\n{name}\n{'=' * 78}\n{text}\n")
        return path

    return _write


@pytest.fixture(scope="session")
def record_json(results_dir):
    """Write a machine-readable artifact into benchmarks/results.

    The JSON twin of ``record_text``: one document per benchmark, stable
    key order, so successive PRs can diff the perf trajectory directly.
    Every document is wrapped in the ``repro.bench-result`` envelope
    (schema, bench name, UTC timestamp); the payload must not collide with
    the envelope keys.
    """

    def _write(name: str, payload: dict) -> Path:
        envelope = {
            "schema": BENCH_SCHEMA,
            "schema_version": BENCH_SCHEMA_VERSION,
            "bench": name,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        }
        collisions = sorted(envelope.keys() & payload.keys())
        if collisions:
            raise ValueError(
                f"bench payload {name!r} collides with envelope keys: {collisions}"
            )
        document = {**envelope, **payload}
        path = results_dir / f"{name}.json"
        path.write_text(
            json.dumps(document, indent=2, sort_keys=True, default=_coerce) + "\n"
        )
        print(f"json artifact written to {path}")
        return path

    return _write


@pytest.fixture(scope="session")
def measured_synthetic_counts():
    """Measured iteration counts of the scalability setup (2 GN iterations).

    Shared by the Table I/II/IV benches so the expensive solve runs once per
    session.
    """
    from repro.analysis.experiments import measure_solver_iterations

    return measure_solver_iterations(resolution=24, num_newton_iterations=2)


@pytest.fixture(scope="session")
def measured_incompressible_counts():
    from repro.analysis.experiments import measure_solver_iterations

    return measure_solver_iterations(
        resolution=24, num_newton_iterations=2, incompressible=True
    )
