"""Tests for the snapshot document, its validators and the phase table."""

import pytest

from repro.observability import (
    SNAPSHOT_SCHEMA,
    SNAPSHOT_SCHEMA_VERSION,
    enable_tracing,
    format_phase_table,
    get_trace_recorder,
    snapshot,
    trace_span,
    validate_chrome_trace,
    validate_snapshot,
)


class TestSnapshot:
    def test_snapshot_is_versioned_and_valid(self):
        document = snapshot()
        assert document["schema"] == SNAPSHOT_SCHEMA
        assert document["schema_version"] == SNAPSHOT_SCHEMA_VERSION == 4
        assert "layout_decisions" not in document
        assert "field_sources" not in document
        assert "plan_pool_by_tag" not in document
        validate_snapshot(document)

    def test_snapshot_reflects_recorded_spans(self):
        enable_tracing()
        with trace_span("phase.a", count=3):
            pass
        document = snapshot()
        assert document["trace"]["enabled"] is True
        assert document["trace"]["spans"] == 1
        assert document["trace"]["span_counts"] == {"phase.a": 3}
        assert document["trace"]["span_durations_seconds"]["phase.a"] >= 0.0

    def test_snapshot_reflects_pool_activity(self, plan_pool):
        plan_pool.get(("snapshot-test", 1), lambda: object(), nbytes=lambda v: 64)
        plan_pool.get(("snapshot-test", 1), lambda: object(), nbytes=lambda v: 64)
        document = snapshot()
        assert document["plan_pool"]["misses"] == document["plan_pool"]["hits"] == 1
        assert document["plan_pool"]["entries"] == 1

    def test_snapshot_is_json_ready(self):
        import json

        enable_tracing()
        with trace_span("phase.a"):
            pass
        text = json.dumps(snapshot(), sort_keys=True)
        validate_snapshot(json.loads(text))


class TestValidators:
    def test_validate_snapshot_rejects_non_dict(self):
        with pytest.raises(ValueError, match="expected a dict"):
            validate_snapshot([])

    def test_validate_snapshot_rejects_wrong_schema(self):
        document = snapshot()
        document["schema"] = "something.else"
        with pytest.raises(ValueError, match="schema must be"):
            validate_snapshot(document)

    def test_validate_snapshot_rejects_missing_block(self):
        document = snapshot()
        del document["plan_pool"]
        with pytest.raises(ValueError, match="plan_pool"):
            validate_snapshot(document)

    def test_validate_chrome_trace_rejects_missing_events(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({})

    def test_validate_chrome_trace_rejects_mistyped_event(self):
        bad = {"traceEvents": [{"name": "a", "ph": "X", "ts": "soon"}]}
        with pytest.raises(ValueError, match="ts"):
            validate_chrome_trace(bad)


class TestPhaseTable:
    def test_empty_without_spans(self):
        get_trace_recorder().clear()
        assert format_phase_table() == ""

    def test_renders_one_row_per_phase(self):
        enable_tracing()
        with trace_span("phase.outer"):
            with trace_span("phase.inner", count=4):
                pass
        table = format_phase_table()
        lines = table.splitlines()
        assert lines[0].split() == ["phase", "spans", "count", "total_s", "max_s"]
        assert len(lines) == 3
        by_name = {line.split()[0]: line.split() for line in lines[1:]}
        assert by_name["phase.outer"][1:3] == ["1", "1"]
        assert by_name["phase.inner"][1:3] == ["1", "4"]
