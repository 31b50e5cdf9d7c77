"""Tests for the tracing core: spans, nesting, counts, env knobs, export."""

import json
import threading

import pytest

from repro.observability.trace import (
    TRACE_ENV_VAR,
    TraceRecorder,
    TraceSpan,
    chrome_trace_document,
    disable_tracing,
    enable_tracing,
    env_trace_enabled,
    get_trace_recorder,
    trace_span,
    tracing_enabled,
    write_chrome_trace,
)
from repro.observability.snapshot import validate_chrome_trace


@pytest.fixture()
def recorder():
    """Tracing on, with a clean process-wide recorder."""
    rec = get_trace_recorder()
    rec.clear()
    enable_tracing()
    yield rec
    disable_tracing()
    rec.clear()


class TestDisabledPath:
    def test_disabled_by_default_in_tests(self):
        assert not tracing_enabled()

    def test_disabled_span_is_shared_noop(self):
        rec = get_trace_recorder()
        before = len(rec)
        a = trace_span("x", foo=1)
        b = trace_span("y")
        assert a is b  # one shared singleton, no allocation per call
        with a:
            a.set_attr("k", "v")
            a.set_count(7)
        assert len(rec) == before

    def test_enable_disable_round_trip(self):
        enable_tracing()
        assert tracing_enabled()
        disable_tracing()
        assert not tracing_enabled()


class TestSpanRecording:
    def test_span_records_name_duration_and_attrs(self, recorder):
        with trace_span("solve", shape=[8, 8, 8]):
            pass
        (span,) = recorder.spans()
        assert span.name == "solve"
        assert span.duration >= 0.0
        assert span.attrs == {"shape": [8, 8, 8]}
        assert span.count == 1
        assert span.thread_id == threading.get_ident()

    def test_nesting_tracks_parent_ids(self, recorder):
        with trace_span("outer"):
            with trace_span("inner"):
                pass
            with trace_span("inner"):
                pass
        spans = {span.span_id: span for span in recorder.spans()}
        outer = next(s for s in spans.values() if s.name == "outer")
        inners = [s for s in spans.values() if s.name == "inner"]
        assert outer.parent_id is None
        assert all(s.parent_id == outer.span_id for s in inners)

    def test_count_and_midflight_attrs(self, recorder):
        with trace_span("batch", count=4) as span:
            span.set_attr("bytes", 123)
            span.set_count(8)
        (span,) = recorder.spans()
        assert span.count == 8
        assert span.attrs["bytes"] == 123

    def test_span_counts_sum_count_fields(self, recorder):
        with trace_span("fft", count=3):
            pass
        with trace_span("fft", count=2):
            pass
        with trace_span("other"):
            pass
        counts = recorder.span_counts()
        assert counts == {"fft": 5, "other": 1}

    def test_span_recorded_when_body_raises(self, recorder):
        with pytest.raises(RuntimeError):
            with trace_span("failing"):
                raise RuntimeError("boom")
        (span,) = recorder.spans()
        assert span.name == "failing"

    def test_threaded_spans_nest_per_thread(self, recorder):
        def worker():
            with trace_span("thread.outer"):
                with trace_span("thread.inner"):
                    pass

        threads = [threading.Thread(target=worker) for _ in range(3)]
        with trace_span("main.outer"):
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        spans = recorder.spans()
        inners = [s for s in spans if s.name == "thread.inner"]
        outers = {s.span_id: s for s in spans if s.name == "thread.outer"}
        assert len(inners) == 3
        for inner in inners:
            # each inner nests under the outer of its *own* thread
            assert inner.parent_id in outers
            assert outers[inner.parent_id].thread_id == inner.thread_id

    def test_summary_sorted_by_total_time(self, recorder):
        recorder.record(TraceSpan("slow", 0.0, 2.0, 1, 1, None))
        recorder.record(TraceSpan("fast", 0.0, 0.5, 1, 2, None))
        rows = recorder.summary()
        assert [row["name"] for row in rows] == ["slow", "fast"]

    def test_clear_resets_epoch_and_ids(self):
        rec = TraceRecorder()
        rec.record(TraceSpan("a", 0.0, 1.0, 1, rec.next_span_id(), None))
        rec.clear()
        assert len(rec) == 0
        assert rec.next_span_id() == 1


class TestEnvKnobs:
    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("true", True), ("YES", True), ("on", True),
        ("0", False), ("false", False), ("no", False), ("off", False), ("", False),
    ])
    def test_env_trace_enabled_values(self, value, expected):
        assert env_trace_enabled({TRACE_ENV_VAR: value}) is expected

    def test_env_trace_enabled_unset(self):
        assert env_trace_enabled({}) is None

    def test_env_trace_enabled_malformed_names_the_variable(self):
        with pytest.raises(ValueError, match=TRACE_ENV_VAR):
            env_trace_enabled({TRACE_ENV_VAR: "maybe"})


class TestChromeExport:
    def test_document_is_perfetto_shaped(self, recorder):
        with trace_span("a", count=3, tag="t"):
            with trace_span("b"):
                pass
        document = chrome_trace_document(recorder)
        validate_chrome_trace(document)
        events = document["traceEvents"]
        assert len(events) == 2
        by_name = {event["name"]: event for event in events}
        assert by_name["a"]["ph"] == "X"
        assert by_name["a"]["args"]["count"] == 3  # batched span carries count
        assert by_name["a"]["args"]["tag"] == "t"
        assert "count" not in by_name["b"]["args"]  # count == 1 stays implicit
        assert by_name["a"]["dur"] >= by_name["b"]["dur"]

    def test_write_chrome_trace_round_trips(self, recorder, tmp_path):
        with trace_span("a"):
            pass
        path = tmp_path / "run.trace.json"
        write_chrome_trace(str(path))
        document = json.loads(path.read_text())
        validate_chrome_trace(document)
        assert document["traceEvents"][0]["name"] == "a"
