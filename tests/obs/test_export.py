"""Unit tests for the exporters (repro.obs.export)."""

import json
import threading

import pytest

from repro.obs.trace import Tracer
from repro.obs.export import (
    chrome_trace_events,
    read_spans_jsonl,
    to_chrome_trace,
    validate_chrome_trace,
    validate_chrome_trace_file,
    write_chrome_trace,
    write_spans_jsonl,
)


def _sample_spans():
    """outer > (first, second) on one thread, plus a span opened on a
    second thread and parented explicitly under ``outer``."""
    tracer = Tracer()
    with tracer.span("outer", workload="MD"):
        with tracer.span("first"):
            pass
        with tracer.span("second", misses=3):
            pass
    parent_id = tracer.spans()[-1].span_id

    def helper():
        with tracer.span("chunk", parent=parent_id):
            pass

    thread = threading.Thread(target=helper)
    thread.start()
    thread.join()
    return tracer.spans()


class TestChromeExport:
    def test_events_pair_b_and_e(self):
        events = chrome_trace_events(_sample_spans())
        b = [e for e in events if e["ph"] == "B"]
        e = [e for e in events if e["ph"] == "E"]
        assert len(b) == len(e) == 4
        assert {ev["name"] for ev in b} == {"outer", "first", "second", "chunk"}

    def test_nesting_survives_shuffled_buffer(self):
        spans = _sample_spans()
        spans.reverse()  # buffers may arrive in arbitrary order
        document = to_chrome_trace(spans)
        counts = validate_chrome_trace(document)
        assert counts["spans"] == 4
        assert counts["tracks"] == 2  # main thread + helper thread

    def test_b_events_carry_span_identity_and_attrs(self):
        events = chrome_trace_events(_sample_spans())
        outer = next(e for e in events if e["ph"] == "B" and e["name"] == "outer")
        assert outer["args"]["workload"] == "MD"
        assert outer["args"]["parent_id"] is None
        assert "cpu_ms" in outer["args"]
        second = next(e for e in events if e["ph"] == "B" and e["name"] == "second")
        assert second["args"]["misses"] == 3

    def test_timestamps_are_normalised_microseconds(self):
        events = chrome_trace_events(_sample_spans())
        ts = [e["ts"] for e in events]
        assert min(ts) == 0.0
        assert all(t >= 0 for t in ts)

    def test_write_and_validate_file(self, tmp_path):
        path = write_chrome_trace(tmp_path / "trace.json", _sample_spans())
        counts = validate_chrome_trace_file(path)
        assert counts["spans"] == 4
        document = json.loads(path.read_text())
        assert document["otherData"]["producer"] == "repro.obs"

    def test_empty_span_list_is_valid(self):
        assert validate_chrome_trace(to_chrome_trace([])) == {
            "events": 0,
            "spans": 0,
            "tracks": 0,
        }


class TestJsonlExport:
    def test_one_object_per_line(self, tmp_path):
        spans = _sample_spans()
        path = write_spans_jsonl(tmp_path / "spans.jsonl", spans)
        lines = path.read_text().splitlines()
        assert len(lines) == len(spans)
        rows = [json.loads(line) for line in lines]
        assert {r["name"] for r in rows} == {"outer", "first", "second", "chunk"}
        chunk = next(r for r in rows if r["name"] == "chunk")
        assert chunk["parent_id"] is not None

    def test_read_spans_jsonl_round_trips(self, tmp_path):
        spans = _sample_spans()
        path = write_spans_jsonl(tmp_path / "spans.jsonl", spans)
        loaded = read_spans_jsonl(path)
        assert [(s.name, s.span_id, s.parent_id, s.dur_ns) for s in loaded] == [
            (s.name, s.span_id, s.parent_id, s.dur_ns) for s in spans
        ]
        assert loaded[0].attrs == spans[0].attrs

    def test_read_spans_jsonl_names_bad_line(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        path.write_text('{"name": "orphan"}\n')
        with pytest.raises(ValueError, match="spans.jsonl:1"):
            read_spans_jsonl(path)

    def test_read_spans_jsonl_skips_blank_lines(self, tmp_path):
        spans = _sample_spans()
        path = write_spans_jsonl(tmp_path / "spans.jsonl", spans)
        path.write_text(path.read_text() + "\n\n")
        assert len(read_spans_jsonl(path)) == len(spans)


class TestValidation:
    def _event(self, **overrides):
        base = {"name": "s", "ph": "B", "ts": 0.0, "pid": 1, "tid": 1}
        base.update(overrides)
        return base

    def test_rejects_missing_trace_events(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"foo": []})

    def test_rejects_missing_required_key(self):
        event = self._event()
        del event["tid"]
        with pytest.raises(ValueError, match="missing 'tid'"):
            validate_chrome_trace({"traceEvents": [event]})

    def test_rejects_non_integer_pid(self):
        with pytest.raises(ValueError, match="pid/tid"):
            validate_chrome_trace({"traceEvents": [self._event(pid="one")]})

    def test_rejects_backwards_timestamps(self):
        events = [
            self._event(ts=5.0),
            self._event(name="s", ph="E", ts=1.0),
        ]
        with pytest.raises(ValueError, match="backwards"):
            validate_chrome_trace({"traceEvents": events})

    def test_rejects_unmatched_end(self):
        with pytest.raises(ValueError, match="no open 'B'"):
            validate_chrome_trace({"traceEvents": [self._event(ph="E")]})

    def test_rejects_name_mismatch(self):
        events = [self._event(name="a"), self._event(name="b", ph="E", ts=1.0)]
        with pytest.raises(ValueError, match="does not match"):
            validate_chrome_trace({"traceEvents": events})

    def test_rejects_dangling_begin(self):
        with pytest.raises(ValueError, match="unclosed"):
            validate_chrome_trace({"traceEvents": [self._event()]})

    def test_accepts_metadata_and_instant_events(self):
        events = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 1},
            self._event(),
            self._event(ph="i", ts=1.0),
            self._event(ph="E", ts=2.0),
        ]
        counts = validate_chrome_trace({"traceEvents": events})
        assert counts["spans"] == 1

    def test_non_finite_attrs_survive_json_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("s", residual=float("inf")):
            pass
        path = write_chrome_trace(tmp_path / "t.json", tracer.spans())
        validate_chrome_trace_file(path)  # json.load must not choke
