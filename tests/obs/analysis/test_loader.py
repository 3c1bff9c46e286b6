"""Unit tests for trace loading and event reconstruction."""

import json

import pytest

from repro.errors import SerializationError
from repro.obs import JsonlTraceSink
from repro.obs.analysis import (
    LoadedTrace,
    event_from_payload,
    load_trace,
    load_trace_lines,
)
from tests.obs.test_events import SAMPLE_EVENTS


def sample_lines():
    return [json.dumps(e.to_dict()) for e in SAMPLE_EVENTS]


class TestEventFromPayload:
    @pytest.mark.parametrize("event", SAMPLE_EVENTS, ids=lambda e: e.kind)
    def test_round_trips_every_sample(self, event):
        payload = json.loads(json.dumps(event.to_dict()))
        assert event_from_payload(payload) == event

    def test_rejects_invalid_payload(self):
        with pytest.raises(SerializationError):
            event_from_payload({"event": "selection", "round_index": 1})


class TestLoadTraceLines:
    def test_loads_in_order_and_skips_blanks(self):
        lines = sample_lines()
        lines.insert(2, "")
        lines.append("   ")
        trace = load_trace_lines(lines, source="unit")
        assert trace.events == tuple(SAMPLE_EVENTS)
        assert len(trace) == len(SAMPLE_EVENTS)
        assert trace.source == "unit"
        assert trace.truncated_tail is None
        assert trace.complete  # samples end with run_stop

    def test_of_kind_filters_in_order(self):
        trace = load_trace_lines(sample_lines())
        kinds = [e.kind for e in trace.events]
        assert [e.kind for e in trace.of_kind("selection")] == ["selection"]
        assert len(trace.of_kind("timeline")) == kinds.count("timeline")

    def test_torn_final_line_becomes_truncated_tail(self):
        lines = sample_lines()[:-1]  # drop run_stop
        lines.append('{"event": "timeline", "round_in')
        trace = load_trace_lines(lines)
        assert len(trace) == len(SAMPLE_EVENTS) - 1
        assert trace.truncated_tail == '{"event": "timeline", "round_in'
        assert not trace.complete

    def test_malformed_mid_stream_is_fatal_with_line_number(self):
        lines = sample_lines()
        lines.insert(1, "{not json")
        with pytest.raises(SerializationError, match="unit:2 .*mid-stream"):
            load_trace_lines(lines, source="unit")

    def test_empty_input_loads_empty_incomplete_trace(self):
        trace = load_trace_lines([])
        assert trace == LoadedTrace(events=(), source="<lines>")
        assert not trace.complete


class TestLoadTraceFile:
    def test_loads_sink_written_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlTraceSink(str(path))
        for event in SAMPLE_EVENTS:
            sink.emit(event)
        sink.close()
        trace = load_trace(str(path))
        assert trace.events == tuple(SAMPLE_EVENTS)
        assert trace.source == str(path)

    def test_loads_gzip_sink_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        sink = JsonlTraceSink(str(path))
        for event in SAMPLE_EVENTS:
            sink.emit(event)
        sink.close()
        # The file really is gzip (magic bytes), not plain text.
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        trace = load_trace(str(path))
        assert trace.events == tuple(SAMPLE_EVENTS)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_trace(str(tmp_path / "absent.jsonl"))
