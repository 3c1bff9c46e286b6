"""Unit tests for event sinks and the run observer."""

import io
import json

import pytest

from repro.errors import SerializationError
from repro.obs import (
    NOOP_SPAN,
    CollectingSink,
    JsonlTraceSink,
    NullSink,
    RunObserver,
    SelectionEvent,
    open_trace_file,
    validate_event,
    validate_trace,
)

EVENT = SelectionEvent(round_index=1, selected_ids=(4, 2))


class TestCollectingSink:
    def test_collects_in_order(self):
        sink = CollectingSink()
        other = SelectionEvent(round_index=2, selected_ids=(1,))
        sink.emit(EVENT)
        sink.emit(other)
        assert sink.events == [EVENT, other]
        assert sink.of_kind("selection") == [EVENT, other]
        assert sink.of_kind("eval") == []


class TestJsonlTraceSink:
    def test_writes_one_valid_json_line_per_event(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(str(path)) as sink:
            sink.emit(EVENT)
            sink.emit(EVENT)
            assert sink.events_written == 2
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            validate_event(json.loads(line))

    def test_accepts_external_handle_without_closing_it(self):
        buffer = io.StringIO()
        sink = JsonlTraceSink(buffer)
        sink.emit(EVENT)
        sink.close()
        assert not buffer.closed
        assert json.loads(buffer.getvalue())["event"] == "selection"

    def test_close_idempotent_and_emits_after_close_fail(self, tmp_path):
        sink = JsonlTraceSink(str(tmp_path / "t.jsonl"))
        sink.close()
        sink.close()
        with pytest.raises(SerializationError):
            sink.emit(EVENT)

    def test_bad_target_rejected(self):
        with pytest.raises(SerializationError):
            JsonlTraceSink(42)

    def test_gzip_suffix_writes_gzip_and_round_trips(self, tmp_path):
        import gzip

        path = tmp_path / "trace.jsonl.gz"
        with JsonlTraceSink(str(path)) as sink:
            sink.emit(EVENT)
            sink.emit(EVENT)
        assert path.read_bytes()[:2] == b"\x1f\x8b"  # gzip magic
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 2
        for line in lines:
            validate_event(json.loads(line))
        assert validate_trace(str(path)) == 2

    def test_open_trace_file_dispatches_on_suffix(self, tmp_path):
        plain = tmp_path / "t.jsonl"
        packed = tmp_path / "t.jsonl.gz"
        for target in (plain, packed):
            with open_trace_file(str(target), "w") as handle:
                handle.write("hello\n")
            with open_trace_file(str(target)) as handle:
                assert handle.read() == "hello\n"
        assert plain.read_text() == "hello\n"
        assert packed.read_bytes()[:2] == b"\x1f\x8b"

    def test_open_trace_file_rejects_other_modes(self, tmp_path):
        with pytest.raises(SerializationError, match="mode"):
            open_trace_file(str(tmp_path / "t.jsonl"), "a")


class TestJsonlCloseSemantics:
    """Regression: close() must flush before rejecting emits."""

    def test_lines_are_durable_before_close(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlTraceSink(str(path))
        sink.emit(EVENT)
        # Flushed per event: a run killed before close loses nothing.
        assert len(path.read_text().splitlines()) == 1
        sink.close()

    def test_event_emitted_during_final_flush_is_written(self):
        # A flush-triggered callback (e.g. an atexit run_stop) fires
        # while close() is flushing; the sink must still accept it —
        # only after the final flush may emits be rejected.
        buffer = io.StringIO()

        class FlushHookHandle:
            closing = False

            def write(self, text):
                return buffer.write(text)

            def flush(self):
                if self.closing:
                    self.closing = False
                    sink.emit(EVENT)

        handle = FlushHookHandle()
        sink = JsonlTraceSink(handle)
        sink.emit(EVENT)
        handle.closing = True
        sink.close()
        lines = buffer.getvalue().splitlines()
        assert len(lines) == 2
        for line in lines:
            assert json.loads(line)["event"] == "selection"
        with pytest.raises(SerializationError):
            sink.emit(EVENT)


class TestRunObserver:
    def test_default_observer_discards(self):
        observer = RunObserver()
        assert not observer.tracing
        assert isinstance(observer.sink, NullSink)
        observer.emit(EVENT)
        assert observer.span("stage") is NOOP_SPAN

    def test_tracing_flag_with_real_sink(self):
        observer = RunObserver(sink=CollectingSink())
        assert observer.tracing
        observer.emit(EVENT)
        assert observer.sink.events == [EVENT]

    def test_null_sink_is_silent(self):
        NullSink().emit(EVENT)  # must not raise

    def test_to_path_and_context_manager(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with RunObserver.to_path(str(path)) as observer:
            observer.emit(EVENT)
        assert len(path.read_text().splitlines()) == observer.sink.events_written == 1
