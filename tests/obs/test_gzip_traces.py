"""Compressed traces: the path forms that select gzip, and a ``.gz``
trace whose writer was killed before ``close``.

A :class:`JsonlTraceSink` flushes (``Z_SYNC_FLUSH``) after every emit
call, so the bytes a killed writer leaves behind decode up to the last
flush and then stop without an end-of-stream marker. Readers must
treat that as the torn tail it is, like a plain file's cut-off line.
"""

import gzip
import os
import pathlib
import subprocess
import sys

import pytest

from repro.errors import SerializationError
from repro.obs import JsonlTraceSink, load_trace, open_trace_file, validate_trace
from repro.obs.validate import main as validate_main
from tests.obs.test_events import SAMPLE_EVENTS

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def killed_gz_trace(directory, cut=0):
    """The bytes of a ``.gz`` trace copied before ``close`` (as a
    SIGKILL leaves them), less ``cut`` trailing bytes."""
    path = os.path.join(directory, "live.jsonl.gz")
    sink = JsonlTraceSink(path)
    for event in SAMPLE_EVENTS:
        sink.emit(event)
    with open(path, "rb") as handle:
        flushed = handle.read()
    sink.close()
    torn = os.path.join(directory, "torn.jsonl.gz")
    with open(torn, "wb") as handle:
        handle.write(flushed[: len(flushed) - cut])
    return torn


class TestKilledGzipTrace:
    def test_loader_keeps_every_flushed_line(self, tmp_path):
        trace = load_trace(killed_gz_trace(tmp_path))
        assert trace.events == tuple(SAMPLE_EVENTS)
        assert trace.truncated_tail == ""

    def test_loader_keeps_the_lines_before_a_cut_mid_block(self, tmp_path):
        trace = load_trace(killed_gz_trace(tmp_path, cut=40))
        assert 0 < len(trace) < len(SAMPLE_EVENTS)
        assert trace.events == tuple(SAMPLE_EVENTS[: len(trace)])
        assert trace.truncated_tail is not None

    def test_validator_reports_the_torn_tail(self, tmp_path):
        torn = killed_gz_trace(tmp_path)
        line = len(SAMPLE_EVENTS) + 1
        with pytest.raises(SerializationError, match=f"torn.jsonl.gz:{line} .*torn"):
            validate_trace(torn)

    def test_cli_prints_one_invalid_line_and_exits_one(self, tmp_path):
        torn = killed_gz_trace(tmp_path, cut=40)
        result = subprocess.run(
            [sys.executable, "-m", "repro.obs.validate", torn],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=REPO_SRC),
        )
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        (message,) = result.stderr.splitlines()
        assert message.startswith(f"{torn}: INVALID — ") and "torn" in message

    def test_gz_path_that_is_not_gzip_names_the_path(self, tmp_path, capsys):
        fake = tmp_path / "plain.jsonl.gz"
        fake.write_text('{"event": "selection"}\n')
        with pytest.raises(SerializationError, match="plain.jsonl.gz is not a gzip file"):
            load_trace(str(fake))
        assert validate_main([str(fake)]) == 1
        assert "not a gzip file" in capsys.readouterr().err


@pytest.mark.parametrize("form", [str, os.fsencode, pathlib.Path])
def test_gz_suffix_is_honoured_for_every_path_form(tmp_path, form):
    path = os.path.join(tmp_path, "t.jsonl.gz")
    with JsonlTraceSink(form(path)) as sink:
        for event in SAMPLE_EVENTS:
            sink.emit(event)
    with open(path, "rb") as handle:
        assert handle.read(2) == b"\x1f\x8b"
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        written = handle.read()
    with open_trace_file(form(path)) as handle:
        assert handle.read() == written
    assert load_trace(path).events == tuple(SAMPLE_EVENTS)
    assert validate_trace(form(path)) == len(SAMPLE_EVENTS)
