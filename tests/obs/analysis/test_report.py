"""Tests for report rendering: formats, content, and determinism."""

import hashlib
import json

import pytest

from repro.errors import ConfigurationError
from repro.fl.execution import create_backend
from repro.obs.analysis import (
    ANALYSIS_SCHEMA,
    compute_run_stats,
    load_trace,
    render_report,
)
from tests.obs.analysis.conftest import run_traced_helcfl


@pytest.fixture(scope="module")
def stats(tmp_path_factory):
    path = tmp_path_factory.mktemp("report") / "run.jsonl"
    run_traced_helcfl(path)
    return compute_run_stats(load_trace(str(path)).events, source="run.jsonl")


class TestFormats:
    def test_table_has_all_sections(self, stats):
        text = render_report(stats)
        assert "Run summary" in text
        assert "DVFS energy attribution" in text
        assert "Fairness" in text
        assert "Per-round" in text
        assert "devices by energy" in text
        # A clean run renders no fault section.
        assert "Faults & degradation" not in text

    def test_table_carries_the_run_numbers(self, stats):
        text = render_report(stats)
        assert f"{stats.total_energy:.4f}" in text
        assert f"{stats.dvfs_savings:.4f}" in text
        assert str(stats.num_rounds) in text

    def test_markdown_renders_pipe_tables(self, stats):
        text = render_report(stats, fmt="markdown")
        assert text.startswith("# Trace report:")
        assert "| metric | value |" in text
        assert "| --- | --- |" in text

    def test_json_is_the_schema_snapshot(self, stats):
        payload = json.loads(render_report(stats, fmt="json"))
        assert payload["schema"] == ANALYSIS_SCHEMA
        assert payload["num_rounds"] == stats.num_rounds
        assert len(payload["devices"]) == len(stats.devices)

    def test_top_devices_truncates_deterministically(self, stats):
        text = render_report(stats, top_devices=2)
        assert "Top 2 devices by energy" in text
        ordered = sorted(
            stats.devices, key=lambda d: (-d.total_joules, d.device_id)
        )
        assert f"\n{ordered[0].device_id:>6d}  " in "\n" + text.split(
            "Top 2 devices by energy"
        )[1]

    def test_unknown_format_rejected(self, stats):
        with pytest.raises(ConfigurationError, match="format"):
            render_report(stats, fmt="pdf")

    def test_non_positive_top_devices_rejected(self, stats):
        with pytest.raises(ConfigurationError, match="top_devices"):
            render_report(stats, top_devices=0)


class TestDeterminism:
    def test_repeat_invocations_are_byte_identical(self, stats):
        for fmt in ("table", "markdown", "json"):
            assert render_report(stats, fmt=fmt) == render_report(
                stats, fmt=fmt
            )

    @pytest.mark.parametrize("backend_name", ["thread", "process"])
    def test_reports_identical_across_backends(self, backend_name, tmp_path):
        serial_path = tmp_path / "serial.jsonl"
        other_path = tmp_path / f"{backend_name}.jsonl"
        run_traced_helcfl(serial_path, rounds=3)
        with create_backend(backend_name, workers=2) as backend:
            run_traced_helcfl(other_path, rounds=3, backend=backend)

        serial = compute_run_stats(load_trace(str(serial_path)).events)
        other = compute_run_stats(load_trace(str(other_path)).events)
        for fmt in ("table", "markdown", "json"):
            assert render_report(serial, fmt=fmt) == render_report(
                other, fmt=fmt
            )


SPAN_TIMING = [
    ("run", 1, 0.5, 0.125, 2048.0, 0.25, 0.0625),
    ("round", 5, 0.375, 0.0625, 1024.0, 0.125, 0.03125),
]
"""Fixed self-time rows: real ones are wall clock and never compare."""

PINNED_RENDERINGS = {
    ("clean", "table"): "3fd6e4e83465e0086b27eeb0fbc294cfde6d95ae7116850ca45dbc65af1afe5a",
    ("clean", "markdown"): "3af65a5024e080ac7cd9194d7e908b8d4b031bc963dd2ff5615cc611098ba2f7",
    ("chaos", "table"): "60f8231b7b215cbbb73eaddefd9dba6088eafedd381974cb244b7b897e7b96a2",
    ("chaos", "markdown"): "04dbb76a837eee1129adbcfa14df1fbfe945d1245fb6de8dfa6219d62ce359e0",
}
"""sha256 of each rendering; every section is drawn in the chaos run."""


@pytest.fixture(scope="module")
def chaos_stats(tmp_path_factory):
    from repro.faults import DropoutFault, FaultPlan

    path = tmp_path_factory.mktemp("report") / "chaos.jsonl"
    plan = FaultPlan(
        seed=6,
        faults=(
            DropoutFault(
                phase="before_compute", device_id=5, rounds=(2,),
                probability=1.0,
            ),
        ),
    )
    run_traced_helcfl(path, faults=plan)
    return compute_run_stats(load_trace(str(path)).events, source="chaos.jsonl")


@pytest.mark.parametrize("run,fmt", sorted(PINNED_RENDERINGS))
def test_renderings_are_pinned(stats, chaos_stats, run, fmt):
    if run == "clean":
        text = render_report(stats, fmt=fmt)
    else:
        text = render_report(chaos_stats, fmt=fmt, top_devices=3,
                             span_timing=SPAN_TIMING)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == PINNED_RENDERINGS[run, fmt]
