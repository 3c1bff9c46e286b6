"""Unit tests for span-tree analytics (structure, critical path,
self time) over hand-built event segments."""

import pytest

from repro.obs.analysis import (
    SpanSummary,
    build_span_nodes,
    self_time_rows,
    summarize_spans,
)
from repro.obs.events import (
    SpanEndEvent,
    SpanStartEvent,
    WorkerResourceEvent,
)


def start(span_id, parent="", name=None, t=0.0, pid=100, round_index=0):
    return SpanStartEvent(
        round_index=round_index,
        span_id=span_id,
        parent_id=parent,
        name=name if name is not None else span_id,
        t_wall=t,
        pid=pid,
    )


def end(span_id, t=1.0, dur=1.0, pid=100, round_index=0):
    return SpanEndEvent(
        round_index=round_index,
        span_id=span_id,
        t_wall=t,
        duration_s=dur,
        pid=pid,
    )


def res(span_id, rss=512.0, user=0.5, sys=0.1, pid=100, round_index=0):
    return WorkerResourceEvent(
        round_index=round_index,
        span_id=span_id,
        pid=pid,
        rss_peak_kb=rss,
        cpu_user_s=user,
        cpu_sys_s=sys,
    )


def tree_events():
    """run > (round-1 > selection, round-2 > local_updates > task)."""
    return [
        start("run", t=0.0),
        start("round-1", parent="run", name="round", t=0.1),
        start("round-1/selection", parent="round-1", name="selection", t=0.2),
        end("round-1/selection", t=0.4, dur=0.2),
        end("round-1", t=0.5, dur=0.4),
        start("round-2", parent="run", name="round", t=0.5),
        start(
            "round-2/local_updates",
            parent="round-2",
            name="local_updates",
            t=0.6,
        ),
        start(
            "round-2/local_updates/task-3",
            parent="round-2/local_updates",
            name="task",
            t=0.6,
            pid=200,
        ),
        res("round-2/local_updates/task-3", rss=2048.0, pid=200),
        end("round-2/local_updates/task-3", t=0.9, dur=0.3, pid=200),
        end("round-2/local_updates", t=1.0, dur=0.4),
        end("round-2", t=1.1, dur=0.6),
        end("run", t=1.2, dur=1.2),
    ]


class TestBuildSpanNodes:
    def test_positions_durations_and_resources(self):
        nodes = build_span_nodes(tree_events())
        by_id = {n.span_id: n for n in nodes}
        assert [n.span_id for n in nodes] == [
            "run",
            "round-1",
            "round-1/selection",
            "round-2",
            "round-2/local_updates",
            "round-2/local_updates/task-3",
        ]
        assert by_id["run"].start_pos == 0
        assert by_id["run"].end_pos == 12
        assert by_id["run"].duration_s == 1.2
        assert all(n.closed for n in nodes)
        task = by_id["round-2/local_updates/task-3"]
        assert task.pid == 200
        assert task.rss_peak_kb == 2048.0
        assert by_id["round-1"].rss_peak_kb == 0.0

    def test_unmatched_end_is_ignored(self):
        nodes = build_span_nodes([end("ghost"), start("real")])
        assert [n.span_id for n in nodes] == ["real"]
        assert not nodes[0].closed

    def test_reopened_id_closes_lifo(self):
        events = [
            start("attempt", t=0.0),
            start("attempt", t=1.0),
            end("attempt", t=2.0, dur=1.0),
        ]
        nodes = build_span_nodes(events)
        assert [n.start_pos for n in nodes] == [0, 1]
        assert nodes[0].end_pos is None  # first open is still open
        assert nodes[1].end_pos == 2

    def test_resource_attaches_to_top_open_record(self):
        events = [
            start("attempt", t=0.0),
            start("attempt", t=1.0),
            res("attempt", rss=999.0),
        ]
        nodes = build_span_nodes(events)
        assert nodes[0].rss_peak_kb == 0.0
        assert nodes[1].rss_peak_kb == 999.0


class TestSummarizeSpans:
    def test_empty_segment(self):
        summary = summarize_spans([])
        assert summary == SpanSummary()
        assert summary.critical_path == ()
        assert summary.critical_path_len == 0

    def test_tree_digest(self):
        summary = summarize_spans(tree_events())
        assert summary.spans_total == 6
        assert summary.spans_unclosed == 0
        assert summary.max_depth == 4
        assert summary.by_name == {
            "run": 1,
            "round": 2,
            "selection": 1,
            "local_updates": 1,
            "task": 1,
        }

    def test_critical_path_follows_latest_end_position(self):
        summary = summarize_spans(tree_events())
        # round-2's end appears later in the trace than round-1's, and
        # within round-2 the local_updates stage ends after the task.
        assert summary.critical_path == (
            "run",
            "round-2",
            "round-2/local_updates",
            "round-2/local_updates/task-3",
        )

    def test_unclosed_span_outranks_every_closed_sibling(self):
        events = [
            start("run"),
            start("round-1", parent="run", name="round"),
            end("round-1", dur=9.9),
            start("round-2", parent="run", name="round"),
            # round-2 never ends: the crash cut is the critical path.
        ]
        summary = summarize_spans(events)
        assert summary.spans_unclosed == 2  # run and round-2
        assert summary.critical_path == ("run", "round-2")

    def test_structure_ignores_telemetry(self):
        jittered = [
            start("run", t=123.0, pid=777),
            start("round-1", parent="run", name="round", t=124.0, pid=777),
            end("round-1", t=125.0, dur=99.0, pid=777),
            end("run", t=126.0, dur=100.0, pid=777),
        ]
        baseline = [
            start("run"),
            start("round-1", parent="run", name="round"),
            end("round-1"),
            end("run"),
        ]
        assert summarize_spans(jittered) == summarize_spans(baseline)


class TestSpanSummaryRoundTrip:
    def test_to_dict_from_dict(self):
        summary = summarize_spans(tree_events())
        assert SpanSummary.from_dict(summary.to_dict()) == summary

    def test_missing_payload_is_empty(self):
        assert SpanSummary.from_dict(None) == SpanSummary()
        assert SpanSummary.from_dict({}) == SpanSummary()

    def test_by_name_serializes_sorted(self):
        summary = SpanSummary(
            spans_total=2, by_name={"zeta": 1, "alpha": 1}
        )
        assert list(summary.to_dict()["by_name"]) == ["alpha", "zeta"]

    def test_equal_summaries_compare_equal(self):
        one = summarize_spans(tree_events())
        two = summarize_spans(tree_events())
        assert one == two
        assert one != SpanSummary(spans_total=one.spans_total)


class TestSelfTimeRows:
    def test_self_time_subtracts_direct_children(self):
        rows = {r[0]: r for r in self_time_rows(tree_events())}
        name, count, total, self_s = rows["run"][:4]
        assert count == 1
        assert total == pytest.approx(1.2)
        # run's direct children are the two rounds (0.4 + 0.6).
        assert self_s == pytest.approx(0.2)
        # local_updates: 0.4 total minus the 0.3 task.
        assert rows["local_updates"][3] == pytest.approx(0.1)

    def test_self_time_floors_at_zero(self):
        events = [
            start("stage"),
            start("t1", parent="stage", name="task"),
            start("t2", parent="stage", name="task"),
            end("t1", dur=0.8),
            end("t2", dur=0.8),
            end("stage", dur=1.0),  # pooled children overlap the stage
        ]
        rows = {r[0]: r for r in self_time_rows(events)}
        assert rows["stage"][3] == 0.0

    def test_rows_sorted_by_total_then_name(self):
        rows = self_time_rows(tree_events())
        totals = [r[2] for r in rows]
        assert totals == sorted(totals, reverse=True)
        assert rows[0][0] == "run"

    def test_resources_max_rss_sum_cpu(self):
        events = [
            start("a", name="task"),
            res("a", rss=100.0, user=1.0, sys=0.25),
            end("a", dur=1.0),
            start("b", name="task"),
            res("b", rss=300.0, user=2.0, sys=0.25),
            end("b", dur=1.0),
        ]
        (row,) = self_time_rows(events)
        name, count, total, self_s, rss, user, sys_ = row
        assert (name, count) == ("task", 2)
        assert rss == 300.0
        assert user == pytest.approx(3.0)
        assert sys_ == pytest.approx(0.5)

    def test_empty_segment_has_no_rows(self):
        assert self_time_rows([]) == []
