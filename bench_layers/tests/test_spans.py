"""Span recorder and self-time arithmetic."""

import pytest

from bench_layers.spans import SpanRecorder, instrument, self_time_by_name, self_times


def span(name, start, end, parent=-1):
    return {"name": name, "start": start, "end": end, "parent": parent}


def test_child_time_is_subtracted_from_the_parent():
    spans = [span("run", 0.0, 10.0), span("a", 1.0, 4.0, 0), span("b", 5.0, 7.0, 0)]
    assert self_times(spans) == [5.0, 3.0, 2.0]


def test_self_times_add_up_to_the_root():
    spans = [
        span("run", 0.0, 10.0),
        span("round", 1.0, 9.0, 0),
        span("stage", 2.0, 5.0, 1),
        span("stage", 6.0, 8.0, 1),
    ]
    assert sum(self_times(spans)) == pytest.approx(10.0)
    assert self_time_by_name(spans) == {"run": 2.0, "round": 3.0, "stage": 5.0}


def test_overlapping_children_are_counted_once():
    spans = [span("run", 0.0, 10.0), span("a", 1.0, 6.0, 0), span("b", 4.0, 8.0, 0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_self_time_is_floored_at_zero():
    # Children that stick out of the parent are clipped to it.
    spans = [span("run", 2.0, 4.0), span("a", 0.0, 3.5, 0), span("b", 3.0, 9.0, 0)]
    assert self_times(spans)[0] == 0.0


def test_nested_child_inside_another_child_does_not_go_negative():
    spans = [span("run", 0.0, 4.0), span("a", 1.0, 3.0, 0), span("b", 1.5, 2.0, 0)]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_recorder_nests_by_call_order_and_shares_one_run_id():
    recorder = SpanRecorder("w#0")
    root = recorder.open("run")
    recorder.call("stage", lambda: recorder.call("kernel", lambda: None))
    recorder.close(root)
    spans = recorder.to_dicts()
    assert [s["name"] for s in spans] == ["run", "stage", "kernel"]
    assert [s["parent"] for s in spans] == [-1, 0, 1]
    assert {s["run"] for s in spans} == {"w#0"}
    assert all(s["end"] >= s["start"] for s in spans)
    assert recorder.innermost is None


def test_closing_a_span_closes_what_is_still_open_inside_it():
    recorder = SpanRecorder("w#0")
    root = recorder.open("run")
    recorder.open("round")
    recorder.close(root)
    assert recorder.innermost is None
    assert recorder.ends[1] == recorder.ends[0]
    with pytest.raises(ValueError):
        recorder.close(root)


def test_span_is_closed_when_the_call_raises():
    recorder = SpanRecorder("w#0")

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        recorder.call("stage", boom)
    assert recorder.innermost is None


class _Stage:
    def work(self, value, scale=1):
        return value * scale


def test_instrument_keeps_type_and_result_and_reports_the_call():
    recorder = SpanRecorder("w#0")
    stage, other = _Stage(), _Stage()
    seen = []
    order = []
    instrument(
        stage,
        "work",
        recorder,
        "layer.work",
        before=lambda: order.append("before"),
        after=lambda args, kwargs, result: seen.append((args, kwargs, result)),
    )
    assert stage.work(3, scale=2) == 6
    assert type(stage) is _Stage
    assert seen == [((3,), {"scale": 2}, 6)]
    assert order == ["before"]
    assert recorder.names == ["layer.work"]
    other.work(1)
    assert recorder.names == ["layer.work"]  # other instances are untouched
