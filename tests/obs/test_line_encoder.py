"""The compiled line encoder against ``json.dumps``, and column batches.

Every trace line is written by its event class's
:class:`repro.wire.LineTemplate`; the contract is byte equality with
``json.dumps(event.to_dict()) + "\\n"`` for every value a field can
hold, and an error wherever ``json.dumps`` raises. A column batch
(:meth:`repro.obs.RunObserver.emit_batch`) must be indistinguishable
from emitting its rows one event at a time.
"""

import io
import json
import math
from typing import Dict, Tuple, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SerializationError
from repro.obs import (
    EVENT_TYPES,
    CollectingSink,
    DeviceRoundEvent,
    JsonlTraceSink,
    RunObserver,
    SelectionEvent,
    StopReason,
)

INTS = st.one_of(
    st.integers(),
    st.integers(min_value=2**63, max_value=2**80),
    st.integers(min_value=-(2**80), max_value=-(2**63) - 1),
)
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from(
        [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e16,
         1e-7, 1.7976931348623157e308, math.nan, math.inf, -math.inf]
    ),
)
STRINGS = st.one_of(
    st.text(),
    st.sampled_from(
        ['"', "\\", 'a"b\\c', "\x00\x01\x1f\x7f", "\n\t\r", "é", "日本",
         "\U0001f600", "\ud800", " ", "%s %% %d"]
    ),
)
# Values json.dumps writes although their type is not the declared one.
OFF_TYPE = st.sampled_from(
    [True, False, None, 7, 2.5, np.float64(1.5), np.float64("nan"),
     StopReason.PLATEAU]
)
SCALARS = {int: INTS, float: FLOATS, str: STRINGS, bool: st.booleans()}
SHAPED = {
    Tuple[int, ...]: st.lists(INTS, max_size=4).map(tuple),
    Dict[int, float]: st.dictionaries(INTS, FLOATS, max_size=4),
}


def field_values(hint, off_type=True):
    if hint in SCALARS:
        return st.one_of(SCALARS[hint], OFF_TYPE) if off_type else SCALARS[hint]
    return SHAPED[hint]


def events(cls, off_type=True):
    hints = get_type_hints(cls)
    return st.fixed_dictionaries(
        {f.name: field_values(hints[f.name], off_type) for f in cls.__wire__}
    ).map(lambda fields: cls(**fields))


def reference(event):
    return json.dumps(event.to_dict()) + "\n"


def outcome(write, event):
    """What ``write(event)`` returns, or the type of what it raises."""
    try:
        return write(event)
    except Exception as exc:
        return type(exc)


@pytest.mark.parametrize("cls", list(EVENT_TYPES.values()), ids=list(EVENT_TYPES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_line_equals_json_dumps(cls, data):
    event = data.draw(events(cls))
    assert cls.__line__.line(event) == reference(event)


@pytest.mark.parametrize("cls", list(EVENT_TYPES.values()), ids=list(EVENT_TYPES))
@pytest.mark.parametrize("bad", [object(), np.int64(3), {1, 2}])
def test_unserializable_value_raises_like_json_dumps(cls, bad):
    for name in (f.name for f in cls.__wire__):
        event = cls(**{**{f.name: f.example for f in cls.__wire__}, name: bad})
        assert outcome(cls.__line__.line, event) == outcome(reference, event)


@st.composite
def batches(draw):
    """``(rows, parts, events)``: a batch and the events it stands for."""
    rows = draw(st.integers(min_value=0, max_value=5))
    kinds = draw(st.lists(st.sampled_from(list(EVENT_TYPES.values())), min_size=1, max_size=3))
    parts, per_part = [], []
    for cls in kinds:
        hints = get_type_hints(cls)
        scalars, columns, fields = {}, {}, []
        for spec in cls.__wire__:
            strategy = field_values(hints[spec.name], off_type=False)
            if draw(st.booleans()):
                scalars[spec.name] = draw(strategy)
                fields.append((spec.name, [scalars[spec.name]] * rows))
                continue
            values = draw(st.lists(strategy, min_size=rows, max_size=rows))
            array = hints[spec.name] is float or (
                hints[spec.name] is int and all(abs(v) < 2**62 for v in values)
            )
            columns[spec.name] = (
                np.array(values) if array and values and draw(st.booleans()) else values
            )
            fields.append((spec.name, values))
        parts.append((cls, scalars, columns))
        per_part.append((cls, fields))
    expected = [
        cls(**{name: values[row] for name, values in fields})
        for row in range(rows)
        for cls, fields in per_part
    ]
    return rows, parts, expected


@settings(max_examples=150, deadline=None)
@given(batch=batches())
def test_batch_equals_its_rows_emitted_one_at_a_time(batch):
    rows, parts, expected = batch
    batched, single = io.StringIO(), io.StringIO()
    by_batch = RunObserver(sink=JsonlTraceSink(batched))
    by_event = RunObserver(sink=JsonlTraceSink(single))
    by_batch.emit_batch(rows, parts)
    for event in expected:
        by_event.emit(event)
    assert batched.getvalue() == single.getvalue()
    assert by_batch.sink.events_written == by_event.sink.events_written == len(expected)

    collected, reference_sink = RunObserver(sink=CollectingSink()), CollectingSink()
    collected.emit_batch(rows, parts)
    for event in expected:
        reference_sink.emit(event)
    assert list(map(repr, collected.sink.events)) == list(
        map(repr, reference_sink.events)
    )
    assert all(
        type(a) is type(b) for a, b in zip(collected.sink.events, expected)
    )
    assert len(collected.sink.events) == len(expected)
    RunObserver().emit_batch(rows, parts)  # discarded without building events


DEVICE_ROUND = dict(
    device_id=[3, 4],
    frequency=np.array([1.5e9, 0.7e9]),
    f_max=[2e9, 2e9],
    compute_delay=[0.5, 0.25],
    upload_delay=[0.1, 0.2],
    slack=[0.0, 0.05],
    compute_energy=[1.0, 2.0],
    upload_energy=[0.5, 0.5],
    outcome=["ok", "timeout"],
)


def test_unserializable_batch_raises_and_leaves_the_file_unchanged(tmp_path):
    path = tmp_path / "t.jsonl"
    with JsonlTraceSink(str(path)) as sink:
        sink.emit(SelectionEvent(round_index=1, selected_ids=(3, 4)))
        before = path.read_bytes()
        columns = dict(DEVICE_ROUND, slack=[0.0, object()])
        with pytest.raises(TypeError):
            sink.emit_batch(2, [(DeviceRoundEvent, {"round_index": 1}, columns)])
        assert path.read_bytes() == before
        assert sink.events_written == 1


def test_batch_on_a_closed_sink_raises(tmp_path):
    sink = JsonlTraceSink(str(tmp_path / "t.jsonl"))
    sink.close()
    with pytest.raises(SerializationError, match="closed"):
        sink.emit_batch(2, [(DeviceRoundEvent, {"round_index": 1}, DEVICE_ROUND)])


def test_batch_flushes_once():
    class Counting(io.StringIO):
        flushes = 0

        def flush(self):
            self.flushes += 1

    handle = Counting()
    JsonlTraceSink(handle).emit_batch(
        2, [(DeviceRoundEvent, {"round_index": 1}, DEVICE_ROUND)]
    )
    assert handle.flushes == 1
    assert len(handle.getvalue().splitlines()) == 2


@pytest.mark.parametrize(
    "columns, match",
    [
        (dict(DEVICE_ROUND, outcome=["ok"]), "column 'outcome'"),
        (dict(DEVICE_ROUND, bogus=[1, 2]), "bogus"),
    ],
)
def test_malformed_batch_is_refused(columns, match):
    parts = [(DeviceRoundEvent, {"round_index": 1}, columns)]
    for emit in (
        JsonlTraceSink(io.StringIO()).emit_batch,
        CollectingSink().emit_batch,
    ):
        with pytest.raises((TypeError, ValueError), match=match):
            emit(2, parts)
