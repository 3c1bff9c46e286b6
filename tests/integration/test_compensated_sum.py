"""The pinned bits do not depend on how builtin ``sum`` adds floats.

Python 3.12 made builtin ``sum`` compensate float rounding, so a float
total written as ``sum(...)`` gives other bits on 3.12 than on 3.11,
where the digests were recorded. Every float total on the recorded
path is a left fold instead (``repro.sequential.sequential_sum``).
Here ``builtins.sum`` is swapped for an emulation of the 3.12 float
path (:mod:`tests.neumaier`) and the scheduling-loop digests and one
whole-trace pin must hold.
"""

import builtins

import pytest

from tests.integration import test_schedule_loop_digest as loops
from tests.integration import test_trace_bytes_pinned as pins
from tests.neumaier import neumaier_sum


@pytest.fixture
def compensated_sum(monkeypatch):
    monkeypatch.setattr(builtins, "sum", neumaier_sum)


def test_emulation_compensates_floats_only():
    assert neumaier_sum([0.1] * 10) == 1.0
    assert neumaier_sum([1e100, 1.0, -1e100]) == 1.0
    assert neumaier_sum([-0.0, -0.0]) == 0.0
    total = neumaier_sum([2, True, 3])
    assert total == 6 and type(total) is int
    assert neumaier_sum([[1], [2]], []) == [1, 2]


@pytest.mark.usefixtures("compensated_sum")
@pytest.mark.parametrize("name", sorted(loops.CASES))
def test_schedule_loop_digest(name):
    spec, quantize, expected = loops.CASES[name]
    assert loops.loop_digest(spec, quantize) == expected


@pytest.mark.usefixtures("compensated_sum")
@pytest.mark.parametrize("name", sorted(loops.OBJECT_CASES))
def test_object_fleet_loop_digest(name):
    assert loops.object_loop_digest(name) == loops.OBJECT_CASES[name][-1]


@pytest.mark.usefixtures("compensated_sum")
def test_trace_and_checkpoint_bytes(tmp_path, monkeypatch):
    pins.test_trace_and_checkpoint_bytes_match_pins(
        "durable_serial", tmp_path, monkeypatch
    )
