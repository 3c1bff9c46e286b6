"""The trainer reads the round timeline as columns.

``RoundTimeline.users`` is a view for reports and tests; nothing between
``simulate_tdma_round`` and the trace sink may build a ``UserTimeline``,
traced or not, faulted or not.
"""

import pytest

from repro.faults import FaultPlan
from repro.network.tdma import UserTimeline
from repro.obs import JsonlTraceSink
from repro.obs.schema import validate_trace
from tests.fl.test_round_pipeline_golden import EXAMPLE_FAULT_PLAN, quick_trainer

CHAOS = dict(
    battery_j=1.5,
    round_deadline_s=9.0,
    over_select_margin=2,
    enforce_battery=True,
)


@pytest.mark.parametrize("chaos", [False, True], ids=["plain", "chaos"])
def test_round_path_builds_no_entry_objects(tmp_path, monkeypatch, chaos):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a UserTimeline was built on the round path")

    monkeypatch.setattr(UserTimeline, "__init__", refuse)
    path = str(tmp_path / "trace.jsonl")
    sink = JsonlTraceSink(path)
    if chaos:
        trainer = quick_trainer(
            sink, rounds=3, faults=FaultPlan.load(EXAMPLE_FAULT_PLAN), **CHAOS
        )
    else:
        trainer = quick_trainer(sink, rounds=3)
    history = trainer.run()
    trainer.observer.close()
    assert len(history) == 3
    assert trainer.ledger.rounds_recorded == 3
    assert validate_trace(path) > 3
