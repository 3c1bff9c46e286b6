"""Golden digests of the round loop's event stream.

The parity suites compare backend against backend, or a faulted run
against a clean one, *within* one commit — a refactor that reorders
events the same way everywhere passes all of them. This file pins the
stream *across* commits: each scenario's trace is reduced to its
float-free skeleton (so the digest does not depend on the host's BLAS)
and its sha256 is compared with a committed value.

A digest changes only when the order, kind, round, ids, stop reason or
span tree of the trace changes. If that is intended, say so in the PR
and regenerate with::

    PYTHONPATH=src:. python tests/fl/test_round_pipeline_golden.py
"""

import hashlib
import json
import os
import tempfile

import pytest

from repro.baselines.classic import RandomSelection
from repro.devices.battery import Battery
from repro.experiments.runner import build_environment, build_trainer
from repro.experiments.settings import ExperimentSettings
from repro.faults import BatteryDeathFault, DropoutFault, FaultPlan
from repro.fl.checkpoint import load_checkpoint
from repro.obs import CollectingSink, RunObserver
from tests.kill import run_killed_after
from tests.obs.test_spans import SPAN_KINDS, span_structure

EXAMPLE_FAULT_PLAN = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "fault_plan.json"
)

GOLDEN = {
    "plain": "a2fb1c882d8d1be360ea6435df80ea75b7ebeee8550eb4445505b68a7890312c",
    "chaos": "907acb13141389b6e3944d4c50cbc8c1e879ebdb1cb0d0279f88023ab07b62b9",
    "blackout": "98e5bff7d66c7298ba3ba12e6bb3e56868743651ba032dfe514f591a2434b161",
    "crash": "b8752b90094181273e637b60b6d1b9858c8802f04d35c777c241ae72c62cf534",
    "resume": "36478048b8daf799d9d8f68a965f860d9c3529bb0f8bc977386a481d4dd96657",
}


class CrashInRoundThree(RandomSelection):
    """Selects like :class:`RandomSelection`, then fails in round 3."""

    def select_population(self, round_index, population):
        if round_index == 3:
            raise RuntimeError("selection failed in round 3")
        return super().select_population(round_index, population)


def quick_trainer(
    sink, rounds=5, battery_j=None, faults=None, checkpoint_path=None, **config
):
    """A quick-profile HELCFL trainer observed by ``sink``."""
    settings = ExperimentSettings.quick(rounds=rounds)
    environment = build_environment(settings, iid=True)
    if battery_j is not None:
        for device in environment.devices[::3]:
            device.battery = Battery(battery_j)
    return build_trainer(
        "helcfl",
        settings,
        environment,
        config_overrides=config,
        observer=RunObserver(sink=sink),
        faults=faults,
        checkpoint_path=checkpoint_path,
    )


def run_plain(sink):
    """(a) five undisturbed rounds."""
    trainer = quick_trainer(sink)
    return trainer, trainer.run()


def run_chaos(sink):
    """(b) the example fault plan, a round deadline, over-selection
    and batteries small enough to run out."""
    trainer = quick_trainer(
        sink,
        rounds=20,
        battery_j=1.5,
        faults=FaultPlan.load(EXAMPLE_FAULT_PLAN),
        round_deadline_s=9.0,
        over_select_margin=2,
        enforce_battery=True,
    )
    return trainer, trainer.run()


def run_blackout(sink):
    """Every selected device dropped before computing in round 2 (the
    empty-timeline round), and a battery death in round 3."""
    plan = FaultPlan(
        seed=1,
        faults=(
            DropoutFault(
                phase="before_compute", probability=1.0, rounds=(2,)
            ),
            BatteryDeathFault(probability=1.0, rounds=(3,)),
        ),
    )
    trainer = quick_trainer(
        sink, rounds=4, battery_j=50.0, faults=plan, enforce_battery=True
    )
    return trainer, trainer.run()


def run_crash(sink):
    """(c) the selection strategy raises in round 3."""
    trainer = quick_trainer(sink)
    trainer.selection = CrashInRoundThree(0.2, seed=5)
    with pytest.raises(RuntimeError, match="round 3"):
        trainer.run()
    return trainer, None


def run_resume(sink):
    """(d) kill in round 3, then resume a fresh trainer from the
    on-disk round-2 checkpoint; both segments land in the same trace."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "checkpoint.json")
        paused = quick_trainer(sink, checkpoint_path=path, checkpoint_every=1)
        run_killed_after(paused, 2)
        trainer = quick_trainer(sink)
        return trainer, trainer.run(resume_from=load_checkpoint(path))


SCENARIOS = {
    "plain": run_plain,
    "chaos": run_chaos,
    "blackout": run_blackout,
    "crash": run_crash,
    "resume": run_resume,
}


def skeleton(events):
    """The float-free part of a trace, one JSON line per event.

    Span events reduce to their ``span_structure`` tuple; every other
    event keeps its kind, round, ids, outcome/cause strings, counts and
    stop reason — each field that is not a float — and a mapping (the
    assigned frequencies) keeps its keys in order.
    """
    lines = []
    for payload in (event.to_dict() for event in events):
        if payload["event"] in SPAN_KINDS:
            (line,) = span_structure([payload])
        else:
            line = {
                key: list(value) if isinstance(value, dict) else value
                for key, value in payload.items()
                if not isinstance(value, float)
            }
        lines.append(json.dumps(line, sort_keys=True))
    return lines


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_event_stream_matches_committed_digest(name):
    sink = CollectingSink()
    SCENARIOS[name](sink)
    lines = skeleton(sink.events)
    # Every scenario, the crash included, ends on its run_stop record.
    assert sink.events[-1].kind == "run_stop"
    assert digest(lines) == GOLDEN[name], (
        f"the {name!r} event stream changed; see this file's docstring"
    )


if __name__ == "__main__":
    for scenario in sorted(SCENARIOS):
        collected = CollectingSink()
        SCENARIOS[scenario](collected)
        print(f'    "{scenario}": "{digest(skeleton(collected.events))}",')
