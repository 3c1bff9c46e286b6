"""Whole-byte pins of a traced, checkpointed run.

The golden pipeline digests (``tests/fl/test_round_pipeline_golden.py``)
reduce a trace to its float-free skeleton; this file pins every byte.
The span clock, the resource sampler and the pid are replaced with
deterministic counters, so a spans-on trace is a pure function of the
run, and the sha256 of the whole JSONL file and of each round's
checkpoint file and its history log are compared with committed
values. A change that claims to write the same bytes faster (line
encoding, batching, checkpoint encoding) must leave every digest here
alone.

The checkpoint digests were re-recorded once, for checkpoint version 2
(the history moved out of the state into the append-only log, and the
fleet-sized maps became columns); the trace digests did not move.

The thread backend runs one worker so the fake clock is read in a
fixed order. A pool cuts one chunk per worker, so that worker trains
the whole selection as one chunk, as the serial backend does: both
chaos scenarios pin the same bytes. If a digest changes on purpose,
regenerate with::

    PYTHONPATH=src:. python tests/integration/test_trace_bytes_pinned.py
"""

import gzip
import hashlib
import itertools
import os
import types

import pytest

from repro.devices.battery import Battery
from repro.experiments.runner import build_environment, build_trainer
from repro.experiments.settings import ExperimentSettings
from repro.faults import FaultPlan
from repro.fl import checkpoint as checkpoint_module
from repro.fl import trainer as trainer_module
from repro.fl.execution import create_backend
from repro.obs import JsonlTraceSink, RunObserver
from repro.obs import spans

EXAMPLE_FAULT_PLAN = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "fault_plan.json"
)

PINNED = {
    "durable_serial": (
        "8d5d444a5ea03a27896b21ff474432b9dda2963354790e31cb6d89a919d68a27",
        "20168dc0c6fc961d644b079205293d21a08899be92d1035f74089f353333c5cd",
    ),
    "chaos_serial": (
        "776543d8aa3457998fa7c2add668e450aee219ea49a6708599f6acc230e7836c",
        "7d2df7b204596665fed65c99ca98344273ab1dc69ee02bef3d65fe51db989846",
    ),
    "chaos_thread": (
        "776543d8aa3457998fa7c2add668e450aee219ea49a6708599f6acc230e7836c",
        "7d2df7b204596665fed65c99ca98344273ab1dc69ee02bef3d65fe51db989846",
    ),
}
"""``(trace sha256, sha256 of the per-round checkpoint and history-log
sha256s)``."""

GZ_BYTES_BEFORE_BATCHING = 63672
"""Size of ``durable_serial``'s trace written to ``trace.jsonl.gz`` when
every event was its own write and ``Z_SYNC_FLUSH``."""


def install_fake_clock(monkeypatch):
    """Counters in place of the span clock, rusage and pid."""
    ticks = itertools.count(1)
    samples = itertools.count(1)
    monkeypatch.setattr(
        spans,
        "time",
        types.SimpleNamespace(
            time=lambda: next(ticks) * 0.013,
            perf_counter=lambda: next(ticks) * 0.0071,
        ),
    )
    monkeypatch.setattr(
        spans,
        "rusage_snapshot",
        lambda: (lambda k: (2048.0 + k, 0.25 * k, 0.125 * k))(next(samples)),
    )
    monkeypatch.setattr(spans, "os", types.SimpleNamespace(getpid=lambda: 4242))


SCENARIOS = ("durable_serial", "chaos_serial", "chaos_thread")


def scenario(name):
    """``(settings, trainer overrides, fault plan, backend)`` of ``name``.

    ``durable_serial``: Q = 2000, N = 200, spans on. ``chaos_*``: the
    golden chaos scenario — the example fault plan, a 9 s round
    deadline, over-selection by 2 and batteries that run out.
    """
    if name == "durable_serial":
        settings = ExperimentSettings(
            seed=7, rounds=3, num_users=2000, train_size=20_000, test_size=200
        )
        return settings, {}, None, None
    overrides = dict(
        round_deadline_s=9.0, over_select_margin=2, enforce_battery=True
    )
    backend = None if name == "chaos_serial" else "thread"
    plan = FaultPlan.load(EXAMPLE_FAULT_PLAN)
    return ExperimentSettings.quick(rounds=20), overrides, plan, backend


def run_scenario(name, directory, monkeypatch, trace_name="trace.jsonl"):
    """Run ``name`` on the fake clock; returns ``(trace bytes on disk,
    sha256 of the per-round checkpoint and history-log sha256s)``."""
    install_fake_clock(monkeypatch)
    os.makedirs(directory, exist_ok=True)
    trace_path = os.path.join(directory, trace_name)
    checkpoint_path = os.path.join(directory, "checkpoint.json")
    settings, overrides, faults, backend_name = scenario(name)
    environment = build_environment(settings, iid=True)
    if faults is not None:
        for device in environment.devices[::3]:
            device.battery = Battery(1.5)
    round_digests = []

    def save_and_digest(path, checkpoint, log):
        checkpoint_module.save_checkpoint(path, checkpoint, log)
        for written in (path, checkpoint_module.history_path(path)):
            with open(written, "rb") as handle:
                round_digests.append(hashlib.sha256(handle.read()).hexdigest())

    monkeypatch.setattr(trainer_module, "save_checkpoint", save_and_digest)
    backend = create_backend(backend_name, workers=1) if backend_name else None
    try:
        with RunObserver(sink=JsonlTraceSink(trace_path)) as observer:
            build_trainer(
                "helcfl",
                settings,
                environment,
                config_overrides=dict(checkpoint_every=1, **overrides),
                backend=backend,
                observer=observer,
                faults=faults,
                checkpoint_path=checkpoint_path,
            ).run()
    finally:
        if backend is not None:
            backend.close()
    with open(trace_path, "rb") as handle:
        written = handle.read()
    joined = "\n".join(round_digests).encode("ascii")
    return written, hashlib.sha256(joined).hexdigest()


@pytest.mark.parametrize("name", SCENARIOS)
def test_trace_and_checkpoint_bytes_match_pins(name, tmp_path, monkeypatch):
    written, checkpoints = run_scenario(name, str(tmp_path), monkeypatch)
    trace_digest = hashlib.sha256(written).hexdigest()
    assert (trace_digest, checkpoints) == PINNED[name], (
        f"the {name!r} trace or checkpoint bytes changed; see this "
        "file's docstring"
    )


def test_gzip_twin_holds_the_same_lines_in_fewer_bytes(tmp_path, monkeypatch):
    plain, _ = run_scenario("durable_serial", str(tmp_path / "a"), monkeypatch)
    packed, _ = run_scenario(
        "durable_serial", str(tmp_path / "b"), monkeypatch, "trace.jsonl.gz"
    )
    assert gzip.decompress(packed) == plain
    assert len(packed) < GZ_BYTES_BEFORE_BATCHING


if __name__ == "__main__":
    import tempfile

    patcher = pytest.MonkeyPatch()
    for name in SCENARIOS:
        with tempfile.TemporaryDirectory() as scratch:
            trace, checkpoints = run_scenario(name, scratch, patcher)
        digest = hashlib.sha256(trace).hexdigest()
        print(f'    "{name}": (\n        "{digest}",\n        "{checkpoints}",\n    ),')
    with tempfile.TemporaryDirectory() as scratch:
        packed, _ = run_scenario("durable_serial", scratch, patcher, "trace.jsonl.gz")
    print(f"GZ_BYTES = {len(packed)}")
    patcher.undo()
