"""Cross-commit pins of a compressed chaos run.

Top-k sparsification with error feedback keeps one residual per device,
and each round's residuals depend on the order in which the trainer
compresses its clients' updates. The parity suites compare backends
within one commit; this file pins the run *across* commits: the sha256
of the history JSON, of the energy ledger's state and of the final
global model, under the golden chaos scenario (the example fault plan,
a 9 s round deadline, over-selection by 2 and batteries that run out).

Every backend must reproduce the same digests. If one changes on
purpose, regenerate with::

    PYTHONPATH=src:. python tests/integration/test_compressed_run_pinned.py
"""

import hashlib
import json
import os

import pytest

from repro.compression import CompressionPipeline
from repro.devices.battery import Battery
from repro.experiments.runner import build_environment, build_trainer
from repro.experiments.settings import ExperimentSettings
from repro.faults import FaultPlan
from repro.fl.execution import create_backend

EXAMPLE_FAULT_PLAN = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "fault_plan.json"
)

PINNED = {
    "top_k_chaos": (
        "d86a7119655f6e2d8e94d7413c5ffdd28bb075f2f5c55ebfd88a5f6e44dc9609",
        "abdbf9e15535247043367b50c0b53c5a5a56cd6996a0491fdf19f9606f5329dc",
        "f2f0b34ac2a1002c7128ee6a00de76e99f05cb117f18c3cd581cc0ac0fa5f299",
    ),
}
"""``(history, ledger, final model)`` sha256s of the top-k chaos run."""


def run_compressed(backend_name=None):
    """The golden chaos scenario, uploads top-k sparsified (10 %, with
    error feedback); returns the three digests."""
    settings = ExperimentSettings.quick(rounds=20)
    environment = build_environment(settings, iid=True)
    for device in environment.devices[::3]:
        device.battery = Battery(1.5)
    backend = create_backend(backend_name, workers=2) if backend_name else None
    try:
        trainer = build_trainer(
            "helcfl",
            settings,
            environment,
            config_overrides=dict(
                round_deadline_s=9.0, over_select_margin=2, enforce_battery=True
            ),
            backend=backend,
            faults=FaultPlan.load(EXAMPLE_FAULT_PLAN),
        )
        trainer.compression = CompressionPipeline.top_k(0.1, error_feedback=True)
        history = trainer.run()
    finally:
        if backend is not None:
            backend.close()
    ledger = json.dumps(trainer.ledger.state_dict(), sort_keys=True)
    model = trainer.server.broadcast()
    return tuple(
        hashlib.sha256(blob).hexdigest()
        for blob in (history.to_json().encode(), ledger.encode(), model.tobytes())
    )


@pytest.mark.parametrize("backend_name", [None, "thread", "process+shm"])
def test_top_k_chaos_run_matches_pins(backend_name):
    assert run_compressed(backend_name) == PINNED["top_k_chaos"], (
        "the compressed chaos run changed; see this file's docstring"
    )


if __name__ == "__main__":
    print(f'    "top_k_chaos": {run_compressed()!r},')
