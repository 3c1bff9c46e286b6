"""The plugin template ``examples/custom_strategy.py`` keeps running.

Nothing else executes the example, so a change to the strategy
interface would leave it broken unnoticed. This imports its strategy
and trains two quick-profile rounds with it.
"""

import importlib.util
from pathlib import Path

from repro.experiments import ExperimentSettings, build_environment
from repro.fl.server import FederatedServer
from repro.fl.trainer import FederatedTrainer

EXAMPLE = Path(__file__).parents[1] / "examples" / "custom_strategy.py"


def load_example():
    spec = importlib.util.spec_from_file_location("custom_strategy", EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_custom_strategy_trains_two_rounds():
    example = load_example()
    settings = ExperimentSettings.quick(seed=3, rounds=2)
    environment = build_environment(settings, iid=False)
    server = FederatedServer(
        settings.build_model(flattened=True),
        test_dataset=environment.test,
        payload_bits=settings.payload_bits,
    )
    history = FederatedTrainer(
        server=server,
        devices=environment.devices,
        selection=example.LossProportionalSelection(
            settings.fraction, server, environment.devices, seed=settings.seed
        ),
        config=settings.trainer_config(),
        label="loss-proportional",
    ).run()
    assert len(history) == 2
    device_ids = {device.device_id for device in environment.devices}
    for record in history.records:
        assert len(record.selected_ids) == settings.selected_per_round
        assert set(record.selected_ids) <= device_ids
