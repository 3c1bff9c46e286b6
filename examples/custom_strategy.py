#!/usr/bin/env python
"""Extending the framework: write and evaluate a custom selection strategy.

Shows the plugin surface a downstream user works against: subclass
:class:`repro.fl.strategy.SelectionStrategy`, implement
``select_population`` (rank positions of the
:class:`~repro.devices.DevicePopulation` the trainer polls each round),
hand it to the trainer, and compare against HELCFL on identical
conditions.

The example strategy is "loss-proportional" sampling — a
statistical-utility heuristic that prefers users whose data the global
model currently fits worst. It scores them itself, with the global
model's loss on their local data.

Usage::

    python examples/custom_strategy.py
"""

from typing import Dict, Sequence

import numpy as np

from repro.devices.device import UserDevice
from repro.devices.population import DevicePopulation
from repro.experiments import ExperimentSettings, build_environment, run_strategy
from repro.fl.server import FederatedServer
from repro.fl.strategy import SelectionStrategy, selection_count
from repro.fl.trainer import FederatedTrainer
from repro.nn.losses import SoftmaxCrossEntropy
from repro.rng import ensure_generator


class LossProportionalSelection(SelectionStrategy):
    """Select users with probability proportional to their current loss.

    Before each round, the strategy scores every user by the global
    model's loss on (a sample of) their local data, then samples the
    round's participants proportionally. High-loss users — whose data
    the model handles worst — are favoured.

    The population carries the devices' resource columns only; the
    local datasets the scores need are looked up by
    ``population.device_ids`` in the fleet the strategy is built with.
    """

    def __init__(
        self,
        fraction: float,
        server: FederatedServer,
        devices: Sequence[UserDevice],
        seed=None,
    ):
        self.fraction = fraction
        self.server = server
        self._device_by_id = {device.device_id: device for device in devices}
        self._rng = ensure_generator(seed)
        self._loss = SoftmaxCrossEntropy()

    def _score(self, device: UserDevice) -> float:
        inputs, labels = device.dataset.inputs, device.dataset.labels
        take = min(len(labels), 20)
        logits = self.server.model.predict(inputs[:take])
        return self._loss.loss(logits, labels[:take])

    def select_population(
        self, round_index: int, population: DevicePopulation
    ) -> np.ndarray:
        del round_index
        count = selection_count(len(population), self.fraction)
        scores = np.array(
            [
                self._score(self._device_by_id[device_id])
                for device_id in population.device_ids.tolist()
            ]
        )
        probs = scores / scores.sum()
        chosen = self._rng.choice(
            len(population), size=count, replace=False, p=probs
        )
        return np.sort(chosen)


def main() -> None:
    settings = ExperimentSettings.quick(seed=3, rounds=60)
    environment = build_environment(settings, iid=False)

    # Reference run: HELCFL on the same environment.
    helcfl = run_strategy(
        "helcfl", settings, iid=False, environment=environment
    )

    # Custom run: build the trainer directly around our strategy.
    model = settings.build_model(flattened=True)
    server = FederatedServer(
        model, test_dataset=environment.test, payload_bits=settings.payload_bits
    )
    custom = FederatedTrainer(
        server=server,
        devices=environment.devices,
        selection=LossProportionalSelection(
            settings.fraction, server, environment.devices, seed=settings.seed
        ),
        config=settings.trainer_config(),
        label="loss-proportional",
    ).run()

    print("Non-IID comparison on identical data/devices/model-init:\n")
    results: Dict[str, object] = {"HELCFL": helcfl, "loss-proportional": custom}
    for name, history in results.items():
        print(
            f"  {name:18s} best={100 * history.best_accuracy:6.2f}%  "
            f"time={history.total_time / 60:6.2f}min  "
            f"energy={history.total_energy:8.3f}J  "
            f"coverage={100 * history.coverage(settings.num_users):4.0f}%"
        )
    print(
        "\nNote: loss-proportional selection chases statistical utility "
        "only; HELCFL additionally optimizes system delay and energy."
    )


if __name__ == "__main__":
    main()
