"""SL [4]: separated learning — every user trains alone.

In separated learning there is no server and no aggregation: each user
fits a private model to its own local dataset. Devices never see other
users' data, so in the non-IID setting a user can at best master the
few labels it owns — which is why the paper reports SL trailing every
federated scheme by tens of accuracy points (its "X" rows in Table I).

Reported accuracy is the mean test accuracy across (a sample of) user
models, the natural population-level analogue of the global model's
accuracy. There is no communication, so round delay is the slowest
user's compute delay and round energy is pure compute.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.devices.device import UserDevice
from repro.errors import ConfigurationError, TrainingError
from repro.fl.client import LocalTrainer
from repro.fl.history import RoundRecord, TrainingHistory
from repro.fl.server import FederatedServer
from repro.nn.metrics import accuracy
from repro.rng import SeedLike, ensure_generator
from repro.sequential import sequential_sum

__all__ = ["SeparatedLearningRunner"]


class SeparatedLearningRunner:
    """Trains one private model per user, no aggregation.

    Args:
        server: supplies the model architecture template and the test
            set (no aggregation happens; the server's global model is
            never updated).
        devices: the user population.
        config: reuses :class:`~repro.fl.trainer.TrainerConfig` for
            rounds / learning rate / local steps / eval cadence.
        eval_users: number of user models evaluated each evaluation
            round (evaluating all ``Q`` models every round is wasteful;
            a fixed random sample tracks the population mean). ``None``
            evaluates every user.
        seed: seed for choosing the evaluation sample.
        label: history label.
    """

    def __init__(
        self,
        server: FederatedServer,
        devices: Sequence[UserDevice],
        config=None,
        eval_users: Optional[int] = 10,
        seed: SeedLike = None,
        label: str = "SL",
    ) -> None:
        from repro.fl.trainer import TrainerConfig

        if not devices:
            raise TrainingError("cannot train with an empty device population")
        if eval_users is not None and eval_users <= 0:
            raise ConfigurationError(
                f"eval_users must be positive when set, got {eval_users}"
            )
        self.server = server
        self.devices = list(devices)
        self.config = config or TrainerConfig()
        self.label = label
        rng = ensure_generator(seed)
        if eval_users is None or eval_users >= len(self.devices):
            self._eval_indices = list(range(len(self.devices)))
        else:
            self._eval_indices = sorted(
                int(i)
                for i in rng.choice(len(self.devices), size=eval_users, replace=False)
            )
        self.local_trainer = LocalTrainer(
            learning_rate=self.config.learning_rate,
            local_steps=self.config.local_steps,
            batch_size=self.config.batch_size,
        )

    def _mean_accuracy(self, models: List) -> float:
        test = self.server.test_dataset
        if test is None:
            return 0.0
        scores = []
        for idx in self._eval_indices:
            preds = models[idx].predict_classes(test.inputs)
            scores.append(accuracy(preds, test.labels))
        return sequential_sum(scores) / len(scores) if scores else 0.0

    def run(self) -> TrainingHistory:
        """Train every user's model for ``config.rounds`` rounds."""
        config = self.config
        history = TrainingHistory(label=self.label)
        initial = self.server.broadcast()
        models = []
        for _ in self.devices:
            model = self.server.model.clone()
            model.set_flat_params(initial)
            models.append(model)

        cumulative_time = 0.0
        cumulative_energy = 0.0
        for round_index in range(1, config.rounds + 1):
            losses = []
            for model, device in zip(models, self.devices):
                losses.append(self.local_trainer.train(model, device.dataset))

            # All users compute in parallel at max frequency; no uplink.
            round_delay = max(d.compute_delay() for d in self.devices)
            round_energy = sequential_sum(
                [d.compute_energy() for d in self.devices]
            )
            cumulative_time += round_delay
            cumulative_energy += round_energy

            should_eval = (
                round_index % config.eval_every == 0
                or round_index == config.rounds
            )
            test_accuracy = (
                self._mean_accuracy(models) if should_eval else None
            )

            total_samples = sum(d.num_samples for d in self.devices)
            train_loss = (
                sequential_sum(
                    [l * d.num_samples for l, d in zip(losses, self.devices)]
                )
                / total_samples
            )
            history.append(
                RoundRecord(
                    round_index=round_index,
                    selected_ids=tuple(d.device_id for d in self.devices),
                    frequencies={
                        d.device_id: d.cpu.f_max for d in self.devices
                    },
                    round_delay=round_delay,
                    round_energy=round_energy,
                    compute_energy=round_energy,
                    upload_energy=0.0,
                    slack=0.0,
                    cumulative_time=cumulative_time,
                    cumulative_energy=cumulative_energy,
                    train_loss=train_loss,
                    test_accuracy=test_accuracy,
                )
            )
            if config.deadline_s is not None and cumulative_time >= config.deadline_s:
                break
        return history
