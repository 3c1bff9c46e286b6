"""SL [4]: separated learning — every user trains alone.

In separated learning there is no server and no aggregation: each user
fits a private model to its own local dataset. Devices never see other
users' data, so in the non-IID setting a user can at best master the
few labels it owns — which is why the paper reports SL trailing every
federated scheme by tens of accuracy points (its "X" rows in Table I).

The local update is the federated one, Eq. 3, run by every user on its
private parameters: the runner keeps all ``Q`` private flat vectors as
the rows of one matrix and trains them each round with one
:func:`~repro.fl.client.train_clients` call, which stacks equally sized
shards of a Dense/ReLU model into one pass. It is a thin loop over that
call rather than a :class:`~repro.fl.trainer.FederatedTrainer` stage:
SL records its selection and sums its round energy in device order,
where the trainer follows the TDMA grant order.

Reported accuracy is the mean test accuracy across (a sample of) user
models, the natural population-level analogue of the global model's
accuracy. There is no communication, so round delay is the slowest
user's compute delay and round energy is pure compute.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.devices.device import UserDevice
from repro.errors import ConfigurationError, TrainingError
from repro.fl.client import train_clients
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
            rounds / learning rate / local steps / mini-batching /
            eval cadence.
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

    def _mean_accuracy(self, evaluator, params: np.ndarray) -> Optional[float]:
        """Mean test accuracy of the sampled users' rows of ``params``."""
        test = self.server.test_dataset
        if test is None:
            return None
        scores = []
        for idx in self._eval_indices:
            evaluator.set_flat_params(params[idx])
            scores.append(accuracy(evaluator.predict_classes(test.inputs), test.labels))
        return sequential_sum(scores) / len(scores)

    def run(self) -> TrainingHistory:
        """Train every user's model for ``config.rounds`` rounds."""
        config = self.config
        spec = config.local_update_spec()
        history = TrainingHistory(label=self.label)
        devices = self.devices
        # Row q is user q's private model; each round trains ``params``
        # into ``spare`` and the two swap.
        params = np.tile(self.server.broadcast(), (len(devices), 1))
        spare = np.empty_like(params)
        scratch = self.server.model.clone()
        # Scored with the server model's buffers (BatchNorm statistics),
        # as the federated schemes' global models are.
        evaluator = self.server.model.clone()

        # All users compute in parallel at max frequency; no uplink.
        round_delay = max(d.compute_delay() for d in devices)
        round_energy = sequential_sum([d.compute_energy() for d in devices])
        sizes = np.array([d.num_samples for d in devices], dtype=np.float64)
        total_samples = sum(d.num_samples for d in devices)
        selected_ids = tuple(d.device_id for d in devices)
        cumulative_time = 0.0
        cumulative_energy = 0.0
        for round_index in range(1, config.rounds + 1):
            losses = train_clients(
                scratch,
                spec,
                round_index,
                config.learning_rate,
                params,
                devices,
                spare,
            )
            params, spare = spare, params
            cumulative_time += round_delay
            cumulative_energy += round_energy

            should_eval = (
                round_index % config.eval_every == 0
                or round_index == config.rounds
            )
            history.append(
                RoundRecord(
                    round_index=round_index,
                    selected_ids=selected_ids,
                    frequencies={d.device_id: d.cpu.f_max for d in devices},
                    round_delay=round_delay,
                    round_energy=round_energy,
                    compute_energy=round_energy,
                    upload_energy=0.0,
                    slack=0.0,
                    cumulative_time=cumulative_time,
                    cumulative_energy=cumulative_energy,
                    train_loss=sequential_sum(losses * sizes) / total_samples,
                    test_accuracy=(
                        self._mean_accuracy(evaluator, params)
                        if should_eval
                        else None
                    ),
                )
            )
            if config.deadline_s is not None and cumulative_time >= config.deadline_s:
                break
        return history
