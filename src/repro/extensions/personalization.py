"""Personalization by local fine-tuning (extension).

A global FL model optimizes the population-average objective (Eq. 2),
but each user ultimately cares about accuracy on *their* distribution.
The standard first-order personalization baseline fine-tunes the
trained global model on each user's local data for a few steps and
evaluates per-user.

On the paper's non-IID shards a user holding 3-4 labels converts
global knowledge into a better local predictor in a handful of steps —
quantifying a dimension the global-accuracy metric of Fig. 2 leaves
out. (The gain size depends on how much headroom the global model
leaves on each user's labels; at small scales it is modest but
consistently positive in the mean.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.data.dataset import ArrayDataset, train_test_split
from repro.devices.device import UserDevice
from repro.errors import ConfigurationError, TrainingError
from repro.fl.client import LocalUpdateSpec, train_clients
from repro.nn.metrics import accuracy
from repro.nn.model import Sequential
from repro.rng import SeedLike, derive_seed

__all__ = ["PersonalizationReport", "evaluate_personalization"]


class _Split(NamedTuple):
    """A user's adaptation split, in the shape ``train_clients`` takes."""

    device_id: int
    dataset: ArrayDataset


@dataclass(frozen=True)
class PersonalizationReport:
    """Per-user accuracies before and after local fine-tuning.

    Attributes:
        global_accuracies: per-user accuracy of the global model on
            each user's held-out local split.
        personalized_accuracies: same, after fine-tuning.
        device_ids: the evaluated users, aligned with both lists.
    """

    global_accuracies: Tuple[float, ...]
    personalized_accuracies: Tuple[float, ...]
    device_ids: Tuple[int, ...]

    @property
    def mean_global(self) -> float:
        """Population-mean accuracy of the unadapted global model."""
        return float(np.mean(self.global_accuracies))

    @property
    def mean_personalized(self) -> float:
        """Population-mean accuracy after fine-tuning."""
        return float(np.mean(self.personalized_accuracies))

    @property
    def mean_gain(self) -> float:
        """Mean per-user accuracy gain from personalization."""
        return self.mean_personalized - self.mean_global

    def win_fraction(self) -> float:
        """Fraction of users personalization helped (strictly)."""
        gains = np.asarray(self.personalized_accuracies) - np.asarray(
            self.global_accuracies
        )
        return float(np.mean(gains > 0))


def evaluate_personalization(
    global_model: Sequential,
    devices: Sequence[UserDevice],
    fine_tune_steps: int = 5,
    learning_rate: float = 0.1,
    holdout_fraction: float = 0.25,
    max_users: Optional[int] = None,
    seed: SeedLike = 0,
) -> PersonalizationReport:
    """Fine-tune the global model per user and measure local accuracy.

    Each user's local data is split into an adaptation set and a
    held-out set; the global model is evaluated on the held-out split
    before and after ``fine_tune_steps`` full-batch GD steps on the
    adaptation split.

    Args:
        global_model: the trained global model (never mutated).
        devices: users to evaluate.
        fine_tune_steps: local GD steps per user.
        learning_rate: fine-tuning learning rate.
        holdout_fraction: fraction of each user's data held out for
            evaluation.
        max_users: evaluate only this many users (in id order); None
            evaluates everyone.
        seed: split seed.

    Returns:
        The :class:`PersonalizationReport`.

    Raises:
        TrainingError: if no user has enough data to split.
    """
    if fine_tune_steps <= 0:
        raise ConfigurationError(
            f"fine_tune_steps must be positive, got {fine_tune_steps}"
        )
    if not 0.0 < holdout_fraction < 1.0:
        raise ConfigurationError(
            f"holdout_fraction must be in (0, 1), got {holdout_fraction}"
        )
    if max_users is not None and max_users <= 0:
        raise ConfigurationError(
            f"max_users must be positive when set, got {max_users}"
        )
    chosen = sorted(devices, key=lambda d: d.device_id)
    if max_users is not None:
        chosen = chosen[:max_users]

    users: List[_Split] = []
    held_out: List[ArrayDataset] = []
    for device in chosen:
        if device.num_samples < 4:
            continue
        adapt, held = train_test_split(
            device.dataset,
            test_fraction=holdout_fraction,
            seed=derive_seed(seed, "personalize", str(device.device_id)),
        )
        users.append(_Split(device.device_id, adapt))
        held_out.append(held)
    if not users:
        raise TrainingError(
            "no user had enough local data to split for personalization"
        )

    tuned = np.empty((len(users), global_model.parameter_count))
    train_clients(
        global_model.clone(),
        LocalUpdateSpec(local_steps=fine_tune_steps),
        1,
        learning_rate,
        global_model.get_flat_params(),
        users,
        tuned,
    )
    # Scored with the global model's buffers (BatchNorm statistics),
    # whatever the fine-tuning passes did to the training copy's.
    evaluator = global_model.clone()
    personal_scores = []
    for row, held in zip(tuned, held_out):
        evaluator.set_flat_params(row)
        personal_scores.append(
            accuracy(evaluator.predict_classes(held.inputs), held.labels)
        )
    return PersonalizationReport(
        global_accuracies=tuple(
            accuracy(global_model.predict_classes(held.inputs), held.labels)
            for held in held_out
        ),
        personalized_accuracies=tuple(personal_scores),
        device_ids=tuple(user.device_id for user in users),
    )
