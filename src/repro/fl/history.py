"""Training history: the measurement record behind every experiment.

Each FL round appends a :class:`RoundRecord` carrying the selection,
frequencies, simulated delay/energy (from the TDMA timeline), and the
evaluation results. :class:`TrainingHistory` then answers the questions
the paper's evaluation asks:

* Fig. 2 — the accuracy-versus-round curve (:meth:`accuracy_series`);
* Table I — simulated training delay to reach a desired accuracy
  (:meth:`time_to_accuracy`);
* Fig. 3 — training energy spent to reach a desired accuracy
  (:meth:`energy_to_accuracy`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import wire
from repro.errors import TrainingError

__all__ = ["RoundRecord", "TrainingHistory"]


@wire.record
@dataclass(frozen=True)
class RoundRecord:
    """Everything measured in one FL round.

    Attributes:
        round_index: 1-based round number ``j``.
        selected_ids: device ids of ``Gamma_j`` (selection order).
        frequencies: assigned CPU frequency per selected device id.
        round_delay: Eq. (10) for this round, seconds.
        round_energy: Eq. (11) for this round, joules.
        compute_energy: compute share of ``round_energy``.
        upload_energy: upload share of ``round_energy``.
        slack: total idle wait across selected users, seconds.
        cumulative_time: simulated clock after this round, seconds.
        cumulative_energy: total energy after this round, joules.
        train_loss: dataset-size-weighted mean of client losses.
        test_accuracy: global-model test accuracy (None on rounds
            without evaluation).
        test_loss: global-model test loss (None without evaluation).
        dropped_ids: devices whose update was lost this round (battery
            depletion, injected dropout/outage/battery-death faults),
            empty otherwise.
        timeout_ids: devices cut off by the per-round deadline this
            round (their partial work was spent but never aggregated),
            empty otherwise. Disjoint from ``dropped_ids``.
    """

    round_index: int
    selected_ids: Tuple[int, ...]
    frequencies: Dict[int, float]
    round_delay: float
    round_energy: float
    compute_energy: float
    upload_energy: float
    slack: float
    cumulative_time: float
    cumulative_energy: float
    train_loss: float
    test_accuracy: Optional[float] = None
    test_loss: Optional[float] = None
    dropped_ids: Tuple[int, ...] = ()
    timeout_ids: Tuple[int, ...] = ()


@dataclass
class TrainingHistory(wire.Document):
    """The ordered round records of one training run.

    Attributes:
        label: free-form run label (e.g. the strategy name).
        stop_reason: why the run ended — a
            :class:`repro.obs.StopReason` value
            (``"rounds_exhausted"``, ``"deadline"``,
            ``"target_accuracy"``, or ``"plateau"``); ``None`` for
            histories produced outside the trainer loop (e.g. the SL
            baseline) or loaded from pre-stop-reason artifacts.
        records: per-round measurements, in round order.
    """

    noun = "history"

    label: str = ""
    stop_reason: Optional[str] = None
    records: List[RoundRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        indices = [record.round_index for record in self.records]
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise TrainingError(f"round indices must increase, got {indices}")

    def append(self, record: RoundRecord) -> None:
        """Append the next round's record (indices must increase)."""
        if self.records and record.round_index <= self.records[-1].round_index:
            raise TrainingError(
                f"round {record.round_index} does not follow "
                f"{self.records[-1].round_index}"
            )
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def truncated(self, max_round: int) -> TrainingHistory:
        """A copy keeping only rounds up to ``max_round`` (inclusive).

        The truncated copy has no ``stop_reason`` — it represents a
        run cut mid-flight (the checkpoint/resume machinery compares
        resumed prefixes against it), not a finished one.
        """
        if max_round < 0:
            raise TrainingError(
                f"max_round must be non-negative, got {max_round}"
            )
        history = TrainingHistory(label=self.label)
        history.records = [
            record
            for record in self.records
            if record.round_index <= max_round
        ]
        return history

    # ------------------------------------------------------------------
    # Totals
    # ------------------------------------------------------------------
    @property
    def total_time(self) -> float:
        """Simulated seconds of the whole run."""
        return self.records[-1].cumulative_time if self.records else 0.0

    @property
    def total_energy(self) -> float:
        """Total joules of the whole run."""
        return self.records[-1].cumulative_energy if self.records else 0.0

    # ------------------------------------------------------------------
    # Accuracy queries (Fig. 2 / Table I / Fig. 3)
    # ------------------------------------------------------------------
    def accuracy_series(self) -> List[Tuple[int, float, float]]:
        """Evaluated rounds as ``(round, cumulative_time, accuracy)``."""
        return [
            (r.round_index, r.cumulative_time, r.test_accuracy)
            for r in self.records
            if r.test_accuracy is not None
        ]

    @property
    def best_accuracy(self) -> float:
        """Highest test accuracy observed (0.0 if never evaluated)."""
        values = [
            r.test_accuracy for r in self.records if r.test_accuracy is not None
        ]
        return max(values) if values else 0.0

    @property
    def final_accuracy(self) -> float:
        """Last evaluated test accuracy (0.0 if never evaluated)."""
        for record in reversed(self.records):
            if record.test_accuracy is not None:
                return record.test_accuracy
        return 0.0

    def _first_record_reaching(self, target: float) -> Optional[RoundRecord]:
        for record in self.records:
            if record.test_accuracy is not None and record.test_accuracy >= target:
                return record
        return None

    def time_to_accuracy(self, target: float) -> Optional[float]:
        """Simulated seconds until accuracy first reached ``target``.

        Returns ``None`` when the run never reached the target — the
        paper's "✗" entries in Table I.
        """
        record = self._first_record_reaching(target)
        return record.cumulative_time if record else None

    def energy_to_accuracy(self, target: float) -> Optional[float]:
        """Joules spent until accuracy first reached ``target`` (or None)."""
        record = self._first_record_reaching(target)
        return record.cumulative_energy if record else None

    def rounds_to_accuracy(self, target: float) -> Optional[int]:
        """Rounds until accuracy first reached ``target`` (or None)."""
        record = self._first_record_reaching(target)
        return record.round_index if record else None

    # ------------------------------------------------------------------
    # Participation statistics
    # ------------------------------------------------------------------
    def participation_counts(self) -> Dict[int, int]:
        """How many rounds each device id participated in."""
        counts: Dict[int, int] = {}
        for record in self.records:
            for device_id in record.selected_ids:
                counts[device_id] = counts.get(device_id, 0) + 1
        return counts

    def coverage(self, num_users: int) -> float:
        """Fraction of the population selected at least once."""
        if num_users <= 0:
            raise TrainingError(f"num_users must be positive, got {num_users}")
        return len(self.participation_counts()) / num_users


wire.record(TrainingHistory, mutable=True)
