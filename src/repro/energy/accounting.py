"""Per-device energy ledger.

Aggregates the per-round TDMA timelines of a training run into
per-device compute/communication energy totals — useful for fairness
analyses ("which devices pay for training?") and for battery studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.errors import SerializationError, TrainingError
from repro.network.tdma import RoundTimeline
from repro.obs.metrics import MetricsRegistry

__all__ = ["DeviceEnergy", "EnergyLedger"]


@dataclass
class DeviceEnergy:
    """Accumulated energy of one device across a run.

    Attributes:
        device_id: the device.
        compute_joules: total Eq. (5) energy.
        upload_joules: total Eq. (8) energy.
        rounds: number of rounds the device participated in.
        slack_seconds: total idle wait accumulated.
    """

    device_id: int
    compute_joules: float = 0.0
    upload_joules: float = 0.0
    rounds: int = 0
    slack_seconds: float = 0.0

    @property
    def total_joules(self) -> float:
        """Compute plus upload energy."""
        return self.compute_joules + self.upload_joules


@dataclass
class EnergyLedger:
    """Run-level energy accounting across all devices.

    Feed it every round's :class:`~repro.network.tdma.RoundTimeline`
    via :meth:`record_round`.

    Attributes:
        devices: per-device accumulators, keyed by device id.
        rounds_recorded: rounds folded in so far.
        metrics: optional :class:`repro.obs.MetricsRegistry`; when set
            (the trainer wires its observer's registry in), every
            recorded round also bumps the ``energy.compute_joules`` /
            ``energy.upload_joules`` / ``energy.rounds`` counters and
            the ``energy.devices`` gauge. Purely observational.
    """

    devices: Dict[int, DeviceEnergy] = field(default_factory=dict)
    rounds_recorded: int = 0
    metrics: Optional[MetricsRegistry] = field(
        default=None, repr=False, compare=False
    )

    def record_round(self, timeline: RoundTimeline) -> None:
        """Accumulate one round's per-user energies."""
        devices = self.devices
        for device_id, compute_energy, upload_energy, slack in zip(
            timeline.device_ids.tolist(),
            timeline.compute_energy.tolist(),
            timeline.upload_energy.tolist(),
            timeline.slack.tolist(),
        ):
            device = devices.get(device_id)
            if device is None:
                device = devices[device_id] = DeviceEnergy(device_id)
            device.compute_joules += compute_energy
            device.upload_joules += upload_energy
            device.slack_seconds += slack
            device.rounds += 1
        self.rounds_recorded += 1
        if self.metrics is not None:
            self.metrics.inc(
                "energy.compute_joules", timeline.total_compute_energy
            )
            self.metrics.inc(
                "energy.upload_joules", timeline.total_upload_energy
            )
            self.metrics.inc("energy.rounds")
            self.metrics.set_gauge("energy.devices", float(len(self.devices)))

    def record_rounds(self, timelines: Iterable[RoundTimeline]) -> None:
        """Accumulate a sequence of rounds."""
        for timeline in timelines:
            self.record_round(timeline)

    def state_dict(self) -> Dict:
        """JSON-serializable snapshot of the totals (checkpoint/resume).

        The layout is part of the checkpoint format: changing it means
        bumping :data:`repro.fl.checkpoint.CHECKPOINT_VERSION`.
        """
        return {
            "rounds_recorded": self.rounds_recorded,
            "devices": {
                str(device_id): {
                    "compute_joules": entry.compute_joules,
                    "upload_joules": entry.upload_joules,
                    "slack_seconds": entry.slack_seconds,
                    "rounds": entry.rounds,
                }
                for device_id, entry in sorted(self.devices.items())
            },
        }

    def load_state_dict(self, state: Dict) -> None:
        """Replace the totals with a :meth:`state_dict` snapshot.

        Raises:
            SerializationError: when ``state`` is not such a snapshot.
        """
        try:
            rounds_recorded = int(state.get("rounds_recorded", 0))
            devices = {
                int(key): DeviceEnergy(
                    int(key),
                    compute_joules=float(raw["compute_joules"]),
                    upload_joules=float(raw["upload_joules"]),
                    rounds=int(raw["rounds"]),
                    slack_seconds=float(raw["slack_seconds"]),
                )
                for key, raw in state.get("devices", {}).items()
            }
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise SerializationError(
                f"malformed energy-ledger state: {exc!r}"
            ) from exc
        self.rounds_recorded = rounds_recorded
        self.devices.clear()
        self.devices.update(devices)

    @property
    def total_joules(self) -> float:
        """Total energy across every device."""
        return sum(d.total_joules for d in self.devices.values())

    @property
    def total_compute_joules(self) -> float:
        """Total compute energy across every device."""
        return sum(d.compute_joules for d in self.devices.values())

    @property
    def total_upload_joules(self) -> float:
        """Total upload energy across every device."""
        return sum(d.upload_joules for d in self.devices.values())

    def heaviest_devices(self, count: int = 5) -> list:
        """The ``count`` devices with the highest total energy."""
        if count <= 0:
            raise TrainingError(f"count must be positive, got {count}")
        ranked = sorted(
            self.devices.values(), key=lambda d: -d.total_joules
        )
        return ranked[:count]

    def fairness_gini(self) -> float:
        """Gini coefficient of per-device total energy (0 = equal).

        Returns 0 for fewer than two devices.
        """
        values = sorted(d.total_joules for d in self.devices.values())
        n = len(values)
        if n < 2:
            return 0.0
        total = sum(values)
        if total == 0:
            return 0.0
        cumulative = 0.0
        weighted = 0.0
        for rank, value in enumerate(values, start=1):
            weighted += rank * value
            cumulative += value
        return (2.0 * weighted) / (n * total) - (n + 1.0) / n
