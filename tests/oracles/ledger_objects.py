"""The energy ledger as the dict of per-device objects ``src/`` shipped
until the ledger went columnar.

One ``DeviceEnergy`` object per device in a ``{id: object}`` dict, one
four-way ``zip`` per round, totals as generator sums over the dict's
values. Kept verbatim (minus the metrics hook, which never touched the
totals): ``repro.energy.accounting.EnergyLedger`` must equal it to the
last bit — per-device fields, first-appearance iteration order, the
three totals, the Gini, the heaviest-device ranking and the checkpoint
JSON — and ``tests/energy/test_ledger_columnar.py`` asserts exactly
that.
"""

from dataclasses import dataclass, field
from typing import Dict, Iterable

from repro.energy.accounting import DeviceEnergy
from repro.errors import SerializationError, TrainingError
from repro.network.tdma import RoundTimeline
from tests.oracles import left_fold


@dataclass
class ObjectLedger:
    """Run-level energy accounting, one accumulator object per device."""

    devices: Dict[int, DeviceEnergy] = field(default_factory=dict)
    rounds_recorded: int = 0

    def record_round(self, timeline: RoundTimeline) -> None:
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

    def record_rounds(self, timelines: Iterable[RoundTimeline]) -> None:
        for timeline in timelines:
            self.record_round(timeline)

    def state_dict(self) -> Dict:
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
        return left_fold(d.total_joules for d in self.devices.values())

    @property
    def total_compute_joules(self) -> float:
        return left_fold(d.compute_joules for d in self.devices.values())

    @property
    def total_upload_joules(self) -> float:
        return left_fold(d.upload_joules for d in self.devices.values())

    def heaviest_devices(self, count: int = 5) -> list:
        if count <= 0:
            raise TrainingError(f"count must be positive, got {count}")
        ranked = sorted(
            self.devices.values(), key=lambda d: -d.total_joules
        )
        return ranked[:count]

    def fairness_gini(self) -> float:
        values = sorted(d.total_joules for d in self.devices.values())
        n = len(values)
        if n < 2:
            return 0.0
        total = left_fold(values)
        if total == 0:
            return 0.0
        cumulative = 0.0
        weighted = 0.0
        for rank, value in enumerate(values, start=1):
            weighted += rank * value
            cumulative += value
        return (2.0 * weighted) / (n * total) - (n + 1.0) / n
