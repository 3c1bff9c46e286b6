"""The scheduling loop, pinned by sha256 across commits.

Select -> ``take`` -> Algorithm 3 -> TDMA -> ledger, the loop a
cost-model study runs and ``bench_layers``' ``sched_q100k`` times, at a
size the tier-1 suite can afford. The digests were recorded on the
commit before the per-device run state (``alpha`` counters, the
Algorithm 3 chain, the ledger) went columnar; a change that claims
unchanged bits must leave them alone. A mismatch means selection order,
an assigned frequency, a round total, a ledger float or a checkpoint
key moved — regenerate only if that was intended:
``PYTHONPATH=src:. python tests/integration/test_schedule_loop_digest.py``.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.frequency import determine_frequencies_population
from repro.core.selection import GreedyDecaySelection
from repro.devices.fleet import FleetSpec
from repro.devices.population import DevicePopulation
from repro.energy.accounting import EnergyLedger
from repro.network.tdma import simulate_tdma_round

NUM_USERS = 5000
ROUNDS = 12
FRACTION = 0.1
DECAY = 0.9
PAYLOAD = 5e6
BANDWIDTH = 2e6

CASES = {
    "heterogeneous_gain": (
        FleetSpec(channel_gain_range=(0.5, 2.0)),
        False,
        "97db5997baeadc137f09fef8388bf0080d6082afa4817f9ad52aa8c556b93f78",
    ),
    "dvfs_ladders": (
        FleetSpec(
            channel_gain_range=(0.5, 2.0),
            frequency_levels=(0.25, 0.5, 0.75, 1.0),
        ),
        True,
        "29e134a2f751b198400daae1825610b335b8ca42dbcb2c870158122715d84c88",
    ),
}


def loop_digest(spec: FleetSpec, quantize: bool, seed: int = 7) -> str:
    sizes = np.random.default_rng(seed).integers(20, 200, size=NUM_USERS)
    population = DevicePopulation.from_spec(spec, sizes, seed=seed + 1)
    selection = GreedyDecaySelection(FRACTION, DECAY, PAYLOAD, BANDWIDTH)
    ledger = EnergyLedger()
    digest = hashlib.sha256()
    for round_index in range(1, ROUNDS + 1):
        positions = selection.select_population(round_index, population)
        selected = population.take(positions)
        assigned = determine_frequencies_population(
            selected, PAYLOAD, BANDWIDTH, quantize=quantize
        )
        frequencies = dict(
            zip(selected.device_ids.tolist(), assigned.tolist())
        )
        timeline = simulate_tdma_round(
            (), PAYLOAD, BANDWIDTH, frequencies, population=selected
        )
        ledger.record_round(timeline)
        digest.update(positions.astype(np.int64).tobytes())
        digest.update(assigned.tobytes())
        digest.update(
            repr((timeline.round_delay, timeline.total_energy)).encode("ascii")
        )
    digest.update(json.dumps(ledger.state_dict()).encode("ascii"))
    digest.update(json.dumps(selection.state_dict()).encode("ascii"))
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_schedule_loop_digest(name):
    spec, quantize, expected = CASES[name]
    assert loop_digest(spec, quantize) == expected


if __name__ == "__main__":
    for case, (case_spec, case_quantize, _) in sorted(CASES.items()):
        print(case, loop_digest(case_spec, case_quantize))
