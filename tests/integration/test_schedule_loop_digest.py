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

``OBJECT_CASES`` pin the same loop for every shipped strategy
(greedy decay, random, FedCS, FEDL's policy)
on a ``make_fleet`` object fleet. ``greedy_decay`` took over from the
removed battery gate's greedy-decay case; its digest was recorded when
the gate went and is the same on the commit before. The other
digests were recorded on the commit before those strategies ranked
population positions, where each had only ``select(round, devices)``:
the recording run swapped :func:`select_positions` for "call
``select(round_index, devices)`` and map each picked device to its
fleet position", and ran this loop otherwise unchanged.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.baselines.classic import RandomSelection
from repro.baselines.fedcs import FedCsSelection, fedcs_deadline_for_count
from repro.baselines.fedl import FedlClosedFormPolicy
from repro.core.frequency import (
    HelcflDvfsPolicy,
    determine_frequencies_population,
)
from repro.core.selection import GreedyDecaySelection
from repro.data.dataset import ArrayDataset
from repro.devices.fleet import FleetSpec, make_fleet
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


OBJECT_USERS = 120
OBJECT_ROUNDS = 10
SPEC = FleetSpec(channel_gain_range=(0.5, 2.0))


def object_fleet(seed: int):
    """``OBJECT_USERS`` devices (ids = positions)."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(20, 200, size=OBJECT_USERS).tolist()
    partitions = [
        ArrayDataset(np.zeros((size, 1)), np.zeros(size, dtype=np.int64))
        for size in sizes
    ]
    return make_fleet(partitions, SPEC, seed=seed + 1)


def select_positions(selection, round_index, population, devices):
    """The strategy's ranked fleet positions for one round."""
    del devices
    return selection.select_population(round_index, population)


def fedcs_deadline(devices):
    return fedcs_deadline_for_count(devices, PAYLOAD, BANDWIDTH, 12)


# name -> (build(devices) -> selection, frequency policy, digest)
OBJECT_CASES = {
    "random": (
        lambda devices: RandomSelection(FRACTION, seed=5),
        HelcflDvfsPolicy(),
        "0cd6913c7b05889c9f1e2ab5f30fb61fdf4936d9ff7b2653c2eac2e418fbc0e9",
    ),
    "random_fedl": (
        lambda devices: RandomSelection(FRACTION, seed=6),
        FedlClosedFormPolicy(),
        "3b167a1323c1ef1f48430987ee136e82ff10b05701bee41914589698da9a7b9d",
    ),
    "fedcs_all_candidates": (
        lambda devices: FedCsSelection(
            fedcs_deadline(devices), PAYLOAD, BANDWIDTH, seed=8
        ),
        HelcflDvfsPolicy(),
        "7bbd2e4e7e6b08d9414e74f0f428952dd010affc2270b9aaa062bf57f72d5bed",
    ),
    "fedcs_candidates": (
        lambda devices: FedCsSelection(
            2.0 * fedcs_deadline(devices),
            PAYLOAD,
            BANDWIDTH,
            candidate_fraction=0.3,
            seed=8,
        ),
        HelcflDvfsPolicy(),
        "b12b669c1f64c04f9a381baffb0ef1a5ae4d802f2cab2475532b38429de0798e",
    ),
    "fedcs_max_users": (
        lambda devices: FedCsSelection(
            2.0 * fedcs_deadline(devices),
            PAYLOAD,
            BANDWIDTH,
            max_users=5,
            seed=8,
        ),
        HelcflDvfsPolicy(),
        "75639171cee5d2c00e9835dadd37e465133d7fdecb9fd38318dff2d1af50cd45",
    ),
    "greedy_decay": (
        lambda devices: GreedyDecaySelection(
            FRACTION, DECAY, PAYLOAD, BANDWIDTH
        ),
        HelcflDvfsPolicy(),
        "a58b3af4c47cca6e019507b1cbd0d425ab37f6fcedc591393819a7c7c6067bb9",
    ),
}


def object_loop_digest(name: str, seed: int = 7) -> str:
    build, policy, _ = OBJECT_CASES[name]
    devices = object_fleet(seed)
    population = DevicePopulation.from_devices(devices)
    selection = build(devices)
    ledger = EnergyLedger()
    digest = hashlib.sha256()
    for round_index in range(1, OBJECT_ROUNDS + 1):
        positions = np.asarray(
            select_positions(selection, round_index, population, devices),
            dtype=np.int64,
        )
        selected = population.take(positions)
        frequencies = policy.assign(
            [devices[position] for position in positions.tolist()],
            PAYLOAD,
            BANDWIDTH,
            round_index=round_index,
            population=selected,
        )
        timeline = simulate_tdma_round(
            (), PAYLOAD, BANDWIDTH, frequencies, population=selected
        )
        ledger.record_round(timeline)
        digest.update(positions.tobytes())
        digest.update(json.dumps(list(frequencies.items())).encode("ascii"))
        digest.update(
            repr((timeline.round_delay, timeline.total_energy)).encode("ascii")
        )
    digest.update(json.dumps(ledger.state_dict()).encode("ascii"))
    digest.update(json.dumps(selection.state_dict()).encode("ascii"))
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(OBJECT_CASES))
def test_object_fleet_loop_digest(name):
    assert object_loop_digest(name) == OBJECT_CASES[name][-1]


if __name__ == "__main__":
    for case, (case_spec, case_quantize, _) in sorted(CASES.items()):
        print(case, loop_digest(case_spec, case_quantize))
    for case in sorted(OBJECT_CASES):
        print(case, object_loop_digest(case))
