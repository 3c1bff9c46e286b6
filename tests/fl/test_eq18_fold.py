"""The trainer's Eq. 18 fold against the per-client oracle.

The trainer settles a round from its simulated timeline before training
and folds every trained block into the FedAvg sum as soon as it is
done. Whatever the drop, deadline, battery and over-selection masks cut
away, the new global vector must be :func:`fedavg_aggregate` over the
survivors' rows, each trained alone by :meth:`LocalTrainer.train` from
the broadcast vector. Every comparison is bitwise.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.fl.client as client_module
from repro.baselines.classic import RandomSelection
from repro.data.dataset import ArrayDataset
from repro.devices.battery import Battery
from repro.devices.population import DevicePopulation
from repro.faults import BatteryDeathFault, DropoutFault, FaultPlan
from repro.fl.aggregation import fedavg_aggregate
from repro.fl.execution import create_backend
from repro.fl.server import FederatedServer
from repro.fl.trainer import FederatedTrainer, TrainerConfig, _Eq18Fold
from repro.nn.architectures import build_mini_squeezenet, build_mlp
from repro.obs import CollectingSink, RunObserver
from tests.conftest import make_device, make_heterogeneous_devices
from tests.full_participation import FullParticipation

DEVICES = 10
IMAGE = (1, 4, 4)


def make_fleet(model_kind, sizes, seed):
    """Ten devices whose shards have the drawn sizes."""
    rng = np.random.default_rng(seed)
    devices = make_heterogeneous_devices(DEVICES, seed=seed)
    shape = IMAGE if model_kind == "squeezenet" else (4,)
    for device, size in zip(devices, sizes):
        device.dataset = ArrayDataset(
            rng.normal(size=(size, *shape)), rng.integers(0, 3, size=size)
        )
    if model_kind == "squeezenet":
        model = build_mini_squeezenet(IMAGE, 3, width_multiplier=0.25, seed=seed)
    else:
        model = build_mlp(4, 3, hidden_sizes=(6,), seed=seed)
    return FederatedServer(model, payload_bits=2e5), devices


@st.composite
def scenarios(draw):
    """A fleet plus the masks of one round: devices dropped before or
    during compute, battery deaths, batteries too small to pay, a round
    deadline, and an over-selection margin."""
    ids = st.sets(st.integers(0, DEVICES - 1), max_size=4)
    faults = [
        DropoutFault(device_id=device_id, phase=phase, rounds=(1,))
        for phase in ("before_compute", "during_compute")
        for device_id in sorted(draw(ids))
    ] + [
        BatteryDeathFault(device_id=device_id, rounds=(1,))
        for device_id in sorted(draw(ids))
    ]
    return dict(
        sizes=draw(st.lists(st.integers(1, 6), min_size=DEVICES, max_size=DEVICES)),
        seed=draw(st.integers(0, 2**16)),
        plan=FaultPlan(seed=1, faults=tuple(faults)),
        flat_batteries=draw(ids),
        deadline=draw(st.none() | st.floats(0.01, 0.3)),
        margin=draw(st.integers(0, 3)),
        block_bytes=draw(st.sampled_from([64, 1024, 4 << 20])),
    )


def run_round(backend_name, model_kind, scenario):
    """One traced round; returns ``(trainer, record, broadcast, sink)``."""
    server, devices = make_fleet(model_kind, scenario["sizes"], scenario["seed"])
    for device in devices:
        if device.device_id in scenario["flat_batteries"]:
            device.battery = Battery(1e-3)
    broadcast = server.broadcast()
    sink = CollectingSink()
    # Small blocks put several stacked blocks, and interleaved shard
    # sizes, into one selection.
    with mock.patch.object(
        client_module, "_BLOCK_BYTES", scenario["block_bytes"]
    ), create_backend(backend_name, workers=2) as backend:
        trainer = FederatedTrainer(
            server=server,
            devices=devices,
            selection=RandomSelection(0.5, seed=scenario["seed"]),
            config=TrainerConfig(
                rounds=1,
                learning_rate=0.3,
                round_deadline_s=scenario["deadline"],
                over_select_margin=scenario["margin"],
                enforce_battery=True,
            ),
            backend=backend,
            observer=RunObserver(sink=sink),
            faults=scenario["plan"],
        )
        (record,) = trainer.run().records
    return trainer, record, broadcast, sink


def oracle(trainer, record, broadcast, sink):
    """The survivors' rows, each trained alone from the broadcast, and
    their weights. The server integrates a prefix of the survivors
    (over-selection keeps the first ``N``); the aggregation event says
    how long."""
    lost = set(record.dropped_ids) | set(record.timeout_ids)
    (event,) = sink.of_kind("aggregation")
    survivors = [
        device_id for device_id in record.selected_ids if device_id not in lost
    ][: event.num_updates]
    spec = trainer.config.local_update_spec()
    scratch = trainer.server.model.clone()
    rows, weights = [], []
    for device_id in survivors:
        device = trainer.devices[device_id]
        scratch.set_flat_params(broadcast)
        spec.make_trainer(0.3, 1, device_id).train(scratch, device.dataset)
        rows.append(scratch.get_flat_params().copy())
        weights.append(float(device.num_samples))
    return rows, weights, event


@pytest.mark.parametrize("backend_name", ["serial", "thread", "process+shm"])
@pytest.mark.parametrize("model_kind", ["mlp", "squeezenet"])
@given(scenario=scenarios())
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_fold_equals_fedavg_over_the_survivors(backend_name, model_kind, scenario):
    trainer, record, broadcast, sink = run_round(backend_name, model_kind, scenario)
    rows, weights, event = oracle(trainer, record, broadcast, sink)
    assert event.total_weight == sum(weights)
    after = trainer.server.broadcast()
    if rows:
        want = fedavg_aggregate(rows, weights)
        assert after.tobytes() == want.tobytes()
    else:
        assert after.tobytes() == broadcast.tobytes()


def test_a_paper_scale_round_never_holds_the_update_matrix():
    # N = 1000 clients of 10 samples, P = 13002 (the mlp_q10k shape):
    # an (N, P) update matrix would be 104 MB.
    count, rng = 1000, np.random.default_rng(0)
    devices = make_heterogeneous_devices(count, seed=0)
    for device in devices:
        device.dataset = ArrayDataset(
            rng.normal(size=(10, 192)), rng.integers(0, 10, size=10)
        )
    model = build_mlp(192, 10, hidden_sizes=(64,), seed=0)
    assert model.parameter_count == 13002
    trainer = FederatedTrainer(
        server=FederatedServer(model, payload_bits=4e5),
        devices=devices,
        selection=FullParticipation(),
        config=TrainerConfig(rounds=1),
    )
    tracemalloc.start()
    try:
        trainer.run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < count * model.parameter_count * 8 / 4


class TestEq18WeightProperties:
    """The fold's weights are the surviving clients' data mass."""

    @given(
        sizes=st.lists(st.integers(1, 60), min_size=1, max_size=12),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_weights_sum_to_the_surviving_data_mass(self, sizes, data):
        count = len(sizes)
        devices = [
            make_device(device_id=i, num_samples=n) for i, n in enumerate(sizes)
        ]
        # Each selected client ends ok, dropped or timed out.
        statuses = data.draw(
            st.lists(
                st.sampled_from(("ok", "dropped", "timeout")),
                min_size=count,
                max_size=count,
            )
        )
        integrating = [d for d, s in zip(devices, statuses) if s == "ok"]
        fold = _Eq18Fold(
            np.zeros(count),
            DevicePopulation.from_devices(devices),
            np.flatnonzero([s == "ok" for s in statuses]),
            None,
        )
        # One-hot rows, handed over in arbitrary blocks: the result is
        # then each client's weight share.
        identity, start = np.eye(count), 0
        while start < count:
            stop = data.draw(st.integers(start + 1, count))
            rows = fold.rows(start, stop)
            rows[:] = identity[start:stop]
            fold.take(start, rows)
            start = stop
        result = fold.result()
        if not integrating:
            assert result is None
            return
        mass = sum(d.num_samples for d in integrating)
        for position, status in enumerate(statuses):
            share = sizes[position] / mass if status == "ok" else 0.0
            assert result[position] == pytest.approx(share, rel=1e-12, abs=0.0)
        assert result.sum() == pytest.approx(1.0, rel=1e-12)
        kept = [i for i, s in enumerate(statuses) if s == "ok"]
        expected = fedavg_aggregate(
            [identity[i] for i in kept], [float(sizes[i]) for i in kept]
        )
        assert result.tobytes() == expected.tobytes()

    def test_an_all_discarded_round_yields_none(self):
        devices = make_heterogeneous_devices(4)
        population = DevicePopulation.from_devices(devices)
        fold = _Eq18Fold(np.zeros(3), population, np.empty(0, np.int64), None)
        rows = fold.rows(0, 4)
        rows[:] = 1.0
        fold.take(0, rows)
        assert fold.result() is None
