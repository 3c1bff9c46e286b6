"""The columnar ledger equals the dict of per-device objects, bit for bit.

``repro.energy.accounting.EnergyLedger`` keeps five parallel arrays in
first-appearance order and folds a round in with fancy-indexed ``+=``;
``tests/oracles/ledger_objects.py`` is the per-object loop it replaced.
Every comparison here is ``==`` or a ``json.dumps`` string — never
``isclose``.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.accounting import DeviceEnergy, EnergyLedger
from repro.errors import SerializationError, TrainingError
from repro.network.tdma import RoundTimeline, simulate_tdma_round
from tests.conftest import make_heterogeneous_devices
from tests.oracles.ledger_objects import ObjectLedger

# Small ids that collide across rounds, negatives, and ids far beyond
# any dense table.
ID_POOL = (
    list(range(-3, 9))
    + [2**40 + offset for offset in range(4)]
    + [-(2**40), 2**62, -(2**62)]
)
joules = st.floats(0.0, 1e4, allow_subnormal=True)


def timeline_of(ids, compute, upload, slack) -> RoundTimeline:
    """A round holding only what the ledger reads."""
    return RoundTimeline(
        device_ids=np.array(ids, dtype=np.int64),
        compute_energy=np.array(compute, dtype=np.float64),
        upload_energy=np.array(upload, dtype=np.float64),
        slack=np.array(slack, dtype=np.float64),
        total_compute_energy=math.fsum(compute),
        total_upload_energy=math.fsum(upload),
    )


@st.composite
def timelines(draw):
    ids = draw(
        st.lists(st.sampled_from(ID_POOL), unique=True, max_size=len(ID_POOL))
    )
    columns = [
        draw(st.lists(joules, min_size=len(ids), max_size=len(ids)))
        for _ in range(3)
    ]
    return timeline_of(ids, *columns)


def assert_same_ledger(ledger: EnergyLedger, oracle: ObjectLedger):
    assert json.dumps(ledger.state_dict()) == json.dumps(oracle.state_dict())
    assert ledger.rounds_recorded == oracle.rounds_recorded
    view = ledger.devices
    assert list(view) == list(oracle.devices)  # first-appearance order
    assert list(view.values()) == list(oracle.devices.values())
    assert repr(view) == repr(oracle.devices)
    assert ledger.device_ids.tolist() == list(oracle.devices)
    for name in ("total_joules", "total_compute_joules", "total_upload_joules"):
        assert repr(getattr(ledger, name)) == repr(getattr(oracle, name)), name
    assert repr(ledger.fairness_gini()) == repr(oracle.fairness_gini())
    for count in (1, 3, 100):
        assert ledger.heaviest_devices(count) == oracle.heaviest_devices(count)


class TestDifferential:
    @given(st.lists(timelines(), max_size=8), st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_object_ledger(self, rounds, data):
        ledger, oracle = EnergyLedger(), ObjectLedger()
        reload_at = data.draw(st.integers(0, len(rounds)))
        for index, timeline in enumerate(rounds):
            if index == reload_at:
                ledger, oracle = reloaded(ledger, oracle)
            ledger.record_round(timeline)
            oracle.record_round(timeline)
            assert_same_ledger(ledger, oracle)
        if reload_at == len(rounds):
            ledger, oracle = reloaded(ledger, oracle)
        assert_same_ledger(ledger, oracle)

    def test_simulated_rounds_with_rotating_participants(self):
        devices = make_heterogeneous_devices(9, seed=5)
        ledger, oracle = EnergyLedger(), ObjectLedger()
        for start in (0, 3, 6, 1, 4, 0):
            timeline = simulate_tdma_round(devices[start:start + 4], 1e6, 2e6)
            ledger.record_round(timeline)
            oracle.record_round(timeline)
        assert_same_ledger(ledger, oracle)


def reloaded(ledger, oracle):
    """Both ledgers through ``state_dict`` -> JSON -> ``load_state_dict``."""
    state = json.loads(json.dumps(ledger.state_dict()))
    fresh_ledger, fresh_oracle = EnergyLedger(), ObjectLedger()
    fresh_ledger.load_state_dict(state)
    fresh_oracle.load_state_dict(json.loads(json.dumps(oracle.state_dict())))
    return fresh_ledger, fresh_oracle


class TestView:
    def test_empty_ledger(self):
        ledger = EnergyLedger()
        assert ledger.devices == {}
        assert ledger.device_ids.dtype == np.int64
        assert ledger.total_joules == 0
        assert ledger.state_dict() == {"rounds_recorded": 0, "devices": {}}
        ledger.record_round(RoundTimeline())
        assert ledger.rounds_recorded == 1 and ledger.devices == {}

    def test_devices_is_a_read_view(self):
        ledger = EnergyLedger()
        ledger.record_round(timeline_of([7, -2], [1.0, 2.0], [0.5, 0.25], [0, 0]))
        assert ledger.devices[7] == DeviceEnergy(7, 1.0, 0.5, 1, 0.0)
        ledger.devices[7].compute_joules = 99.0
        ledger.devices.clear()
        assert ledger.devices[7].compute_joules == 1.0
        assert ledger.total_joules == 3.75

    def test_columns_are_typed_and_parallel(self):
        ledger = EnergyLedger()
        ledger.record_round(timeline_of([5, 2**40], [1.0, 2.0], [3.0, 4.0], [5.0, 6.0]))
        ledger.record_round(timeline_of([2**40, -1], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]))
        assert ledger.device_ids.tolist() == [5, 2**40, -1]
        assert ledger.compute_joules.tolist() == [1.0, 3.0, 1.0]
        assert ledger.upload_joules.tolist() == [3.0, 5.0, 1.0]
        assert ledger.slack_seconds.tolist() == [5.0, 7.0, 1.0]
        assert ledger.rounds.tolist() == [1, 2, 1]
        assert ledger.rounds.dtype == np.int64


GOOD = {"compute_joules": 1.0, "upload_joules": 2.0, "slack_seconds": 0.5, "rounds": 2}


class TestLoadValidation:
    """A snapshot with an impossible total is refused and changes nothing."""

    def loaded(self):
        ledger = EnergyLedger()
        ledger.load_state_dict({"rounds_recorded": 4, "devices": {"3": GOOD}})
        return ledger

    @pytest.mark.parametrize(
        "field", ["compute_joules", "upload_joules", "slack_seconds"]
    )
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), -float("inf"), -1e-9]
    )
    def test_totals_must_be_finite_and_non_negative(self, field, value):
        ledger = self.loaded()
        before = json.dumps(ledger.state_dict())
        state = {"devices": {"3": GOOD, "-17": {**GOOD, field: value}}}
        with pytest.raises(SerializationError, match="energy-ledger.*device -17"):
            ledger.load_state_dict(state)
        assert json.dumps(ledger.state_dict()) == before

    def test_the_issue_example(self):
        with pytest.raises(SerializationError, match="energy-ledger.*device 3"):
            EnergyLedger().load_state_dict(
                {"devices": {"3": {**GOOD, "compute_joules": float("nan"), "rounds": -3}}}
            )

    def test_rounds_must_be_non_negative(self):
        ledger = self.loaded()
        with pytest.raises(SerializationError, match="energy-ledger.*device 8"):
            ledger.load_state_dict({"devices": {"8": {**GOOD, "rounds": -3}}})
        assert ledger.rounds_recorded == 4 and list(ledger.devices) == [3]

    def test_rounds_recorded_must_be_non_negative(self):
        ledger = self.loaded()
        with pytest.raises(SerializationError, match="energy-ledger.*rounds_recorded"):
            ledger.load_state_dict({"rounds_recorded": -1})
        assert ledger.rounds_recorded == 4 and list(ledger.devices) == [3]

    def test_one_device_under_two_spellings(self):
        with pytest.raises(SerializationError, match="energy-ledger"):
            EnergyLedger().load_state_dict({"devices": {"3": GOOD, "03": GOOD}})

    def test_id_beyond_int64(self):
        with pytest.raises(SerializationError, match="energy-ledger"):
            EnergyLedger().load_state_dict({"devices": {str(2**70): GOOD}})

    def test_zero_totals_and_loading_twice(self):
        zero = {"compute_joules": 0.0, "upload_joules": 0, "slack_seconds": 0.0, "rounds": 0}
        ledger = self.loaded()
        ledger.load_state_dict({"rounds_recorded": 0, "devices": {"9": zero}})
        assert list(ledger.devices) == [9]
        ledger.record_round(timeline_of([3, 9], [1.0, 1.0], [1.0, 1.0], [0.0, 0.0]))
        assert ledger.device_ids.tolist() == [9, 3]
        assert ledger.rounds.tolist() == [1, 1]


class TestColumnState:
    """The checkpoint's form of the ledger: columns in row order."""

    def test_round_trip_keeps_rows_and_bits(self):
        ledger = EnergyLedger()
        ledger.record_round(timeline_of([9, 3, 5], [0.1, 0.2, 0.3], [1.0, 2.0, 3.0], [0, 1, 0]))
        ledger.record_round(timeline_of([4, 9], [0.7, 0.9], [0.5, 0.25], [0.5, 0]))
        fresh = EnergyLedger()
        fresh.load_column_state(json.loads(json.dumps(ledger.column_state())))
        assert fresh.rounds_recorded == 2
        for name in ("device_ids", "compute_joules", "upload_joules", "rounds", "slack_seconds"):
            got, want = getattr(fresh, name), getattr(ledger, name)
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), name
        # First-appearance row order, so totals add in the same order.
        assert fresh.total_joules == ledger.total_joules
        assert fresh.state_dict() == ledger.state_dict()

    @pytest.mark.parametrize(
        "damage",
        [
            lambda s: s.pop("rounds"),
            lambda s: s.update(rounds=s["compute_joules"]),  # float counts
            lambda s: s.update(slack_seconds={"dtype": "float64", "shape": [1], "data": "AAAAAAAA8D8="}),
            lambda s: s.update(compute_joules={"dtype": "float64", "shape": [2], "data": "AAAAAAAA8L8AAAAAAAAAAA=="}),
            lambda s: s.update(rounds_recorded=-1),
        ],
        ids=["missing", "wrong_dtype", "wrong_length", "negative", "negative_rounds"],
    )
    def test_malformed_columns_are_refused(self, damage):
        ledger = EnergyLedger()
        ledger.record_round(timeline_of([9, 3], [0.1, 0.2], [1.0, 2.0], [0, 1]))
        state = ledger.column_state()
        damage(state)
        fresh = EnergyLedger()
        with pytest.raises(SerializationError, match="energy-ledger"):
            fresh.load_column_state(state)
        assert fresh.device_ids.shape == (0,)


class TestRepeatedIds:
    """A round that lists a device twice is refused and changes nothing:
    the fancy ``+=`` would add once for it, and the rows would no longer
    be one per device."""

    # Ids in the table's window, and ids that put the ledger on its
    # sorted index.
    @pytest.fixture(params=[0, 2**40], ids=["table", "sorted"])
    def base(self, request):
        return request.param

    def test_repeat_in_a_fresh_ledger(self, base):
        ledger = EnergyLedger()
        with pytest.raises(TrainingError, match=f"device {base + 1} twice"):
            ledger.record_round(timeline_of([base + 1, base + 1], [1.0, 2.0], [0, 0], [0, 0]))
        assert ledger.state_dict() == {"rounds_recorded": 0, "devices": {}}
        assert ledger.device_ids.shape == (0,)

    @pytest.mark.parametrize("refused", [[7, 7], [3, 7, 7]])
    def test_repeat_of_a_known_id(self, base, refused):
        ledger = EnergyLedger()
        ledger.record_round(timeline_of([base + 7], [1.0], [0.5], [0.0]))
        before = json.dumps(ledger.state_dict())
        size = len(refused)
        with pytest.raises(TrainingError, match=f"device {base + 7} twice"):
            ledger.record_round(
                timeline_of([base + i for i in refused], [1.0] * size, [0.5] * size, [0.0] * size)
            )
        assert json.dumps(ledger.state_dict()) == before
        assert ledger.device_ids.tolist() == [base + 7]
        # The refused round left the lookup intact as well.
        ledger.record_round(timeline_of([base + 7, base + 3], [1.0, 1.0], [0.5, 0.5], [0, 0]))
        assert ledger.devices[base + 7] == DeviceEnergy(base + 7, 2.0, 1.0, 2, 0.0)
        assert ledger.devices[base + 3] == DeviceEnergy(base + 3, 1.0, 0.5, 1, 0.0)


class TestLookupModes:
    """Rows are found through an id table while every id is in
    ``[0, 2**20)`` and through a sorted index after the first id outside;
    the ledger equals the object ledger across the switch."""

    @staticmethod
    def dense_round(rng, size=6, top=12):
        ids = rng.permutation(top)[:size]
        return timeline_of(ids, *(rng.random(size) * 10.0 ** rng.integers(-3, 3) for _ in range(3)))

    def test_switch_to_the_sorted_index_midway(self):
        rng = np.random.default_rng(50)
        ledger, oracle = EnergyLedger(), ObjectLedger()
        rounds = [self.dense_round(rng) for _ in range(3)]
        rounds.append(timeline_of([4, 2**62, 30], [1.5, 2.5, 0.25], [0.5, 1.0, 2.0], [0, 1, 0]))
        rounds += [self.dense_round(rng, top=40) for _ in range(3)]
        for index, timeline in enumerate(rounds):
            ledger.record_round(timeline)
            oracle.record_round(timeline)
            assert (ledger._table is None) == (index >= 3)
            assert_same_ledger(ledger, oracle)

    def test_reloaded_in_table_mode_continues_bit_equal(self):
        rng = np.random.default_rng(51)
        kept = EnergyLedger()
        for _ in range(3):
            kept.record_round(self.dense_round(rng))
        reloaded_ledger = EnergyLedger()
        reloaded_ledger.load_column_state(json.loads(json.dumps(kept.column_state())))
        assert reloaded_ledger._table is not None
        for _ in range(4):
            timeline = self.dense_round(rng, top=60)
            kept.record_round(timeline)
            reloaded_ledger.record_round(timeline)
        for name in ("device_ids", "compute_joules", "upload_joules", "rounds", "slack_seconds"):
            got, want = getattr(reloaded_ledger, name), getattr(kept, name)
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), name
        assert json.dumps(reloaded_ledger.state_dict()) == json.dumps(kept.state_dict())
        for name in ("total_joules", "total_compute_joules", "total_upload_joules"):
            assert repr(getattr(reloaded_ledger, name)) == repr(getattr(kept, name))

    def test_loaded_ids_pick_the_mode(self):
        table, index = EnergyLedger(), EnergyLedger()
        table.load_state_dict({"devices": {"3": GOOD, "0": GOOD}})
        index.load_state_dict({"devices": {"3": GOOD, "-1": GOOD}})
        assert table._table.tolist() == [2, 0, 0, 1]
        assert index._table is None and index._sorted_ids.tolist() == [-1, 3]

    def test_table_grows_by_doubling_up_to_the_window(self):
        ledger = EnergyLedger()
        sizes = []
        for device_id in (5, 6, 100, 2**20 - 1):
            ledger.record_round(timeline_of([device_id], [1.0], [1.0], [0.0]))
            sizes.append(ledger._table.shape[0])
        assert sizes == [6, 12, 101, 2**20]
        assert ledger.device_ids.tolist() == [5, 6, 100, 2**20 - 1]

    @pytest.mark.parametrize("far", [2**20, 2**40, -1])
    def test_ids_outside_the_window_allocate_no_table(self, far):
        ledger = EnergyLedger()
        ledger.record_round(timeline_of([0, far], [1.0, 2.0], [0.0, 0.0], [0.0, 0.0]))
        assert ledger._table is None
        ledger.record_round(timeline_of([far, 1], [1.0, 2.0], [0.0, 0.0], [0.0, 0.0]))
        assert ledger._table is None
        assert ledger.device_ids.tolist() == [0, far, 1]
        assert ledger.compute_joules.tolist() == [1.0, 3.0, 2.0]
