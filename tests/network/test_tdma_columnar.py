"""The columnar TDMA round equals the per-device event loop, bit for bit.

``repro.network.tdma.simulate_tdma_round`` stages, sorts and perturbs
the round as array expressions around the channel scan, which folds
each long run of waiting users with ``repro.sequential.queued_run``;
``tests/oracles/tdma_loop.py`` is the loop it replaced, one
``UserTimeline`` object per device. Every comparison here is ``==`` or
``repr`` — never ``isclose``.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.fleet import FleetSpec
from repro.devices.population import DevicePopulation
from repro.errors import DeviceError, FrequencyRangeError, NetworkError
from repro.network import tdma
from repro.network.tdma import (
    CLIENT_OUTCOMES,
    OUTCOME_OK,
    RoundTimeline,
    UserTimeline,
    simulate_tdma_round,
)
from tests.oracles import tdma_loop

BANDWIDTH = 2e6
PAYLOAD = 1e6

FLOAT_COLUMNS = (
    "frequency",
    "compute_delay",
    "upload_start",
    "upload_end",
    "upload_delay",
    "slack",
    "compute_energy",
    "upload_energy",
)
TOTALS = (
    "round_delay",
    "total_energy",
    "total_compute_energy",
    "total_upload_energy",
    "total_slack",
)


def assert_same_round(timeline: RoundTimeline, loop: tdma_loop.LoopTimeline):
    """Every column, total and derived answer against the loop's entries."""
    entries = loop.users
    assert timeline.device_ids.dtype == np.int64
    assert timeline.outcome_codes.dtype == np.int8
    assert timeline.device_ids.tolist() == [e.device_id for e in entries]
    for name in FLOAT_COLUMNS:
        column = getattr(timeline, name)
        assert column.dtype == np.float64
        expected = [getattr(e, name) for e in entries]
        assert column.tolist() == expected, name
        assert repr(column.tolist()) == repr(expected), name
    assert [
        CLIENT_OUTCOMES[code] for code in timeline.outcome_codes.tolist()
    ] == [e.outcome for e in entries]
    for name in TOTALS:
        assert getattr(timeline, name) == getattr(loop, name), name
        assert repr(getattr(timeline, name)) == repr(getattr(loop, name)), name
    assert timeline.outcomes() == {e.device_id: e.outcome for e in entries}
    completed = timeline.outcome_codes == CLIENT_OUTCOMES.index(OUTCOME_OK)
    assert timeline.device_ids[completed].tolist() == [
        e.device_id for e in entries if e.outcome == OUTCOME_OK
    ]
    # The lazily built view, field for field.
    assert timeline.users == entries
    assert repr(timeline.users) == repr(entries)
    assert timeline.by_device() == {e.device_id: e for e in entries}
    assert timeline == loop.columnar()


def subset_map(draw, ids, values):
    """A dict over a random subset of ``ids`` with drawn values."""
    chosen = draw(st.lists(st.sampled_from(ids), unique=True, max_size=len(ids)))
    return {device_id: draw(values) for device_id in chosen}


@st.composite
def rounds(draw):
    """A small fleet plus every argument ``simulate_tdma_round`` takes."""
    size = draw(st.integers(1, 12))
    homogeneous = draw(st.booleans())
    seed = draw(st.integers(0, 2**16))
    if homogeneous:
        # Equal f_max and dataset sizes: compute delays tie, the id
        # tie-break decides the grant order.
        spec = FleetSpec(f_max_low_hz=1.0e9, f_max_high_hz=1.0e9)
        sizes = [draw(st.integers(20, 60))] * size
    else:
        spec = FleetSpec(channel_gain_range=(0.5, 2.0))
        sizes = draw(
            st.lists(st.integers(20, 200), min_size=size, max_size=size)
        )
    population = DevicePopulation.from_spec(spec, sizes, seed=seed)
    ids = population.device_ids.tolist()
    f_min = dict(zip(ids, population.f_min.tolist()))
    f_max = dict(zip(ids, population.f_max.tolist()))
    share = subset_map(draw, ids, st.floats(0.0, 1.0))
    frequencies = {
        device_id: f_min[device_id]
        + fraction * (f_max[device_id] - f_min[device_id])
        for device_id, fraction in share.items()
    }
    multiplier = st.floats(0.25, 4.0)
    kwargs = dict(
        frequencies=frequencies or None,
        payloads=subset_map(draw, ids, st.floats(0.0, 1e7)) or None,
        compute_scale=subset_map(draw, ids, multiplier),
        drop_during=subset_map(
            draw, ids, st.floats(0.0, 1.0, exclude_min=True)
        ),
        upload_outage=set(subset_map(draw, ids, st.none())),
        upload_scale=subset_map(draw, ids, multiplier),
    )
    deadline = draw(
        st.one_of(
            st.tuples(
                st.sampled_from(("compute_delay", "upload_start", "upload_end")),
                st.integers(0, size - 1),
            ),
            st.floats(0.05, 20.0),
            st.none(),
        )
    )
    # Uploads of a tenth of a second or of seconds: a mostly idle
    # channel, or a queue that a deadline lands in the middle of.
    payload_bits = draw(st.sampled_from((1e6, 2e7)))
    return population, payload_bits, kwargs, deadline


@st.composite
def queued_rounds(draw):
    """50-400 users with uploads of seconds: the channel queue is long,
    and most of it is granted in runs ``queued_run`` folds.

    Part of the users run at ``f_min`` (DVFS floored them), a
    homogeneous fleet ties every compute delay, some links die at the
    grant (they hold the channel for ``0.0`` s in mid-queue), a few
    users straggle or die, and the deadline may sit inside the queue.
    In a bursty round only a few uploads are long: the users arriving
    during one wait, their short uploads drain the queue, and the next
    arrival finds the channel idle, so a folded run stops short.
    """
    size = draw(st.integers(50, 400))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        spec = FleetSpec(f_max_low_hz=1.0e9, f_max_high_hz=1.0e9)
        sizes = [draw(st.integers(20, 60))] * size
    else:
        spec = FleetSpec(channel_gain_range=(0.5, 2.0))
        sizes = rng.integers(20, 200, size=size).tolist()
    population = DevicePopulation.from_spec(spec, sizes, seed=seed)
    ids = population.device_ids

    def some(share):
        return ids[rng.random(size) < share].tolist()

    floored = rng.random(size) < draw(st.floats(0.0, 1.0))
    kwargs = dict(
        frequencies=dict(
            zip(ids[floored].tolist(), population.f_min[floored].tolist())
        ),
        upload_outage=set(some(draw(st.sampled_from((0.0, 0.05, 0.3))))),
        compute_scale={device_id: 3.0 for device_id in some(0.02)},
        drop_during={device_id: 0.5 for device_id in some(0.02)},
    )
    if draw(st.booleans()):
        long_uploads = set(some(0.03))
        kwargs["payloads"] = {
            device_id: 2e7 if device_id in long_uploads else 1e4
            for device_id in ids.tolist()
        }
    deadline = draw(st.one_of(st.none(), st.floats(0.2, 0.8)))
    return population, kwargs, deadline


class TestQueuedRuns:
    PAYLOAD = 2e7

    def simulate_both(self, population, kwargs, deadline):
        if deadline is not None:
            # A grant time part-way down the undeadlined queue.
            free_run = simulate_tdma_round(
                (), self.PAYLOAD, BANDWIDTH, population=population, **kwargs
            )
            starts = free_run.upload_start.tolist()
            deadline = starts[int(deadline * (len(starts) - 1))]
            if deadline <= 0.0:
                deadline = None
        kwargs = dict(kwargs, round_deadline=deadline)
        return (
            simulate_tdma_round(
                (), self.PAYLOAD, BANDWIDTH, population=population, **kwargs
            ),
            tdma_loop.simulate_population(
                population, self.PAYLOAD, BANDWIDTH, **kwargs
            ),
        )

    @given(queued_rounds())
    @settings(max_examples=40, deadline=None)
    def test_equals_event_loop(self, case):
        assert_same_round(*self.simulate_both(*case))

    def test_runs_are_folded(self, monkeypatch):
        """The large rounds do reach the fold, with an outage and the
        deadline inside a folded run."""
        folded = []

        def counting(free, held, start, waits):
            grants, free = queued_run(free, held, start, waits)
            folded.append(grants.shape[0])
            return grants, free

        queued_run = tdma.queued_run
        monkeypatch.setattr(tdma, "queued_run", counting)
        population = DevicePopulation.from_spec(
            FleetSpec(channel_gain_range=(0.5, 2.0)), [100] * 300, seed=4
        )
        kwargs = dict(upload_outage={150, 151}, compute_scale={7: 3.0})
        timeline, loop = self.simulate_both(population, kwargs, 0.5)
        assert_same_round(timeline, loop)
        assert sum(folded) > 250
        assert "timeout" in timeline.outcomes().values()


class TestDifferential:
    @given(rounds())
    @settings(max_examples=120, deadline=None)
    def test_equals_event_loop(self, case):
        population, payload_bits, kwargs, deadline = case
        if isinstance(deadline, tuple):
            # A deadline placed exactly on one of the undeadlined run's
            # own event times: the ``>=``/``>`` boundaries.
            column, position = deadline
            free_run = simulate_tdma_round(
                (), payload_bits, BANDWIDTH, population=population, **kwargs
            )
            deadline = getattr(free_run, column).tolist()[position]
            if deadline <= 0.0:
                deadline = None
        kwargs["round_deadline"] = deadline
        timeline = simulate_tdma_round(
            (), payload_bits, BANDWIDTH, population=population, **kwargs
        )
        assert_same_round(
            timeline,
            tdma_loop.simulate_population(
                population, payload_bits, BANDWIDTH, **kwargs
            ),
        )
        # ``order`` is the permutation from population to entry order.
        assert sorted(timeline.order.tolist()) == list(range(len(population)))
        assert np.array_equal(
            population.device_ids[timeline.order], timeline.device_ids
        )

    def test_every_branch_in_one_round(self):
        """Straggler, death, outage, degradation, a late computer, a cut
        upload and a waiting user, all in one deadlined round."""
        population = DevicePopulation.from_spec(
            FleetSpec(channel_gain_range=(0.5, 2.0)), [60] * 8, seed=3
        )
        kwargs = dict(
            compute_scale={0: 2.0, 7: 40.0},
            drop_during={1: 0.5},
            upload_outage={2},
            upload_scale={3: 3.0},
        )
        payload = 1e7  # uploads of seconds, so the channel queue is long
        free_run = simulate_tdma_round(
            (), payload, BANDWIDTH, population=population, **kwargs
        )
        ends = sorted(free_run.upload_end[free_run.outcome_codes == 0].tolist())
        kwargs["round_deadline"] = (ends[1] + ends[2]) / 2.0
        timeline = simulate_tdma_round(
            (), payload, BANDWIDTH, population=population, **kwargs
        )
        loop = tdma_loop.simulate_population(
            population, payload, BANDWIDTH, **kwargs
        )
        assert_same_round(timeline, loop)
        assert timeline.outcomes() == {
            4: "ok",
            3: "ok",
            6: "timeout",  # cut mid-upload
            5: "timeout",  # granted the channel only at the deadline
            2: "dropped",  # outage, queued past the deadline
            0: "timeout",
            1: "dropped",  # died mid-compute
            7: "timeout",  # still computing at the deadline
        }
        assert timeline.round_delay == kwargs["round_deadline"]
        # Lost-before-queue users trail the queued ones.
        assert timeline.device_ids.tolist() == [4, 3, 6, 5, 2, 0, 1, 7]
        by_id = timeline.by_device()
        assert 0.0 < by_id[6].upload_delay < free_run.by_device()[6].upload_delay
        assert by_id[5].upload_delay == by_id[2].upload_delay == 0.0


class TestUsersView:
    def test_empty_round(self):
        assert RoundTimeline() == RoundTimeline()
        assert len(RoundTimeline().users) == 0
        assert RoundTimeline().outcomes() == {}
        assert RoundTimeline().outcome_codes.size == 0

    def test_view_is_cached_entry_objects(self):
        population = DevicePopulation.from_spec(None, [40, 80, 20], seed=1)
        timeline = simulate_tdma_round((), PAYLOAD, BANDWIDTH, population=population)
        assert timeline.users is timeline.users
        assert all(isinstance(entry, UserTimeline) for entry in timeline.users)
        assert [e.device_id for e in timeline.users] == timeline.device_ids.tolist()
        assert [e.compute_end for e in timeline.users] == (
            timeline.compute_delay.tolist()
        )

    def test_equality_reads_columns_and_totals(self):
        population = DevicePopulation.from_spec(None, [40, 80, 20], seed=1)
        first = simulate_tdma_round((), PAYLOAD, BANDWIDTH, population=population)
        again = simulate_tdma_round((), PAYLOAD, BANDWIDTH, population=population)
        assert first == again
        assert not first != again
        outage = simulate_tdma_round(
            (),
            PAYLOAD,
            BANDWIDTH,
            population=population,
            upload_outage={int(first.device_ids[-1])},
        )
        assert first != outage
        assert first != RoundTimeline()
        assert first != "timeline"
        codes = first.outcome_codes.copy()
        codes[0] = 1
        assert first != dataclasses.replace(first, outcome_codes=codes)
        assert first != dataclasses.replace(first, total_slack=-1.0)


class TestPerturbationValidation:
    """Non-finite or out-of-range perturbations are refused, not
    accumulated into the ledger."""

    def simulate(self, **kwargs):
        population = DevicePopulation.from_spec(None, [40, 80, 20], seed=1)
        return simulate_tdma_round(
            (), PAYLOAD, BANDWIDTH, population=population, **kwargs
        )

    @pytest.mark.parametrize("name", ["compute_scale", "upload_scale"])
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), 0.0, -2.0]
    )
    def test_multiplier_must_be_finite_and_positive(self, name, value):
        with pytest.raises(NetworkError, match=f"{name}.*device 1"):
            self.simulate(**{name: {2: 1.5, 1: value}})

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), 0.0, -1.0, 1.5]
    )
    def test_progress_must_lie_in_unit_interval(self, value):
        with pytest.raises(NetworkError, match="drop_during.*device 2"):
            self.simulate(drop_during={2: value})

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), 0.0, -3.0]
    )
    def test_deadline_must_be_finite_and_positive(self, value):
        with pytest.raises(NetworkError, match="round_deadline"):
            self.simulate(round_deadline=value)

    def test_unselected_ids_are_ignored(self):
        assert self.simulate(
            compute_scale={99: float("nan")}, drop_during={99: -1.0}
        ) == self.simulate()

    def test_sub_unit_multipliers_stay_legal(self):
        timeline = self.simulate(upload_scale={0: 0.5})
        assert timeline.total_upload_energy < self.simulate().total_upload_energy


@st.composite
def frequency_maps(draw):
    """A round's population (a ``take`` of a fleet, so its ids are in
    no particular order) and a frequency map in one of the shapes
    callers pass: Algorithm 3's column keyed in population order, the
    trainer's chain order, a subset, ids outside the round, or a key
    that is not an int."""
    fleet_size = draw(st.integers(1, 40))
    spec = FleetSpec(channel_gain_range=(0.5, 2.0))
    sizes = draw(
        st.lists(st.integers(20, 200), min_size=fleet_size, max_size=fleet_size)
    )
    fleet = DevicePopulation.from_spec(spec, sizes, seed=draw(st.integers(0, 2**16)))
    positions = draw(
        st.lists(
            st.integers(0, fleet_size - 1), min_size=1, max_size=fleet_size, unique=True
        )
    )
    population = fleet.take(positions)
    ids = population.device_ids.tolist()
    shares = draw(
        st.lists(st.floats(0.0, 1.0), min_size=len(ids), max_size=len(ids))
    )
    column = population.f_min + np.array(shares) * (population.f_max - population.f_min)
    in_order = dict(zip(ids, column.tolist()))
    chain = draw(st.permutations(ids))
    shape = draw(
        st.sampled_from(("in_order", "chain", "subset", "outside", "non_int_key"))
    )
    if shape == "in_order":
        frequencies = in_order
    elif shape == "chain":
        frequencies = {device_id: in_order[device_id] for device_id in chain}
    elif shape == "subset":
        kept = chain[: draw(st.integers(1, len(chain)))]
        frequencies = {device_id: in_order[device_id] for device_id in kept}
    elif shape == "outside":
        # Ids past the fleet, with values no device could run at.
        frequencies = dict(in_order)
        for extra in range(draw(st.integers(1, 3))):
            frequencies[fleet_size + extra] = draw(
                st.sampled_from((float("nan"), -1.0, 1e30))
            )
        if draw(st.booleans()):
            frequencies = {key: frequencies[key] for key in reversed(frequencies)}
    else:
        # One id's key replaced: "7" and 7.5 match no device; 7.0
        # equals id 7, so dict lookup finds it.
        victim = draw(st.sampled_from(ids))
        key = draw(st.sampled_from((str(victim), victim + 0.5, float(victim))))
        frequencies = {
            (key if device_id == victim else device_id): value
            for device_id, value in in_order.items()
        }
    return population, frequencies


class TestFrequencyMaps:
    """``frequencies`` keyed in population order is read as a column;
    every other map is aligned id by id, to the same bits."""

    @given(frequency_maps(), st.sampled_from((1e6, 2e7)))
    @settings(max_examples=150, deadline=None)
    def test_equals_event_loop(self, case, payload_bits):
        population, frequencies = case
        assert_same_round(
            simulate_tdma_round(
                (), payload_bits, BANDWIDTH, frequencies, population=population
            ),
            tdma_loop.simulate_population(
                population, payload_bits, BANDWIDTH, frequencies
            ),
        )

    def test_only_a_population_order_map_is_read_as_a_column(self, monkeypatch):
        verdicts = []

        def spying(keys, device_ids):
            verdicts.append(in_population_order(keys, device_ids))
            return verdicts[-1]

        in_population_order = tdma._in_population_order
        monkeypatch.setattr(tdma, "_in_population_order", spying)
        population = DevicePopulation.from_spec(None, [40, 80, 20, 60], seed=1).take(
            [2, 0, 3]
        )
        ids = population.device_ids.tolist()
        column = dict(zip(ids, population.f_min.tolist()))
        for frequencies in (
            column,
            dict(reversed(column.items())),
            {**column, 9: 1e9},
            {float(key): value for key, value in column.items()},
        ):
            simulate_tdma_round(
                (), PAYLOAD, BANDWIDTH, frequencies, population=population
            )
        assert verdicts == [True, False, False, False]

    def test_integer_values_read_as_their_floats(self):
        population = DevicePopulation.from_spec(None, [40, 80, 20], seed=1)
        ids = population.device_ids.tolist()
        hertz = [int(f) for f in population.f_max.tolist()]
        as_ints = simulate_tdma_round(
            (), PAYLOAD, BANDWIDTH, dict(zip(ids, hertz)), population=population
        )
        as_floats = simulate_tdma_round(
            (), PAYLOAD, BANDWIDTH, dict(zip(ids, map(float, hertz))), population=population
        )
        assert as_ints == as_floats

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("position", range(4))
    def test_non_finite_payload_is_refused(self, position, bad):
        population = DevicePopulation.from_spec(None, [40, 80, 20, 60], seed=1)
        payloads = {int(population.device_ids[position]): bad}
        with pytest.raises(DeviceError, match="finite"):
            simulate_tdma_round(
                (), PAYLOAD, BANDWIDTH, payloads=payloads, population=population
            )

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_payload_bits_is_refused(self, bad):
        population = DevicePopulation.from_spec(None, [40, 80, 20, 60], seed=1)
        with pytest.raises(DeviceError, match="finite"):
            simulate_tdma_round((), bad, BANDWIDTH, population=population)


class TestFrequencyValues:
    """A frequency is a number: ``np.fromiter`` would parse ``"1e9"``
    and read ``True`` as 1 Hz, so str and bool values are refused on
    both the column read and the id-by-id read."""

    @staticmethod
    def simulate(value, in_order):
        population = DevicePopulation.from_spec(None, [40, 80, 20], seed=1)
        ids = population.device_ids.tolist()
        frequencies = dict(zip(ids, population.f_max.tolist())) if in_order else {}
        frequencies[ids[1]] = value
        return simulate_tdma_round(
            (), PAYLOAD, BANDWIDTH, frequencies, population=population
        )

    @pytest.mark.parametrize("in_order", [True, False])
    @pytest.mark.parametrize(
        "value", ["1e9", np.str_("1e9"), b"1e9", True, False, np.True_]
    )
    def test_str_and_bool_refused(self, value, in_order):
        with pytest.raises(FrequencyRangeError, match="must be a number.*device 1"):
            self.simulate(value, in_order)

    @pytest.mark.parametrize("in_order", [True, False])
    @pytest.mark.parametrize("value", [None, float("nan")])
    def test_none_and_nan_stay_out_of_range(self, value, in_order):
        with pytest.raises(FrequencyRangeError, match="outside"):
            self.simulate(value, in_order)

    @pytest.mark.parametrize("in_order", [True, False])
    def test_numpy_scalars_accepted(self, in_order):
        population = DevicePopulation.from_spec(None, [40, 80, 20], seed=1)
        value = float(population.f_max[1])
        expected = self.simulate(value, in_order)
        assert self.simulate(np.float64(value), in_order) == expected
