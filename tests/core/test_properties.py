"""Property-based tests for the core HELCFL algorithms."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import frequency as frequency_module
from repro.core.frequency import determine_frequencies
from repro.core.selection import GreedyDecaySelection
from repro.core.utility import decay_powers
from repro.data.dataset import ArrayDataset
from repro.devices.fleet import FleetSpec, make_fleet
from repro.devices.population import DevicePopulation
from repro.fl.strategy import selection_count
from repro.network.tdma import simulate_tdma_round
from repro.sequential import MIN_RUN
from tests.conftest import make_heterogeneous_devices, selected_ids

PAYLOAD = 1e6
BANDWIDTH = 2e6

MAX_DEVICES = 96
"""Fleets of up to this many devices queue well past ``MIN_RUN`` users
in a row, so Algorithm 3's generated inputs reach ``queued_run``."""


class TestSelectionProperties:
    @given(
        count=st.integers(2, 15),
        fraction=st.floats(min_value=0.05, max_value=1.0),
        decay=st.floats(min_value=0.05, max_value=0.95),
        rounds=st.integers(1, 15),
        seed=st.integers(0, 200),
    )
    @settings(max_examples=40, deadline=None)
    def test_selection_size_invariant(self, count, fraction, decay, rounds, seed):
        devices = make_heterogeneous_devices(count, seed=seed)
        strategy = GreedyDecaySelection(fraction, decay, PAYLOAD, BANDWIDTH)
        expected = selection_count(count, fraction)
        for round_index in range(1, rounds + 1):
            ids = selected_ids(strategy, round_index, devices)
            assert len(ids) == expected
            assert len(ids) == len(set(ids))

    @given(
        count=st.integers(2, 12),
        decay=st.floats(min_value=0.05, max_value=0.95),
        rounds=st.integers(1, 20),
        seed=st.integers(0, 200),
    )
    @settings(max_examples=40, deadline=None)
    def test_counters_conserve_selections(self, count, decay, rounds, seed):
        """Sum of appearance counters == N * rounds, always."""
        devices = make_heterogeneous_devices(count, seed=seed)
        strategy = GreedyDecaySelection(0.5, decay, PAYLOAD, BANDWIDTH)
        n = selection_count(count, 0.5)
        for round_index in range(1, rounds + 1):
            selected_ids(strategy, round_index, devices)
        assert sum(strategy.appearance_counts.values()) == n * rounds

    @given(count=st.integers(3, 12), seed=st.integers(0, 200))
    @settings(max_examples=30, deadline=None)
    def test_first_round_is_pure_greedy(self, count, seed):
        """With all counters zero, Eq. 20 reduces to 1/T — so round 1
        must select exactly the fastest N users."""
        devices = make_heterogeneous_devices(count, seed=seed)
        strategy = GreedyDecaySelection(0.34, 0.5, PAYLOAD, BANDWIDTH)
        selected = selected_ids(strategy, 1, devices)
        n = selection_count(count, 0.34)
        fastest = sorted(
            devices,
            key=lambda d: (d.total_delay(PAYLOAD, BANDWIDTH), d.device_id),
        )[:n]
        assert set(selected) == {d.device_id for d in fastest}


def coverage_bounds(population, decay, count):
    """Eq. 20's first-selection bound per device, from zero counters.

    While device ``q`` waits (``alpha_q = 0``, utility ``1 / T_q``),
    every selection goes to a device whose utility is at least that,
    and device ``p`` can be such a device at most ``k_p`` times: the
    number of counters ``k >= 0`` with ``eta^k / T_p >= 1 / T_q``. A
    round spends ``N`` selections, so ``q`` waits at most
    ``floor(sum_{p != q} k_p / N)`` rounds. The utilities are the
    scalar ops Eq. 20 evaluates: ``decay_powers`` over the
    population's ``total_delay``.
    """
    delays = population.total_delay(PAYLOAD, BANDWIDTH)
    powers = decay_powers(decay, np.arange(4096, dtype=np.int64))
    # (p, k) utilities. The table is long enough when its last column
    # ranks below every device: no larger counter could rank above one.
    utilities = powers[np.newaxis, :] / delays[:, np.newaxis]
    bounds = []
    for q in range(len(population)):
        above = utilities >= 1.0 / delays[q]
        assert not above[:, -1].any()
        above[q] = False
        bounds.append(int(above.sum()) // count + 1)
    return bounds


class TestCoverageProperty:
    @given(
        sizes=st.lists(st.integers(20, 200), min_size=2, max_size=14),
        seed=st.integers(0, 300),
        fraction=st.floats(min_value=0.05, max_value=1.0),
        decay=st.floats(min_value=0.05, max_value=0.95),
        gain_low=st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_device_selected_by_its_eq20_bound(
        self, sizes, seed, fraction, decay, gain_low
    ):
        """The paper's coverage claim with its bound: greedy decay from
        zero counters selects each device ``q`` for the first time no
        later than round ``floor(sum_{p != q} k_p / N) + 1``."""
        partitions = [
            ArrayDataset(np.zeros((size, 1)), np.zeros(size, dtype=int))
            for size in sizes
        ]
        devices = make_fleet(
            partitions, FleetSpec(channel_gain_range=(gain_low, 1.0)), seed=seed
        )
        population = DevicePopulation.from_devices(devices)
        count = selection_count(len(population), fraction)
        bounds = coverage_bounds(population, decay, count)
        strategy = GreedyDecaySelection(fraction, decay, PAYLOAD, BANDWIDTH)
        first = {}
        for round_index in range(1, max(bounds) + 1):
            for position in strategy.select_population(
                round_index, population
            ).tolist():
                first.setdefault(position, round_index)
        assert all(
            first.get(q, np.inf) <= bound for q, bound in enumerate(bounds)
        ), (first, bounds)


class TestFrequencyProperties:
    @given(
        count=st.integers(1, MAX_DEVICES),
        seed=st.integers(0, 300),
        payload=st.floats(min_value=1e5, max_value=2e7),
    )
    @settings(max_examples=40, deadline=None)
    def test_energy_and_delay_guarantees_any_payload(self, count, seed, payload):
        devices = make_heterogeneous_devices(count, seed=seed)
        freqs = determine_frequencies(devices, payload, BANDWIDTH)
        base = simulate_tdma_round(devices, payload, BANDWIDTH)
        opt = simulate_tdma_round(devices, payload, BANDWIDTH, freqs)
        assert opt.total_energy <= base.total_energy + 1e-9
        assert opt.round_delay <= base.round_delay + 1e-9

    @given(count=st.integers(2, MAX_DEVICES), seed=st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_assigned_frequencies_sorted_with_compute_order(self, count, seed):
        """Every determined frequency is at most the device's f_max and
        at least its f_min (the clamp domain)."""
        devices = make_heterogeneous_devices(count, seed=seed)
        freqs = determine_frequencies(devices, PAYLOAD, BANDWIDTH)
        for device in devices:
            freq = freqs[device.device_id]
            assert device.cpu.f_min - 1e-6 <= freq <= device.cpu.f_max + 1e-6

    @given(count=st.integers(2, 8), seed=st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_upload_order_preserved_under_dvfs(self, count, seed):
        """Algorithm 3 never reorders the channel queue: the sorted-by-
        compute order at max frequency matches the order at determined
        frequencies."""
        devices = make_heterogeneous_devices(count, seed=seed)
        freqs = determine_frequencies(devices, PAYLOAD, BANDWIDTH)
        base = simulate_tdma_round(devices, PAYLOAD, BANDWIDTH)
        opt = simulate_tdma_round(devices, PAYLOAD, BANDWIDTH, freqs)
        base_order = [e.device_id for e in base.users]
        opt_order = [e.device_id for e in opt.users]
        assert base_order == opt_order

    def test_no_device_spends_more_compute_energy_than_at_f_max(self):
        """Per device, not only in total: Algorithm 3 (clamped, with
        and without ladder snapping) keeps every frequency in the
        device's ``[f_min, f_max]`` (on its ladder when snapping) and
        never costs a device more compute energy (Eq. 5) than running
        at its own ``f_max``. Long queues are folded by ``queued_run``;
        the spy shows the generated fleets reach it."""
        queued_runs = []
        real_queued_run = frequency_module.queued_run

        def spy(*args, **kwargs):
            queued_runs.append(args[2])
            return real_queued_run(*args, **kwargs)

        @given(
            count=st.integers(1, MAX_DEVICES),
            seed=st.integers(0, 300),
            payload=st.floats(min_value=1e5, max_value=2e7),
            gain_low=st.floats(min_value=1e-8, max_value=1.0),
            quantize=st.booleans(),
        )
        @settings(max_examples=60, deadline=None)
        def check(count, seed, payload, gain_low, quantize):
            sizes = np.random.default_rng(seed).integers(1, 201, size=count)
            partitions = [
                ArrayDataset(np.zeros((size, 1)), np.zeros(size, dtype=int))
                for size in sizes.tolist()
            ]
            spec = FleetSpec(
                channel_gain_range=(gain_low, 1.0),
                frequency_levels=(0.3, 0.55, 0.8, 1.0) if quantize else None,
            )
            devices = make_fleet(partitions, spec, seed=seed)
            freqs = determine_frequencies(
                devices, payload, BANDWIDTH, clamp=True, quantize=quantize
            )
            for device in devices:
                freq = freqs[device.device_id]
                assert device.cpu.f_min <= freq <= device.cpu.f_max
                if quantize:
                    assert freq in device.cpu.frequency_levels.tolist()
                assert device.compute_energy(freq) <= device.compute_energy()

        with mock.patch.object(frequency_module, "queued_run", spy):
            check()
        assert queued_runs and min(queued_runs) >= MIN_RUN

    @given(seed=st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_identical_fleets_fill_all_slack(self, seed):
        """For homogeneous devices every stretched user lands exactly at
        the channel-free instant: zero residual slack."""
        rng = np.random.default_rng(seed)
        f_max = float(rng.uniform(0.5e9, 2.0e9))
        from tests.conftest import make_device

        devices = [make_device(device_id=i, f_max=f_max) for i in range(5)]
        freqs = determine_frequencies(devices, PAYLOAD, BANDWIDTH)
        opt = simulate_tdma_round(devices, PAYLOAD, BANDWIDTH, freqs)
        clamped = [
            e for e in opt.users if e.frequency > devices[0].cpu.f_min + 1e-6
        ]
        for entry in clamped:
            assert entry.slack < 1e-6
