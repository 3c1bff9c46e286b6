"""Tests for the HELCFL utility function (Eq. 20).

The value tests of ``TestDecayedUtility`` and ``TestUtilityProperties``
check the scalar reference in :mod:`tests.oracles.closed_forms` that
the population scores are compared with; the rest check
``utility_scores``, which owns the parameter checks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.utility import utility_scores
from repro.devices.fleet import FleetSpec
from repro.devices.population import DevicePopulation
from repro.errors import ConfigurationError, DeviceError
from tests.conftest import make_device, make_heterogeneous_devices
from tests.oracles.closed_forms import decayed_utility

PAYLOAD = 1e6
BANDWIDTH = 2e6


class TestDecayedUtility:
    def test_eq20_value(self):
        """u = eta^alpha / (T_cal + T_com) computed by hand."""
        value = decayed_utility(
            appearance_count=2, compute_delay=3.0, upload_delay=1.0, decay=0.5
        )
        assert value == pytest.approx(0.25 / 4.0)

    def test_zero_appearances_no_decay(self):
        value = decayed_utility(0, 2.0, 2.0, decay=0.5)
        assert value == pytest.approx(1.0 / 4.0)

    def test_decay_multiplies_per_selection(self):
        u0 = decayed_utility(0, 1.0, 1.0, 0.7)
        u1 = decayed_utility(1, 1.0, 1.0, 0.7)
        u2 = decayed_utility(2, 1.0, 1.0, 0.7)
        assert u1 == pytest.approx(0.7 * u0)
        assert u2 == pytest.approx(0.7 * u1)

    def test_shorter_delay_higher_utility(self):
        fast = decayed_utility(0, 1.0, 0.5, 0.9)
        slow = decayed_utility(0, 10.0, 0.5, 0.9)
        assert fast > slow

    def test_invalid_decay(self):
        population = DevicePopulation.from_devices([make_device()])
        for decay in (1.0, 0.0):
            with pytest.raises(ConfigurationError):
                utility_scores(population, {}, PAYLOAD, BANDWIDTH, decay)

    def test_negative_appearance_rejected(self):
        with pytest.raises(ConfigurationError):
            scores_of([make_device()], {0: -1})

    def test_zero_delay_rejected(self):
        # No samples to train and no bits to upload: T_cal + T_com = 0.
        population = DevicePopulation.from_devices([make_device(num_samples=0)])
        with pytest.raises(ConfigurationError):
            utility_scores(population, {}, 0.0, BANDWIDTH, 0.5)


def scores_of(devices, counts):
    return utility_scores(
        DevicePopulation.from_devices(devices), counts, PAYLOAD, BANDWIDTH, 0.8
    )


class TestUtilityScores:
    def test_scores_for_all_devices(self):
        devices = make_heterogeneous_devices(5)
        scores = scores_of(devices, {})
        assert isinstance(scores, np.ndarray)
        assert scores.shape == (len(devices),)
        assert np.all(scores > 0)

    def test_uses_max_frequency_delay(self):
        device = make_device(f_max=1.0e9)
        scores = scores_of([device], {})
        expected = 1.0 / (
            device.compute_delay(1.0e9) + device.upload_delay(PAYLOAD, BANDWIDTH)
        )
        assert scores[device.device_id] == pytest.approx(expected)

    def test_missing_counter_treated_as_zero(self):
        device = make_device()
        with_counter = scores_of([device], {device.device_id: 0})
        without = scores_of([device], {})
        assert np.array_equal(with_counter, without)

    def test_faster_device_scores_higher(self):
        fast = make_device(device_id=0, f_max=2.0e9)
        slow = make_device(device_id=1, f_max=0.4e9)
        scores = scores_of([fast, slow], {})
        assert scores[0] > scores[1]

    def test_decay_can_flip_ordering(self):
        """Enough selections make a fast user lose to a slow one —
        the mechanism that incorporates slow users' data."""
        fast = make_device(device_id=0, f_max=2.0e9)
        slow = make_device(device_id=1, f_max=0.4e9)
        counts = {0: 25, 1: 0}
        scores = scores_of([fast, slow], counts)
        assert scores[1] > scores[0]


def fleet(size=12, seed=3):
    return DevicePopulation.from_spec(
        FleetSpec(channel_gain_range=(0.5, 2.0)),
        np.arange(20, 20 + 7 * size, 7),
        seed=seed,
    )


def rebuilt(population, gains):
    """A fresh population of the same devices with ``gains``."""
    return DevicePopulation(
        population.device_ids,
        population.f_min,
        population.f_max,
        population.cycles_per_sample,
        population.switched_capacitance,
        population.num_samples,
        population.transmit_power,
        gains,
        population.noise_power,
    )


def scores(population, payload=PAYLOAD, bandwidth=BANDWIDTH):
    counts = np.arange(len(population)) % 3
    return utility_scores(population, counts, payload, bandwidth, 0.8)


class TestCachedMaxFrequencyDelay:
    """Eq. (20)'s denominator is the population's cached f_max delay:
    computed once per link, dropped with a channel change, never
    carried into a ``take`` child or read under another link."""

    def test_computed_once_and_read_only(self):
        population = fleet()
        delay = population.max_frequency_delay(PAYLOAD, BANDWIDTH)
        assert population.max_frequency_delay(PAYLOAD, BANDWIDTH) is delay
        assert not delay.flags.writeable
        assert np.array_equal(
            delay, population.total_delay(PAYLOAD, BANDWIDTH)
        )

    @given(
        moves=st.lists(
            st.tuples(st.integers(0, 11), st.floats(0.1, 5.0)), min_size=1, max_size=6
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_channel_change_equals_fresh_population(self, moves):
        population = fleet()
        scores(population)  # fills the cache
        positions, gains = zip(*moves)
        population.set_channel_gains(positions, gains)
        fresh = rebuilt(population, population.channel_gain.copy())
        assert scores(population).tobytes() == scores(fresh).tobytes()

    def test_take_child_does_not_inherit(self):
        population = fleet()
        scores(population)
        child = population.take([7, 2, 5])
        fresh = rebuilt(child, child.channel_gain.copy())
        assert scores(child).tobytes() == scores(fresh).tobytes()
        child.set_channel_gains([0], [0.25])  # the child's link only
        fresh = rebuilt(child, child.channel_gain.copy())
        assert scores(child).tobytes() == scores(fresh).tobytes()
        assert scores(population).tobytes() == scores(fleet()).tobytes()

    @pytest.mark.parametrize(
        "payload, bandwidth", [(2 * PAYLOAD, BANDWIDTH), (PAYLOAD, 3 * BANDWIDTH)]
    )
    def test_other_link_is_not_served_the_cache(self, payload, bandwidth):
        population = fleet()
        scores(population)
        fresh = fleet()
        assert (
            scores(population, payload, bandwidth).tobytes()
            == scores(fresh, payload, bandwidth).tobytes()
        )
        assert scores(population).tobytes() == scores(fleet()).tobytes()

    @pytest.mark.parametrize(
        "payload, bandwidth",
        [(np.inf, BANDWIDTH), (np.nan, BANDWIDTH), (PAYLOAD, np.nan)],
    )
    def test_nan_or_inf_delay_raises_every_time(self, payload, bandwidth):
        population = fleet()
        scores(population)
        # A non-finite payload is refused by Eq. (7) itself.
        error = ConfigurationError if np.isfinite(payload) else DeviceError
        for _ in range(2):
            with pytest.raises(error, match="finite and"):
                scores(population, payload, bandwidth)
        assert scores(population).tobytes() == scores(fleet()).tobytes()


class TestUtilityProperties:
    @given(
        alpha=st.integers(0, 50),
        t_cal=st.floats(min_value=1e-3, max_value=1e3),
        t_com=st.floats(min_value=1e-3, max_value=1e3),
        eta=st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=100, deadline=None)
    def test_positive(self, alpha, t_cal, t_com, eta):
        assert decayed_utility(alpha, t_cal, t_com, eta) > 0

    @given(
        alpha=st.integers(0, 30),
        t_cal=st.floats(min_value=1e-3, max_value=1e3),
        t_com=st.floats(min_value=1e-3, max_value=1e3),
        eta=st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=100, deadline=None)
    def test_strictly_decreasing_in_appearances(self, alpha, t_cal, t_com, eta):
        u_now = decayed_utility(alpha, t_cal, t_com, eta)
        u_next = decayed_utility(alpha + 1, t_cal, t_com, eta)
        assert u_next < u_now

    @given(
        t_fast=st.floats(min_value=1e-3, max_value=10.0),
        extra=st.floats(min_value=1e-3, max_value=10.0),
        eta=st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_delay(self, t_fast, extra, eta):
        fast = decayed_utility(0, t_fast, 1.0, eta)
        slow = decayed_utility(0, t_fast + extra, 1.0, eta)
        assert fast > slow
