"""Tests for the HELCFL utility function (Eq. 20)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.utility import decayed_utility, utility_scores
from repro.devices.population import DevicePopulation
from repro.errors import ConfigurationError
from tests.conftest import make_device, make_heterogeneous_devices

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
        with pytest.raises(ConfigurationError):
            decayed_utility(0, 1.0, 1.0, decay=1.0)
        with pytest.raises(ConfigurationError):
            decayed_utility(0, 1.0, 1.0, decay=0.0)

    def test_negative_appearance_rejected(self):
        with pytest.raises(ConfigurationError):
            decayed_utility(-1, 1.0, 1.0, 0.5)

    def test_zero_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            decayed_utility(0, 0.0, 0.0, 0.5)


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
