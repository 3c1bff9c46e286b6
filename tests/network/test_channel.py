"""Tests for the Rayleigh fading channel model."""

import numpy as np
import pytest

from repro.errors import NetworkError
from repro.network.channel import RayleighFadingChannel


class TestRayleigh:
    def test_mean_approximates_configured(self):
        channel = RayleighFadingChannel(mean_gain=2.0, seed=0)
        draws = [channel.sample_gain() for _ in range(20000)]
        assert abs(np.mean(draws) - 2.0) < 0.05

    def test_draws_vary(self):
        channel = RayleighFadingChannel(seed=1)
        draws = {channel.sample_gain() for _ in range(10)}
        assert len(draws) == 10

    def test_strictly_positive(self):
        channel = RayleighFadingChannel(mean_gain=1e-6, seed=2)
        assert all(channel.sample_gain() > 0 for _ in range(100))

    def test_deterministic_given_seed(self):
        a = RayleighFadingChannel(seed=3)
        b = RayleighFadingChannel(seed=3)
        assert a.sample_gain() == b.sample_gain()

    def test_invalid_mean(self):
        with pytest.raises(NetworkError):
            RayleighFadingChannel(mean_gain=0.0)
