"""Tests for repro.nn.initializers."""

import numpy as np
import pytest

from repro.nn.initializers import compute_fans, he_normal, zeros_init


class TestComputeFans:
    def test_dense_shape(self):
        assert compute_fans((8, 16)) == (8, 16)

    def test_conv_shape(self):
        # (out_c, in_c, kh, kw): fan_in = in_c * kh * kw.
        assert compute_fans((32, 16, 3, 3)) == (16 * 9, 32 * 9)

    def test_bias_shape(self):
        assert compute_fans((10,)) == (10, 10)

    def test_scalar_shape(self):
        assert compute_fans(()) == (1, 1)


class TestDistributions:
    def test_shape_and_dtype(self):
        rng = np.random.default_rng(0)
        weights = he_normal((64, 32), rng)
        assert weights.shape == (64, 32)
        assert weights.dtype == np.float64

    def test_he_normal_std(self):
        rng = np.random.default_rng(0)
        weights = he_normal((400, 400), rng)
        expected = np.sqrt(2.0 / 400)
        assert abs(weights.std() - expected) < 0.1 * expected

    def test_deterministic_given_generator_seed(self):
        a = he_normal((8, 8), np.random.default_rng(5))
        b = he_normal((8, 8), np.random.default_rng(5))
        assert np.array_equal(a, b)


# (shape, fan_in, fan_out) for dense weights and conv kernels.
FAN_CASES = [
    ((256, 128), 256, 128),
    ((64, 32, 3, 3), 32 * 9, 64 * 9),
    ((128, 16, 1, 1), 16, 128),
    ((32, 8, 3, 2), 8 * 6, 32 * 6),
]


class TestHeNormalShapes:
    @pytest.mark.parametrize("shape,fan_in,fan_out", FAN_CASES)
    def test_fans(self, shape, fan_in, fan_out):
        assert compute_fans(shape) == (fan_in, fan_out)

    @pytest.mark.parametrize("shape,fan_in,fan_out", FAN_CASES)
    def test_std_follows_fan_in(self, shape, fan_in, fan_out):
        del fan_out
        weights = he_normal(shape, np.random.default_rng(1))
        assert weights.shape == shape
        expected = np.sqrt(2.0 / fan_in)
        assert abs(weights.std() - expected) < 0.1 * expected
        assert abs(weights.mean()) < 0.1 * expected


class TestConstants:
    def test_zeros(self):
        rng = np.random.default_rng(0)
        assert np.all(zeros_init((3, 3), rng) == 0.0)
