"""Tests for the synthetic CIFAR-10-like task generator."""

import numpy as np
import pytest

from repro.data.synthetic import make_synthetic_image_task
from repro.errors import ConfigurationError
from tests.oracles.data_copies import synthetic_task


class TestGeneration:
    def test_sizes_and_shapes(self):
        task = make_synthetic_image_task(
            num_classes=10, train_size=500, test_size=100, seed=0
        )
        assert len(task.train) == 500
        assert len(task.test) == 100
        assert task.train.inputs.shape[1:] == (3, 8, 8)

    def test_balanced_classes(self):
        task = make_synthetic_image_task(
            num_classes=5, train_size=500, test_size=100, seed=0
        )
        counts = task.train.class_counts(5)
        assert np.all(counts == 100)

    def test_uneven_size_distributes_remainder(self):
        task = make_synthetic_image_task(
            num_classes=3, train_size=100, test_size=30, seed=0
        )
        counts = task.train.class_counts(3)
        assert counts.sum() == 100
        assert counts.max() - counts.min() <= 1

    def test_standardized(self):
        task = make_synthetic_image_task(train_size=2000, test_size=100, seed=1)
        assert abs(task.train.inputs.mean()) < 1e-9
        assert abs(task.train.inputs.std() - 1.0) < 1e-9

    def test_deterministic_given_seed(self):
        a = make_synthetic_image_task(train_size=200, test_size=50, seed=7)
        b = make_synthetic_image_task(train_size=200, test_size=50, seed=7)
        assert np.array_equal(a.train.inputs, b.train.inputs)
        assert np.array_equal(a.test.labels, b.test.labels)

    def test_different_seeds_differ(self):
        a = make_synthetic_image_task(train_size=200, test_size=50, seed=1)
        b = make_synthetic_image_task(train_size=200, test_size=50, seed=2)
        assert not np.array_equal(a.train.inputs, b.train.inputs)

    def test_custom_image_shape(self):
        task = make_synthetic_image_task(
            train_size=100, test_size=20, image_shape=(1, 6, 6), seed=0
        )
        assert task.train.inputs.shape[1:] == (1, 6, 6)


class TestInPlaceArithmetic:
    """Writing each class into place and standardizing in place keeps
    every bit of the out-of-place generator (``tests/oracles``)."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(train_size=503, test_size=97, seed=0),
            dict(num_classes=3, train_size=100, test_size=31, seed=5),
            dict(train_size=200, test_size=40, image_shape=(1, 5, 3), seed=9),
            # All-zero inputs: std is 0 and the divisor falls back to 1.
            dict(
                train_size=40,
                test_size=20,
                class_separation=0.0,
                within_class_std=0.0,
                noise_std=0.0,
                seed=2,
            ),
        ],
    )
    def test_equals_out_of_place_generator(self, kwargs):
        task = make_synthetic_image_task(**kwargs)
        train, test = synthetic_task(**kwargs)
        for got, want in ((task.train, train), (task.test, test)):
            assert got.inputs.shape == want.inputs.shape
            assert got.inputs.tobytes() == want.inputs.tobytes()
            assert got.labels.tobytes() == want.labels.tobytes()


class TestLearnability:
    def test_classes_are_separable_above_chance(self):
        """A nearest-class-mean classifier must beat chance clearly."""
        task = make_synthetic_image_task(
            num_classes=4, train_size=800, test_size=200, seed=3
        )
        x = task.train.inputs.reshape(len(task.train), -1)
        y = task.train.labels
        means = np.stack([x[y == c].mean(axis=0) for c in range(4)])
        xt = task.test.inputs.reshape(len(task.test), -1)
        dists = ((xt[:, None, :] - means[None]) ** 2).sum(axis=2)
        acc = np.mean(dists.argmin(axis=1) == task.test.labels)
        assert acc > 0.5  # chance is 0.25

    def test_noise_lowers_separability(self):
        def ncm_accuracy(noise):
            task = make_synthetic_image_task(
                num_classes=4,
                train_size=800,
                test_size=400,
                noise_std=noise,
                seed=4,
            )
            x = task.train.inputs.reshape(len(task.train), -1)
            y = task.train.labels
            means = np.stack([x[y == c].mean(axis=0) for c in range(4)])
            xt = task.test.inputs.reshape(len(task.test), -1)
            dists = ((xt[:, None, :] - means[None]) ** 2).sum(axis=2)
            return np.mean(dists.argmin(axis=1) == task.test.labels)

        assert ncm_accuracy(0.2) > ncm_accuracy(5.0)


class TestValidation:
    def test_too_few_classes(self):
        with pytest.raises(ConfigurationError):
            make_synthetic_image_task(num_classes=1)

    def test_too_small_sizes(self):
        with pytest.raises(ConfigurationError):
            make_synthetic_image_task(num_classes=10, train_size=5, test_size=100)

    def test_negative_scales(self):
        with pytest.raises(ConfigurationError):
            make_synthetic_image_task(
                train_size=100, test_size=20, noise_std=-1.0
            )

    def test_bad_image_shape(self):
        with pytest.raises(ConfigurationError):
            make_synthetic_image_task(
                train_size=100, test_size=20, image_shape=(3, 8)
            )

    def test_zero_style_components(self):
        with pytest.raises(ConfigurationError):
            make_synthetic_image_task(
                train_size=100, test_size=20, num_style_components=0
            )
