"""Tests for ArrayDataset and train_test_split."""

import numpy as np
import pytest

from repro.data.dataset import ArrayDataset, train_test_split
from repro.errors import DataError


def dataset(n=20, dim=3, classes=4, seed=0):
    rng = np.random.default_rng(seed)
    return ArrayDataset(
        rng.normal(size=(n, dim)), rng.integers(0, classes, size=n)
    )


class TestConstruction:
    def test_length(self):
        assert len(dataset(15)) == 15

    def test_mismatched_lengths_raise(self):
        with pytest.raises(DataError):
            ArrayDataset(np.zeros((3, 2)), np.zeros(4, dtype=int))

    def test_2d_labels_raise(self):
        with pytest.raises(DataError):
            ArrayDataset(np.zeros((3, 2)), np.zeros((3, 1), dtype=int))

    def test_float_integral_labels_cast(self):
        ds = ArrayDataset(np.zeros((2, 1)), np.array([0.0, 1.0]))
        assert ds.labels.dtype == np.int64

    def test_non_integral_labels_raise(self):
        with pytest.raises(DataError):
            ArrayDataset(np.zeros((2, 1)), np.array([0.5, 1.0]))

    def test_getitem(self):
        ds = dataset()
        x, y = ds[3]
        assert np.array_equal(x, ds.inputs[3])
        assert y == ds.labels[3]


class TestQueries:
    def test_num_classes(self):
        ds = ArrayDataset(np.zeros((4, 1)), np.array([0, 2, 2, 1]))
        assert ds.num_classes == 3

    def test_class_counts(self):
        ds = ArrayDataset(np.zeros((4, 1)), np.array([0, 2, 2, 1]))
        assert np.array_equal(ds.class_counts(4), [1, 1, 2, 0])

    def test_empty_dataset(self):
        ds = ArrayDataset(np.zeros((0, 3)), np.zeros(0, dtype=int))
        assert len(ds) == 0
        assert ds.num_classes == 0


class TestSubset:
    def test_subset_selects_rows(self):
        ds = dataset()
        sub = ds.subset([0, 5, 7])
        assert len(sub) == 3
        assert np.array_equal(sub.inputs[1], ds.inputs[5])

    def test_out_of_range_raises(self):
        with pytest.raises(DataError):
            dataset(5).subset([10])


class TestTrainTestSplit:
    def test_sizes(self):
        train, test = train_test_split(dataset(100), test_fraction=0.25, seed=0)
        assert len(test) == 25 and len(train) == 75

    def test_disjoint_and_complete(self):
        ds = ArrayDataset(np.arange(50).reshape(50, 1), np.zeros(50, dtype=int))
        train, test = train_test_split(ds, 0.2, seed=1)
        merged = sorted(
            train.inputs.ravel().tolist() + test.inputs.ravel().tolist()
        )
        assert merged == list(range(50))

    def test_invalid_fraction(self):
        with pytest.raises(DataError):
            train_test_split(dataset(), 0.0)
        with pytest.raises(DataError):
            train_test_split(dataset(), 1.0)

    def test_at_least_one_each(self):
        train, test = train_test_split(dataset(3), 0.01, seed=0)
        assert len(test) >= 1 and len(train) >= 1
