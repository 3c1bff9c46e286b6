"""Tests for the federated partitioners, including hypothesis properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import ArrayDataset
from repro.data.partition import (
    dirichlet_partition,
    iid_partition,
    shard_noniid_partition,
)
from repro.errors import PartitionError


def labelled_dataset(n=200, classes=10, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(classes), n // classes)
    rng.shuffle(labels)
    return ArrayDataset(np.arange(n, dtype=float).reshape(n, 1), labels)


def label_distribution(partitions, classes):
    """Per-user label histograms as a ``(users, classes)`` matrix."""
    return np.stack([p.class_counts(classes) for p in partitions])


def all_indices(partitions):
    values = np.concatenate([p.inputs.ravel() for p in partitions])
    return sorted(values.tolist())


class TestIid:
    def test_conserves_samples(self):
        ds = labelled_dataset(200)
        parts = iid_partition(ds, 10, seed=0)
        assert all_indices(parts) == ds.inputs.ravel().tolist()

    def test_even_sizes(self):
        parts = iid_partition(labelled_dataset(200), 10, seed=0)
        assert all(len(p) == 20 for p in parts)

    def test_uneven_sizes_differ_by_one(self):
        parts = iid_partition(labelled_dataset(200), 7, seed=0)
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 200

    def test_labels_approximately_uniform(self):
        ds = labelled_dataset(1000)
        parts = iid_partition(ds, 10, seed=1)
        dist = label_distribution(parts, 10)
        # With 100 samples per user, each class ~10; nobody should miss
        # more than a couple of classes.
        assert (dist > 0).sum(axis=1).min() >= 8

    def test_deterministic(self):
        ds = labelled_dataset(100)
        a = iid_partition(ds, 5, seed=3)
        b = iid_partition(ds, 5, seed=3)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.inputs, pb.inputs)

    def test_too_many_users_raises(self):
        with pytest.raises(PartitionError):
            iid_partition(labelled_dataset(10), 11)

    def test_zero_users_raises(self):
        with pytest.raises(PartitionError):
            iid_partition(labelled_dataset(10), 0)


class TestShardNonIid:
    def test_conserves_samples(self):
        ds = labelled_dataset(400)
        parts = shard_noniid_partition(ds, 10, shards_per_user=4, seed=0)
        assert all_indices(parts) == sorted(ds.inputs.ravel().tolist())

    def test_paper_configuration(self):
        """100 users x 4 shards = 400 shards, paper Section VII-A."""
        ds = labelled_dataset(4000)
        parts = shard_noniid_partition(ds, 100, shards_per_user=4, seed=0)
        assert len(parts) == 100
        assert all(len(p) == 40 for p in parts)

    def test_label_concentration(self):
        """Each user sees only a few labels (the non-IID pathology)."""
        ds = labelled_dataset(1000)
        parts = shard_noniid_partition(ds, 50, shards_per_user=2, seed=1)
        dist = label_distribution(parts, 10)
        distinct = (dist > 0).sum(axis=1)
        # 2 shards -> at most ~3 labels per user (shard may straddle a
        # label boundary).
        assert distinct.max() <= 4
        assert distinct.mean() < 4

    def test_more_skewed_than_iid(self):
        ds = labelled_dataset(1000)
        iid = label_distribution(iid_partition(ds, 20, seed=2), 10)
        non = label_distribution(
            shard_noniid_partition(ds, 20, 2, seed=2), 10
        )
        assert (non > 0).sum(axis=1).mean() < (iid > 0).sum(axis=1).mean()

    def test_deterministic(self):
        ds = labelled_dataset(400)
        a = shard_noniid_partition(ds, 10, 4, seed=5)
        b = shard_noniid_partition(ds, 10, 4, seed=5)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.inputs, pb.inputs)

    def test_too_few_samples_raises(self):
        with pytest.raises(PartitionError):
            shard_noniid_partition(labelled_dataset(30, classes=3), 10, 4)

    def test_invalid_shards_per_user(self):
        with pytest.raises(PartitionError):
            shard_noniid_partition(labelled_dataset(100), 10, 0)


class TestDirichlet:
    def test_conserves_samples(self):
        ds = labelled_dataset(300)
        parts = dirichlet_partition(ds, 6, alpha=0.5, seed=0)
        assert all_indices(parts) == sorted(ds.inputs.ravel().tolist())

    def test_small_alpha_more_skew_than_large(self):
        ds = labelled_dataset(2000)
        skewed = label_distribution(
            dirichlet_partition(ds, 10, alpha=0.05, seed=1), 10
        )
        uniform = label_distribution(
            dirichlet_partition(ds, 10, alpha=100.0, seed=1), 10
        )

        def mean_entropy(dist):
            probs = dist / np.maximum(dist.sum(axis=1, keepdims=True), 1)
            with np.errstate(divide="ignore", invalid="ignore"):
                logs = np.where(probs > 0, np.log(probs), 0.0)
            return float(-(probs * logs).sum(axis=1).mean())

        assert mean_entropy(skewed) < mean_entropy(uniform)

    def test_no_user_left_empty(self):
        ds = labelled_dataset(100)
        parts = dirichlet_partition(ds, 20, alpha=0.1, seed=2)
        assert all(len(p) >= 1 for p in parts)

    @pytest.mark.parametrize("alpha", [0.0, float("nan"), float("inf")])
    def test_invalid_alpha(self, alpha):
        with pytest.raises(PartitionError, match="alpha"):
            dirichlet_partition(labelled_dataset(100), 5, alpha=alpha)

    def test_impossible_draw_raises(self):
        # Ten classes each land on about one user: 40 users cannot all
        # receive a sample.
        with pytest.raises(PartitionError, match="40 users"):
            dirichlet_partition(labelled_dataset(200), 40, alpha=1e-4, seed=0)


class TestPartitionProperties:
    @given(
        num_users=st.integers(1, 12),
        n_per_class=st.integers(5, 20),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_iid_partition_conserves_everything(self, num_users, n_per_class, seed):
        ds = labelled_dataset(n_per_class * 10, seed=seed)
        parts = iid_partition(ds, num_users, seed=seed)
        assert len(parts) == num_users
        assert sum(len(p) for p in parts) == len(ds)
        assert all_indices(parts) == sorted(ds.inputs.ravel().tolist())

    @given(
        num_users=st.integers(2, 10),
        shards=st.integers(1, 4),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_shard_partition_conserves_everything(self, num_users, shards, seed):
        ds = labelled_dataset(400, seed=seed)
        parts = shard_noniid_partition(ds, num_users, shards, seed=seed)
        assert sum(len(p) for p in parts) == len(ds)
        dist = label_distribution(parts, 10)
        assert np.array_equal(dist.sum(axis=0), ds.class_counts(10))


def assert_exact_cover(parts, ds):
    """Every sample lands with exactly one user; labels travel with it."""
    assert all_indices(parts) == sorted(ds.inputs.ravel().tolist())
    dist = label_distribution(parts, 10)
    assert np.array_equal(dist.sum(axis=0), ds.class_counts(10))
    for part in parts:
        rows = part.inputs.ravel().astype(int)
        assert np.array_equal(part.labels, ds.labels[rows])


class TestPartitionGrid:
    @pytest.mark.parametrize("num_users", [2, 5, 10])
    @pytest.mark.parametrize("alpha", [0.1, 1.0, 100.0])
    def test_dirichlet_covers_and_fills_every_user(self, alpha, num_users):
        ds = labelled_dataset(200, seed=3)
        parts = dirichlet_partition(ds, num_users, alpha=alpha, seed=4)
        assert len(parts) == num_users
        assert all(len(p) >= 1 for p in parts)
        assert_exact_cover(parts, ds)

    @pytest.mark.parametrize("num_users", [2, 5, 10])
    @pytest.mark.parametrize("alpha", [0.1, 1.0, 100.0])
    def test_dirichlet_deterministic_per_seed(self, alpha, num_users):
        ds = labelled_dataset(200, seed=3)
        a = dirichlet_partition(ds, num_users, alpha=alpha, seed=5)
        b = dirichlet_partition(ds, num_users, alpha=alpha, seed=5)
        for left, right in zip(a, b):
            assert np.array_equal(left.inputs, right.inputs)
            assert np.array_equal(left.labels, right.labels)

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("num_users", [2, 5, 10])
    def test_shard_users_see_few_labels(self, num_users, shards):
        # Shards are contiguous runs of the label-sorted order, so a
        # shard of s samples over classes of 20 spans at most
        # ceil(s / 20) + 1 labels.
        ds = labelled_dataset(200, seed=6)
        parts = shard_noniid_partition(ds, num_users, shards, seed=7)
        assert_exact_cover(parts, ds)
        shard_size = len(ds) // (num_users * shards)
        bound = shards * (-(-shard_size // 20) + 1)
        for part in parts:
            assert len(part) == shards * shard_size
            assert len(np.unique(part.labels)) <= bound

    @pytest.mark.parametrize("num_users", [1, 3, 7, 10, 200])
    def test_iid_sizes_balanced(self, num_users):
        ds = labelled_dataset(200, seed=8)
        parts = iid_partition(ds, num_users, seed=9)
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1
        # The first size % num_users users hold the extra samples.
        assert sizes == sorted(sizes, reverse=True)
        assert_exact_cover(parts, ds)
