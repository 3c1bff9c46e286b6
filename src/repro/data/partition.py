"""Federated dataset partitioners.

Implements the two schemes of the paper's Section VII-A plus a
Dirichlet extension:

* :func:`iid_partition` — "training samples are randomly shuffled and
  evenly assigned to users".
* :func:`shard_noniid_partition` — "training samples are sorted by
  labels and cut into 400 pieces, and each four pieces are assigned a
  user" (for 100 users; the shard arithmetic generalizes).
* :func:`dirichlet_partition` — label-Dirichlet partitioning with a
  concentration knob, the standard modern non-IID benchmark.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.errors import PartitionError
from repro.rng import SeedLike, ensure_generator

# Dirichlet draws before ``dirichlet_partition`` gives up.
_MAX_DRAWS = 100

__all__ = [
    "iid_partition",
    "shard_noniid_partition",
    "dirichlet_partition",
]


def _check_partition_args(dataset: ArrayDataset, num_users: int) -> None:
    if num_users <= 0:
        raise PartitionError(f"num_users must be positive, got {num_users}")
    if len(dataset) < num_users:
        raise PartitionError(
            f"cannot split {len(dataset)} samples across {num_users} users"
        )


def iid_partition(
    dataset: ArrayDataset, num_users: int, seed: SeedLike = None
) -> List[ArrayDataset]:
    """Shuffle and split ``dataset`` evenly across ``num_users`` users.

    When the size is not divisible, the first ``size % num_users`` users
    receive one extra sample, so every sample is assigned exactly once.

    Returns:
        One :class:`ArrayDataset` per user.
    """
    _check_partition_args(dataset, num_users)
    rng = ensure_generator(seed)
    order = rng.permutation(len(dataset))
    splits = np.array_split(order, num_users)
    return [dataset.subset(split) for split in splits]


def shard_noniid_partition(
    dataset: ArrayDataset,
    num_users: int,
    shards_per_user: int = 4,
    seed: SeedLike = None,
) -> List[ArrayDataset]:
    """The paper's label-sorted shard partitioner.

    Samples are sorted by label (ties shuffled), cut into
    ``num_users * shards_per_user`` contiguous shards, and each user is
    dealt ``shards_per_user`` shards at random. Each user therefore sees
    only a few labels — the pathological non-IID regime of McMahan et
    al. [9] that the paper adopts.

    Args:
        dataset: source dataset.
        num_users: number of users.
        shards_per_user: shards dealt to each user (paper: 4).
        seed: deal-order seed.

    Returns:
        One :class:`ArrayDataset` per user.

    Raises:
        PartitionError: if there are fewer samples than shards.
    """
    _check_partition_args(dataset, num_users)
    if shards_per_user <= 0:
        raise PartitionError(
            f"shards_per_user must be positive, got {shards_per_user}"
        )
    total_shards = num_users * shards_per_user
    if len(dataset) < total_shards:
        raise PartitionError(
            f"{len(dataset)} samples cannot fill {total_shards} shards"
        )
    rng = ensure_generator(seed)
    # Shuffle before the stable sort so that same-label ties land in
    # random shards run-to-run (given different seeds).
    order = rng.permutation(len(dataset))
    order = order[np.argsort(dataset.labels[order], kind="stable")]
    shards = np.array_split(order, total_shards)
    shard_ids = rng.permutation(total_shards)
    partitions = []
    for user in range(num_users):
        mine = shard_ids[user * shards_per_user : (user + 1) * shards_per_user]
        indices = np.concatenate([shards[s] for s in mine])
        partitions.append(dataset.subset(indices))
    return partitions


def dirichlet_partition(
    dataset: ArrayDataset,
    num_users: int,
    alpha: float = 0.5,
    seed: SeedLike = None,
) -> List[ArrayDataset]:
    """Label-Dirichlet partitioning (extension beyond the paper).

    For each class, the class's samples are distributed across users
    according to a draw from ``Dirichlet(alpha)``. Small ``alpha``
    yields highly skewed users; large ``alpha`` approaches IID. A draw
    that leaves a user without samples is redrawn, up to
    ``_MAX_DRAWS`` draws.

    Args:
        dataset: source dataset.
        num_users: number of users.
        alpha: Dirichlet concentration, must be positive.
        seed: draw seed.

    Raises:
        PartitionError: if a valid assignment cannot be drawn.
    """
    _check_partition_args(dataset, num_users)
    if not (math.isfinite(alpha) and alpha > 0):
        raise PartitionError(f"alpha must be finite and positive, got {alpha}")
    rng = ensure_generator(seed)
    labels = dataset.labels
    classes = np.unique(labels)
    for _ in range(_MAX_DRAWS):
        user_indices: List[List[int]] = [[] for _ in range(num_users)]
        for cls in classes:
            cls_idx = np.flatnonzero(labels == cls)
            rng.shuffle(cls_idx)
            proportions = rng.dirichlet(np.full(num_users, alpha))
            cuts = (np.cumsum(proportions) * len(cls_idx)).astype(int)[:-1]
            for user, chunk in enumerate(np.split(cls_idx, cuts)):
                user_indices[user].extend(chunk.tolist())
        if all(user_indices):
            return [dataset.subset(idx) for idx in user_indices]
    raise PartitionError(
        f"could not give each of {num_users} users a sample in "
        f"{_MAX_DRAWS} Dirichlet draws (alpha={alpha})"
    )
