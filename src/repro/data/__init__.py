"""Datasets and federated partitioning.

Provides the array-backed dataset container, the synthetic
CIFAR-10-like classification task used in place of CIFAR-10 (offline
environment — see DESIGN.md), the flattening transform MLP inputs go
through, and the paper's two partitioning schemes:

* **IID** — samples shuffled and split evenly across users.
* **Non-IID** — the paper's recipe: sort by label, cut into shards
  (400 shards for 100 users), assign ``shards_per_user`` (4) shards to
  each user.

A Dirichlet partitioner is included as an extension for controllable
heterogeneity.
"""

from repro.data.dataset import ArrayDataset, train_test_split
from repro.data.partition import (
    dirichlet_partition,
    iid_partition,
    shard_noniid_partition,
)
from repro.data.synthetic import SyntheticImageTask, make_synthetic_image_task
from repro.data.transforms import flatten_images

__all__ = [
    "ArrayDataset",
    "train_test_split",
    "iid_partition",
    "shard_noniid_partition",
    "dirichlet_partition",
    "SyntheticImageTask",
    "make_synthetic_image_task",
    "flatten_images",
]
