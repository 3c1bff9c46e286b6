"""The data pipeline as ``src/`` shipped it while it copied freely.

* :func:`subset_partitions` — the three partitioners with one
  ``dataset.subset(indices)`` copy per user, the way they ended before
  they gathered every user's rows in one pass.
* :func:`synthetic_task` — ``make_synthetic_image_task``'s generation
  and standardization with out-of-place arithmetic
  (``prototypes[cls] + styles + noise``, ``(x - mean) / std``).

Kept verbatim in what they draw and compute: the partitions and the
task ``src/`` builds must equal these to the last bit
(``tests/data/test_partition.py``, ``tests/data/test_synthetic.py``).
"""

from typing import List

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.data.synthetic import _smooth_field
from repro.rng import ensure_generator


def subset_partitions(dataset: ArrayDataset, kind: str, num_users: int, seed, **kw):
    """``kind`` is ``"iid"``, ``"shard"`` or ``"dirichlet"``."""
    rng = ensure_generator(seed)
    if kind == "iid":
        order = rng.permutation(len(dataset))
        splits = np.array_split(order, num_users)
        return [dataset.subset(split) for split in splits]
    if kind == "shard":
        shards_per_user = kw.get("shards_per_user", 4)
        total_shards = num_users * shards_per_user
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
    if kind == "dirichlet":
        alpha = kw.get("alpha", 0.5)
        labels = dataset.labels
        classes = np.unique(labels)
        for _ in range(100):
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
        raise AssertionError("no valid Dirichlet draw")
    raise ValueError(kind)


def synthetic_task(
    num_classes=10,
    train_size=4000,
    test_size=1000,
    image_shape=(3, 8, 8),
    class_separation=1.0,
    within_class_std=0.9,
    noise_std=0.6,
    num_style_components=12,
    seed=None,
):
    """``(train, test)`` as the out-of-place generator returned them."""
    rng = ensure_generator(seed)
    prototypes = np.stack(
        [
            class_separation * _smooth_field(rng, image_shape)
            for _ in range(num_classes)
        ]
    )
    style_bank = np.stack(
        [_smooth_field(rng, image_shape) for _ in range(num_style_components)]
    )

    def _generate(total: int) -> ArrayDataset:
        per_class = total // num_classes
        remainder = total - per_class * num_classes
        counts = np.full(num_classes, per_class, dtype=np.int64)
        counts[:remainder] += 1
        inputs = np.empty((total,) + image_shape, dtype=np.float64)
        labels = np.empty(total, dtype=np.int64)
        cursor = 0
        for cls in range(num_classes):
            n = int(counts[cls])
            codes = rng.normal(
                0.0, within_class_std, size=(n, num_style_components)
            )
            styles = np.tensordot(codes, style_bank, axes=(1, 0))
            noise = rng.normal(0.0, noise_std, size=(n,) + image_shape)
            inputs[cursor : cursor + n] = prototypes[cls] + styles + noise
            labels[cursor : cursor + n] = cls
            cursor += n
        order = rng.permutation(total)
        return ArrayDataset(inputs[order], labels[order])

    train = _generate(train_size)
    test = _generate(test_size)
    mean = train.inputs.mean()
    std = train.inputs.std()
    std = std if std > 0 else 1.0
    train = ArrayDataset((train.inputs - mean) / std, train.labels)
    test = ArrayDataset((test.inputs - mean) / std, test.labels)
    return train, test
