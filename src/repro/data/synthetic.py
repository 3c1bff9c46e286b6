"""Synthetic CIFAR-10-like image classification task.

The paper evaluates on CIFAR-10, which is unavailable in this offline
environment. This module generates a seeded stand-in with the
properties the experiments actually rely on:

* a fixed number of balanced classes (10 by default);
* image-shaped inputs so convolutional models (Mini-SqueezeNet) apply;
* class structure that a small model can learn well but not perfectly,
  so accuracy curves rise then plateau below 100% (like CIFAR-10);
* per-sample variation so that seeing *more distinct users' data*
  genuinely improves the learned decision boundary — the property that
  drives the paper's Fig. 2 result (FedCS plateaus because the data on
  slow users is never incorporated).

Generation model: each class ``k`` owns a smooth random prototype image
``P_k``; each sample is ``P_k + S z + eps`` where ``S`` is a shared bank
of smooth style components, ``z`` a per-sample gaussian code (the
within-class variation), and ``eps`` white pixel noise. Class
separability is controlled by the prototype scale relative to the
variation scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.errors import ConfigurationError
from repro.rng import SeedLike, ensure_generator

__all__ = ["SyntheticImageTask", "make_synthetic_image_task"]


@dataclass
class SyntheticImageTask:
    """A generated classification task with train and test splits.

    Attributes:
        train: training split.
        test: held-out evaluation split.
        num_classes: class count.
        image_shape: CHW shape of each sample.
        class_separation: prototype scale used at generation.
        within_class_std: per-sample style-code scale.
        noise_std: white pixel-noise scale.
        seed: generation seed (for provenance).
    """

    train: ArrayDataset
    test: ArrayDataset
    num_classes: int
    image_shape: Tuple[int, int, int]
    class_separation: float
    within_class_std: float
    noise_std: float
    seed: int | None = field(default=None)


def _smooth_field(
    rng: np.random.Generator, shape: Tuple[int, int, int], smoothness: int = 2
) -> np.ndarray:
    """Draw a spatially smooth random field of CHW ``shape``.

    Smoothness is obtained by upsampling a coarse gaussian grid with
    bilinear-style interpolation (axis-wise ``np.interp``), which keeps
    the generator dependency-free.
    """
    c, h, w = shape
    coarse_h = max(2, h // smoothness)
    coarse_w = max(2, w // smoothness)
    coarse = rng.normal(0.0, 1.0, size=(c, coarse_h, coarse_w))
    ys = np.linspace(0.0, coarse_h - 1.0, h)
    xs = np.linspace(0.0, coarse_w - 1.0, w)
    field_rows = np.empty((c, h, coarse_w))
    for ch in range(c):
        for j in range(coarse_w):
            field_rows[ch, :, j] = np.interp(
                ys, np.arange(coarse_h), coarse[ch, :, j]
            )
    out = np.empty((c, h, w))
    for ch in range(c):
        for i in range(h):
            out[ch, i, :] = np.interp(xs, np.arange(coarse_w), field_rows[ch, i, :])
    return out


def make_synthetic_image_task(
    num_classes: int = 10,
    train_size: int = 4000,
    test_size: int = 1000,
    image_shape: Tuple[int, int, int] = (3, 8, 8),
    class_separation: float = 1.0,
    within_class_std: float = 0.9,
    noise_std: float = 0.6,
    num_style_components: int = 12,
    seed: SeedLike = None,
) -> SyntheticImageTask:
    """Generate a balanced synthetic image classification task.

    Args:
        num_classes: number of classes (balanced in both splits).
        train_size: total training samples (split evenly per class).
        test_size: total test samples.
        image_shape: CHW shape of generated images.
        class_separation: scale of class prototypes — larger is easier.
        within_class_std: scale of the shared-style per-sample codes —
            larger means more intra-class diversity (and more benefit
            from seeing many users' samples).
        noise_std: white-noise scale — larger lowers the accuracy
            ceiling.
        num_style_components: size of the shared style bank.
        seed: generation seed.

    Returns:
        A :class:`SyntheticImageTask` with standardized inputs
        (approximately zero-mean, unit-variance overall).
    """
    if num_classes < 2:
        raise ConfigurationError(f"num_classes must be >= 2, got {num_classes}")
    if train_size < num_classes or test_size < num_classes:
        raise ConfigurationError(
            "train_size and test_size must each be >= num_classes, got "
            f"{train_size} and {test_size} for {num_classes} classes"
        )
    for name, scale in (
        ("class_separation", class_separation),
        ("within_class_std", within_class_std),
        ("noise_std", noise_std),
    ):
        if not (math.isfinite(scale) and scale >= 0):
            raise ConfigurationError(
                f"{name} must be finite and non-negative, got {scale}"
            )
    if num_style_components <= 0:
        raise ConfigurationError(
            f"num_style_components must be positive, got {num_style_components}"
        )
    image_shape = tuple(int(v) for v in image_shape)
    if len(image_shape) != 3 or min(image_shape) <= 0:
        raise ConfigurationError(
            f"image_shape must be a positive CHW triple, got {image_shape}"
        )

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
            # ``(P_k + S z) + eps`` written straight into the class's rows.
            rows = inputs[cursor : cursor + n]
            np.add(prototypes[cls], styles, out=rows)
            rows += noise
            labels[cursor : cursor + n] = cls
            cursor += n
        # Rebinding frees a class's temporaries only once the next
        # class's exist, so malloc reuses their pages rather than trimming
        # and faulting them in again per class; the last ones go here,
        # before the permuted gather needs its second full-size buffer.
        del codes, styles, noise, rows
        order = rng.permutation(total)
        return ArrayDataset(inputs[order], labels[order])

    # Standardize with the training split's statistics, in place: the
    # same two roundings per element as ``(x - mean) / std``. The
    # statistics read no draws, so taking them before the test split
    # exists keeps every bit and keeps that split out of the peak that
    # ``std``'s full-size temporary sets.
    train = _generate(train_size)
    mean = train.inputs.mean()
    std = train.inputs.std()
    std = std if std > 0 else 1.0
    test = _generate(test_size)
    for split in (train, test):
        split.inputs -= mean
        split.inputs /= std

    return SyntheticImageTask(
        train=train,
        test=test,
        num_classes=num_classes,
        image_shape=image_shape,
        class_separation=float(class_separation),
        within_class_std=float(within_class_std),
        noise_std=float(noise_std),
        seed=seed if isinstance(seed, int) else None,
    )
