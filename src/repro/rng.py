"""Seeded random-number-generation helpers.

All stochastic components of the library (synthetic data generation,
dataset partitioning, device-fleet heterogeneity, random user
selection, channel fading, model initialization) draw from
:class:`numpy.random.Generator` instances produced here, so an
experiment seeded once is reproducible bit-for-bit.

The helpers accept either an integer seed, an existing ``Generator``
(returned unchanged), or ``None`` (fresh OS entropy), which lets public
APIs expose a single ``seed`` argument with natural semantics.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.errors import SerializationError

__all__ = [
    "SeedLike",
    "ensure_generator",
    "spawn_generators",
    "derive_seed",
    "generator_state",
    "restore_generator",
]

SeedLike = Union[int, np.random.Generator, None]


def ensure_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Args:
        seed: an ``int`` seed, an existing generator (returned as-is),
            or ``None`` for a generator seeded from OS entropy.

    Returns:
        A numpy random generator.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_generators(seed: SeedLike, count: int) -> list:
    """Split ``seed`` into ``count`` statistically independent generators.

    Uses numpy's ``SeedSequence.spawn`` machinery (via ``Generator.spawn``
    when available) so the children do not overlap even for adjacent
    integer seeds.

    Args:
        seed: parent seed or generator.
        count: number of child generators, must be non-negative.

    Returns:
        A list of ``count`` independent generators.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    parent = ensure_generator(seed)
    try:
        return list(parent.spawn(count))
    except AttributeError:  # numpy < 1.25 fallback
        seeds = parent.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(s)) for s in seeds]


def derive_seed(seed: SeedLike, *tags: str) -> int:
    """Derive a deterministic integer sub-seed from ``seed`` and tags.

    Useful when a component needs a stable seed for a named purpose
    (e.g. ``derive_seed(base, "partition", "noniid")``) without
    consuming draws from a shared generator.

    Args:
        seed: base seed; generators contribute one 63-bit draw.
        *tags: string labels mixed into the derived seed.

    Returns:
        A non-negative integer seed.
    """
    if isinstance(seed, np.random.Generator):
        base = int(seed.integers(0, 2**63 - 1))
    elif seed is None:
        base = int(np.random.default_rng().integers(0, 2**63 - 1))
    else:
        base = int(seed)
    mixed = base & 0x7FFFFFFFFFFFFFFF
    for tag in tags:
        for ch in tag:
            mixed = (mixed * 1099511628211 + ord(ch)) & 0x7FFFFFFFFFFFFFFF
    return mixed


def generator_state(generator: np.random.Generator) -> dict:
    """Snapshot a generator's bit-generator state as plain data.

    The returned dict is exactly ``generator.bit_generator.state`` —
    JSON-serializable (bit-generator name, arbitrary-precision Python
    ints) and restorable without loss via :func:`restore_generator`, so
    checkpoints can freeze and resume a stream mid-sequence.
    """
    return generator.bit_generator.state


def restore_generator(state: dict) -> np.random.Generator:
    """Rebuild a generator from a :func:`generator_state` snapshot.

    The restored generator continues the stream from exactly where the
    snapshot was taken: the next draw matches what the original
    generator would have produced.

    Raises:
        SerializationError: ``state`` is not a dict, names no concrete
            :class:`numpy.random.BitGenerator` subclass, or holds a
            state that bit generator refuses (a snapshot read from a
            checkpoint file is outside input).
    """
    name = state.get("bit_generator") if isinstance(state, dict) else None
    bit_generator_cls = getattr(np.random, name, None) if isinstance(name, str) else None
    if not (
        isinstance(bit_generator_cls, type)
        and issubclass(bit_generator_cls, np.random.BitGenerator)
    ):
        raise SerializationError(
            f"generator snapshot names no numpy bit generator: {state!r:.200}"
        )
    try:
        bit_generator = bit_generator_cls()
        bit_generator.state = state
    except (KeyError, TypeError, ValueError, OverflowError, NotImplementedError) as exc:
        raise SerializationError(
            f"malformed {name} state in generator snapshot: {exc}"
        ) from exc
    return np.random.Generator(bit_generator)
