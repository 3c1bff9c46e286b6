"""Tests for repro.rng."""

import json

import numpy as np
import pytest

from repro.errors import SerializationError
from repro.rng import (
    derive_seed,
    ensure_generator,
    generator_state,
    restore_generator,
    spawn_generators,
)


class TestEnsureGenerator:
    def test_int_seed_is_deterministic(self):
        a = ensure_generator(123).integers(0, 1000, size=5)
        b = ensure_generator(123).integers(0, 1000, size=5)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = ensure_generator(1).integers(0, 10**9)
        b = ensure_generator(2).integers(0, 10**9)
        assert a != b

    def test_generator_passes_through(self):
        gen = np.random.default_rng(0)
        assert ensure_generator(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(ensure_generator(None), np.random.Generator)


class TestSpawnGenerators:
    def test_count(self):
        children = spawn_generators(0, 4)
        assert len(children) == 4

    def test_children_are_independent_streams(self):
        children = spawn_generators(0, 2)
        a = children[0].integers(0, 10**9, size=10)
        b = children[1].integers(0, 10**9, size=10)
        assert not np.array_equal(a, b)

    def test_deterministic_given_seed(self):
        a = [g.integers(0, 10**9) for g in spawn_generators(7, 3)]
        b = [g.integers(0, 10**9) for g in spawn_generators(7, 3)]
        assert a == b

    def test_zero_count(self):
        assert spawn_generators(0, 0) == []

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            spawn_generators(0, -1)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", "b") == derive_seed(42, "a", "b")

    def test_tags_change_seed(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_base_changes_seed(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_non_negative(self):
        for base in (0, 1, 2**62):
            assert derive_seed(base, "x") >= 0

    def test_tag_order_matters(self):
        assert derive_seed(3, "a", "b") != derive_seed(3, "b", "a")


def pcg64_snapshot(**changes):
    """A mid-stream PCG64 snapshot with ``changes`` written over it."""
    generator = np.random.default_rng(7)
    generator.random(3)
    return {**generator_state(generator), **changes}


# name -> a snapshot no checkpoint writes; restore_generator refuses it.
HOSTILE_SNAPSHOTS = {
    "not_a_dict": ["PCG64"],
    "null": None,
    "name_not_a_string": {"bit_generator": 64},
    "numpy_function": {"bit_generator": "seed"},
    "generator_class": {"bit_generator": "Generator"},
    "legacy_random_state": {"bit_generator": "RandomState"},
    "seed_sequence": {"bit_generator": "SeedSequence"},
    "abstract_base": {"bit_generator": "BitGenerator", "state": {}},
    "missing_state": {"bit_generator": "PCG64"},
    "state_of_another_generator": pcg64_snapshot(bit_generator="Philox"),
    "non_integer_state": pcg64_snapshot(state={"state": "x", "inc": 1}),
    "state_past_128_bits": pcg64_snapshot(state={"state": 2**128, "inc": 1}),
    "negative_buffered_word": pcg64_snapshot(uinteger=-1),
}


class TestGeneratorSnapshot:
    @pytest.mark.parametrize("name", ["PCG64", "PCG64DXSM"])
    def test_json_round_trip_continues_the_stream(self, name):
        generator = np.random.Generator(getattr(np.random, name)(5))
        generator.random(3)
        snapshot = json.loads(json.dumps(generator_state(generator)))
        restored = restore_generator(snapshot)
        assert restored.random(4).tolist() == generator.random(4).tolist()

    @pytest.mark.parametrize("name", sorted(HOSTILE_SNAPSHOTS))
    def test_hostile_snapshot_is_refused(self, name):
        with pytest.raises(SerializationError):
            restore_generator(HOSTILE_SNAPSHOTS[name])

    def test_refusal_leaves_the_legacy_global_stream_alone(self):
        saved = np.random.get_state()
        try:
            np.random.seed(11)
            expected = np.random.random(2).tolist()
            np.random.seed(11)
            with pytest.raises(SerializationError):
                restore_generator({"bit_generator": "seed"})
            assert np.random.random(2).tolist() == expected
        finally:
            np.random.set_state(saved)
