"""Tests for atomic checksummed trainer checkpoints and trainer resume."""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError, SerializationError
from repro.experiments.runner import build_environment, build_trainer
from repro.experiments.settings import ExperimentSettings
from repro.fl.checkpoint import (
    CHECKPOINT_SCHEMA,
    CHECKPOINT_VERSION,
    TrainerCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.fl.trainer import TrainerConfig
from repro.wire import decode_array, encode_array


def tiny_settings(seed=0):
    return ExperimentSettings.quick(
        seed=seed,
        num_users=6,
        rounds=5,
        train_size=96,
        test_size=32,
    )


def make_trainer(seed=0, strategy="helcfl", checkpoint_path=None, **overrides):
    settings = tiny_settings(seed)
    environment = build_environment(settings, iid=True)
    config_overrides = {"checkpoint_every": 1}
    config_overrides.update(overrides)
    return build_trainer(
        strategy,
        settings,
        environment,
        config_overrides=config_overrides,
        checkpoint_path=checkpoint_path,
    )


class TestArrayCodec:
    @pytest.mark.parametrize("dtype", ["float64", "float32", "int64"])
    def test_round_trip_bitwise(self, dtype):
        rng = np.random.default_rng(0)
        array = rng.normal(size=(3, 5)).astype(dtype)
        rebuilt = decode_array(encode_array(array))
        assert rebuilt.dtype == array.dtype
        assert rebuilt.shape == array.shape
        assert rebuilt.tobytes() == array.tobytes()

    def test_non_contiguous_input(self):
        array = np.arange(12.0).reshape(3, 4)[:, ::2]
        rebuilt = decode_array(encode_array(array))
        np.testing.assert_array_equal(rebuilt, array)

    def test_malformed_payload_raises(self):
        with pytest.raises(SerializationError, match="malformed"):
            decode_array({"dtype": "float64"})
        with pytest.raises(SerializationError, match="malformed"):
            decode_array(
                {"dtype": "no-such-dtype", "shape": [1], "data": "AA=="}
            )


class TestCheckpointFile:
    def make_checkpoint(self):
        return TrainerCheckpoint(
            round_index=3,
            label="test",
            strategy_class="HelcflSelection",
            model_params=np.arange(8.0),
            history={"label": "test", "records": []},
            cumulative_time=12.5,
            cumulative_energy=3.25,
            ledger={"rounds_recorded": 3, "devices": {}},
            batteries={0: 90.0, 2: 45.5},
            channel_gains={0: 1.0, 1: 0.8},
            selection_state={"appearance_counts": {"0": 2}},
            plateau={"best": 0.5, "stale_count": 1, "converged": False},
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        checkpoint = self.make_checkpoint()
        save_checkpoint(str(path), checkpoint)
        loaded = load_checkpoint(str(path))
        assert loaded.round_index == checkpoint.round_index
        assert loaded.strategy_class == checkpoint.strategy_class
        assert loaded.model_params.tobytes() == (
            checkpoint.model_params.tobytes()
        )
        assert loaded.batteries == checkpoint.batteries
        assert loaded.channel_gains == checkpoint.channel_gains
        assert loaded.selection_state == checkpoint.selection_state
        assert loaded.plateau == checkpoint.plateau
        assert loaded.best_model_params is None

    def test_rewrite_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(str(a), self.make_checkpoint())
        save_checkpoint(str(b), self.make_checkpoint())
        assert a.read_bytes() == b.read_bytes()

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(str(tmp_path / "absent.json"))

    def test_tampered_state_fails_checksum(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        save_checkpoint(str(path), self.make_checkpoint())
        document = json.loads(path.read_text())
        document["state"]["cumulative_energy"] = 999.0
        path.write_text(json.dumps(document))
        with pytest.raises(SerializationError, match="checksum"):
            load_checkpoint(str(path))

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        save_checkpoint(str(path), self.make_checkpoint())
        path.write_text(path.read_text()[:100])
        with pytest.raises(SerializationError, match="not valid JSON"):
            load_checkpoint(str(path))

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        save_checkpoint(str(path), self.make_checkpoint())
        document = json.loads(path.read_text())
        document["version"] = CHECKPOINT_VERSION + 1
        path.write_text(json.dumps(document))
        with pytest.raises(SerializationError, match="version"):
            load_checkpoint(str(path))

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps({"schema": "other", "state": {}}))
        with pytest.raises(SerializationError, match="schema"):
            load_checkpoint(str(path))

    def test_no_tmp_droppings(self, tmp_path):
        save_checkpoint(
            str(tmp_path / "checkpoint.json"), self.make_checkpoint()
        )
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]


class TestTrainerCheckpointing:
    def test_checkpoint_every_validation(self):
        with pytest.raises(ConfigurationError, match="checkpoint_every"):
            TrainerConfig(checkpoint_every=0)

    def test_stop_after_validation(self):
        trainer = make_trainer()
        with pytest.raises(ConfigurationError, match="stop_after"):
            trainer.run(stop_after=0)

    def test_run_writes_checkpoints(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        trainer = make_trainer(checkpoint_path=str(path))
        trainer.run()
        assert path.exists()
        checkpoint = load_checkpoint(str(path))
        assert checkpoint.round_index == 5
        assert trainer.last_checkpoint is not None
        assert trainer.last_checkpoint.round_index == 5

    def test_stop_after_pauses_without_final_round_semantics(self):
        reference = make_trainer().run()
        trainer = make_trainer()
        partial = trainer.run(stop_after=3)
        assert len(partial) == 3
        # The paused history is a prefix of the full run's (round 3 is
        # not treated as the run's last round, so no forced eval).
        assert partial.records == reference.records[:3]

    @pytest.mark.parametrize("strategy", ["helcfl", "classic", "fedcs"])
    @pytest.mark.parametrize("cut_round", [2, 4])
    def test_resume_is_bitwise_identical(self, strategy, cut_round):
        reference = make_trainer(strategy=strategy).run()
        paused = make_trainer(strategy=strategy)
        paused.run(stop_after=cut_round)
        checkpoint = paused.last_checkpoint
        assert checkpoint.round_index == cut_round
        resumed_trainer = make_trainer(strategy=strategy)
        resumed = resumed_trainer.run(resume_from=checkpoint)
        assert resumed.to_json() == reference.to_json()

    def test_resume_under_different_strategy_refused(self):
        paused = make_trainer(strategy="helcfl")
        paused.run(stop_after=2)
        other = make_trainer(strategy="classic")
        with pytest.raises(ConfigurationError, match="written by"):
            other.run(resume_from=paused.last_checkpoint)

    def test_resume_past_round_budget_refused(self):
        paused = make_trainer()
        paused.run(stop_after=4)
        short = make_trainer(rounds=3)
        with pytest.raises(ConfigurationError, match="past"):
            short.run(resume_from=paused.last_checkpoint)

    def test_resume_from_wrong_type_refused(self):
        trainer = make_trainer()
        with pytest.raises(ConfigurationError, match="TrainerCheckpoint"):
            trainer.run(resume_from={"round_index": 2})

    def test_schema_constant_matches_docs(self):
        assert CHECKPOINT_SCHEMA == "repro.trainer-checkpoint"
        assert CHECKPOINT_VERSION == 1
