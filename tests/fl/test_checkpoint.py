"""Tests for atomic checksummed trainer checkpoints and trainer resume."""

import hashlib
import json

import numpy as np
import pytest

from repro import wire
from repro.energy.accounting import EnergyLedger
from repro.errors import ConfigurationError, SerializationError
from repro.experiments.runner import build_environment, build_trainer
from repro.experiments.settings import ExperimentSettings
from repro.fl.checkpoint import (
    CHECKPOINT_SCHEMA,
    CHECKPOINT_VERSION,
    HistoryLog,
    TrainerCheckpoint,
    history_path,
    load_checkpoint,
    save_checkpoint,
)
from repro.fl.execution import create_backend
from repro.fl.history import RoundRecord
from repro.fl.trainer import TrainerConfig
from repro.wire import decode_array, encode_array
from tests.kill import run_killed_after
from tests.oracles.checkpoint_v1 import save_checkpoint_v1


def tiny_settings(seed=0):
    return ExperimentSettings.quick(
        seed=seed,
        num_users=6,
        rounds=5,
        train_size=96,
        test_size=32,
    )


def make_trainer(
    seed=0, strategy="helcfl", checkpoint_path=None, backend=None, **overrides
):
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
        backend=backend,
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


def record(index):
    return RoundRecord(
        round_index=index,
        selected_ids=(3, 1),
        frequencies={3: 1.5e9, 1: 1.0e9 + index},
        round_delay=2.5,
        round_energy=1.25,
        compute_energy=1.0,
        upload_energy=0.25,
        slack=0.5,
        cumulative_time=2.5 * index,
        cumulative_energy=1.25 * index,
        train_loss=2.0,
    )


def make_checkpoint(rounds=3, records=None):
    return TrainerCheckpoint(
        round_index=rounds,
        label="test",
        strategy_class="HelcflSelection",
        model_params=np.arange(8.0),
        cumulative_time=12.5,
        cumulative_energy=3.25,
        ledger=EnergyLedger().column_state(),
        device_ids=np.array([0, 1, 2]),
        channel_gains=np.array([1.0, 0.8, np.nan]),
        battery_charges=np.array([90.0, np.nan, 45.5]),
        selection_state={"appearance_counts": {"0": 2}},
        plateau={"best": 0.5, "stale_count": 1, "converged": False},
        records=[record(i) for i in range(1, rounds + 1)] if records is None else records,
    )


def bitwise(array):
    return None if array is None else (array.dtype, array.tobytes())


def assert_same_state(loaded, checkpoint):
    assert loaded.to_state() == checkpoint.to_state()
    for name in ("model_params", "device_ids", "channel_gains", "battery_charges"):
        assert bitwise(getattr(loaded, name)) == bitwise(getattr(checkpoint, name))
    assert loaded.history == checkpoint.history


class TestCheckpointFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        checkpoint = make_checkpoint()
        save_checkpoint(str(path), checkpoint)
        loaded = load_checkpoint(str(path))
        assert_same_state(loaded, checkpoint)
        assert loaded.best_model_params is None

    def test_history_log_holds_one_record_per_line(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        checkpoint = make_checkpoint()
        save_checkpoint(str(path), checkpoint)
        log = tmp_path / "checkpoint.history.jsonl"
        assert history_path(str(path)) == str(log)
        assert log.read_text() == "".join(
            json.dumps(wire.dump(r)) + "\n" for r in checkpoint.history
        )
        state = json.loads(path.read_text())["state"]
        assert state["history"] == {
            "lines": 3,
            "size": log.stat().st_size,
            "sha256": hashlib.sha256(log.read_bytes()).hexdigest(),
        }
        assert "records" not in state

    def test_rewrite_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(str(a), make_checkpoint())
        save_checkpoint(str(b), make_checkpoint())
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.history.jsonl").read_bytes() == (
            tmp_path / "b.history.jsonl"
        ).read_bytes()

    def test_bytes_do_not_grow_with_the_round_count(self, tmp_path):
        sizes = []
        for rounds in (1, 10, 100):
            path = tmp_path / f"r{rounds}.json"
            save_checkpoint(str(path), make_checkpoint(rounds))
            sizes.append(path.stat().st_size)
        # Only the digits of the round index and the log's size move.
        assert max(sizes) - min(sizes) <= 8

    def test_next_save_of_a_run_only_appends(self, tmp_path, monkeypatch):
        path = str(tmp_path / "checkpoint.json")
        records = [record(i) for i in range(1, 6)]
        log = HistoryLog()
        save_checkpoint(path, make_checkpoint(3, records[:3]), log)
        before = (tmp_path / "checkpoint.history.jsonl").read_bytes()
        encoded = []
        line = RoundRecord.__line__.line
        monkeypatch.setattr(
            RoundRecord.__line__, "line", lambda r: encoded.append(r) or line(r)
        )
        save_checkpoint(path, make_checkpoint(5, records), log)
        assert encoded == records[3:]
        after = (tmp_path / "checkpoint.history.jsonl").read_bytes()
        assert after.startswith(before) and after.count(b"\n") == 5
        assert load_checkpoint(path).history == tuple(records)

    def test_a_log_changed_behind_the_run_is_rewritten(self, tmp_path):
        path = str(tmp_path / "checkpoint.json")
        records = [record(i) for i in range(1, 5)]
        log = HistoryLog()
        save_checkpoint(path, make_checkpoint(2, records[:2]), log)
        with open(history_path(path), "a") as handle:
            handle.write('{"round_index": 3, "sel')
        save_checkpoint(path, make_checkpoint(4, records), log)
        assert load_checkpoint(path).history == tuple(records)
        assert open(history_path(path)).read().count("\n") == 4

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(str(tmp_path / "absent.json"))

    def test_tampered_state_fails_checksum(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        save_checkpoint(str(path), make_checkpoint())
        document = json.loads(path.read_text())
        document["state"]["cumulative_energy"] = 999.0
        path.write_text(json.dumps(document))
        with pytest.raises(SerializationError, match="checksum"):
            load_checkpoint(str(path))

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        save_checkpoint(str(path), make_checkpoint())
        path.write_text(path.read_text()[:100])
        with pytest.raises(SerializationError, match="not valid JSON"):
            load_checkpoint(str(path))

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        save_checkpoint(str(path), make_checkpoint())
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
        save_checkpoint(str(tmp_path / "checkpoint.json"), make_checkpoint())
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "checkpoint.history.jsonl",
            "checkpoint.json",
        ]

    def test_version_1_file_loads_with_its_inline_history(self, tmp_path):
        path = str(tmp_path / "checkpoint.json")
        checkpoint = make_checkpoint()
        save_checkpoint_v1(path, checkpoint)
        loaded = load_checkpoint(path)
        assert loaded.history == checkpoint.history
        assert loaded.to_state()["selection_state"] == checkpoint.selection_state
        assert bitwise(loaded.model_params) == bitwise(checkpoint.model_params)
        ids = loaded.device_ids.tolist()
        gains = dict(zip(ids, loaded.channel_gains.tolist()))
        assert (gains[0], gains[1]) == (1.0, 0.8) and np.isnan(gains[2])
        charges = dict(zip(ids, loaded.battery_charges.tolist()))
        assert (charges[0], charges[2]) == (90.0, 45.5) and np.isnan(charges[1])


class TestHostileHistoryLog:
    """The log beside a checkpoint, torn or tampered with."""

    def saved(self, tmp_path, rounds=3):
        path = tmp_path / "checkpoint.json"
        checkpoint = make_checkpoint(rounds)
        save_checkpoint(str(path), checkpoint)
        return str(path), tmp_path / "checkpoint.history.jsonl", checkpoint

    def test_lines_past_the_count_are_dropped(self, tmp_path):
        path, log, checkpoint = self.saved(tmp_path)
        with open(log, "a") as handle:
            handle.write(json.dumps(wire.dump(record(4))) + "\n")
        assert load_checkpoint(path).history == checkpoint.history

    def test_a_torn_last_line_is_dropped(self, tmp_path):
        path, log, checkpoint = self.saved(tmp_path)
        with open(log, "a") as handle:
            handle.write('{"round_index": 4, "selec')
        assert load_checkpoint(path).history == checkpoint.history

    def test_a_resumed_save_drops_the_tail(self, tmp_path):
        path, log, _ = self.saved(tmp_path)
        with open(log, "a") as handle:
            handle.write('{"round_index": 4, "selec')
        loaded = load_checkpoint(path)
        records = list(loaded.history) + [record(4)]
        save_checkpoint(path, make_checkpoint(4, records))
        assert log.read_text().splitlines() == [
            json.dumps(wire.dump(r)) for r in records
        ]

    def test_prefix_hash_mismatch_raises(self, tmp_path):
        path, log, _ = self.saved(tmp_path)
        log.write_bytes(log.read_bytes().replace(b"1500000000.0", b"1500000001.0", 1))
        loaded = load_checkpoint(path)
        with pytest.raises(SerializationError, match="checksum"):
            loaded.history

    def test_missing_log_raises_on_load(self, tmp_path):
        path, log, _ = self.saved(tmp_path)
        log.unlink()
        with pytest.raises(SerializationError, match="cannot be read"):
            load_checkpoint(path)

    def test_count_larger_than_the_log_raises(self, tmp_path):
        path, log, _ = self.saved(tmp_path)
        log.write_bytes(log.read_bytes().split(b"\n", 1)[0] + b"\n")
        with pytest.raises(SerializationError, match="covers the first"):
            load_checkpoint(path)

    def test_count_larger_than_the_lines_raises(self, tmp_path):
        path, log, _ = self.saved(tmp_path)
        document = json.loads(open(path).read())
        state = document["state"]
        state["history"]["lines"] = 4
        document["sha256"] = hashlib.sha256(
            json.dumps(state, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        open(path, "w").write(json.dumps(document))
        with pytest.raises(SerializationError, match="3 whole rounds"):
            load_checkpoint(path).history

    def test_no_rounds_need_no_log(self, tmp_path):
        path = str(tmp_path / "checkpoint.json")
        save_checkpoint(path, make_checkpoint(0, records=[]))
        assert load_checkpoint(path).history == ()
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]


class TestTrainerCheckpointing:
    def test_checkpoint_every_validation(self):
        with pytest.raises(ConfigurationError, match="checkpoint_every"):
            TrainerConfig(checkpoint_every=0)

    def test_run_writes_checkpoints(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        trainer = make_trainer(checkpoint_path=str(path))
        trainer.run()
        assert path.exists()
        checkpoint = load_checkpoint(str(path))
        assert checkpoint.round_index == 5
        assert trainer.last_checkpoint is not None
        assert trainer.last_checkpoint.round_index == 5

    @pytest.mark.parametrize("strategy", ["helcfl", "classic", "fedcs"])
    @pytest.mark.parametrize("cut_round", [2, 4])
    def test_resume_is_bitwise_identical(self, strategy, cut_round, tmp_path):
        reference = make_trainer(strategy=strategy).run()
        path = str(tmp_path / "checkpoint.json")
        run_killed_after(
            make_trainer(strategy=strategy, checkpoint_path=path), cut_round
        )
        checkpoint = load_checkpoint(path)
        assert checkpoint.round_index == cut_round
        resumed_trainer = make_trainer(strategy=strategy)
        resumed = resumed_trainer.run(resume_from=checkpoint)
        assert resumed.to_json() == reference.to_json()

    def test_resume_under_different_strategy_refused(self, tmp_path):
        path = str(tmp_path / "checkpoint.json")
        run_killed_after(make_trainer(strategy="helcfl", checkpoint_path=path), 2)
        other = make_trainer(strategy="classic")
        with pytest.raises(ConfigurationError, match="written by"):
            other.run(resume_from=load_checkpoint(path))

    def test_resume_past_round_budget_refused(self, tmp_path):
        path = str(tmp_path / "checkpoint.json")
        run_killed_after(make_trainer(checkpoint_path=path), 4)
        short = make_trainer(rounds=3)
        with pytest.raises(ConfigurationError, match="past"):
            short.run(resume_from=load_checkpoint(path))

    def test_resume_from_wrong_type_refused(self):
        trainer = make_trainer()
        with pytest.raises(ConfigurationError, match="TrainerCheckpoint"):
            trainer.run(resume_from={"round_index": 2})

    def test_schema_constant_matches_docs(self):
        assert CHECKPOINT_SCHEMA == "repro.trainer-checkpoint"
        assert CHECKPOINT_VERSION == 2


def wide_trainer(checkpoint_path=None, backend=None):
    """Six clients a round, so ``frequencies`` has a non-sorted key order."""
    settings = ExperimentSettings.quick(
        seed=0, num_users=30, fraction=0.2, rounds=5, train_size=240, test_size=40
    )
    return build_trainer(
        "helcfl",
        settings,
        build_environment(settings, iid=True),
        config_overrides={"checkpoint_every": 1},
        checkpoint_path=checkpoint_path,
        backend=backend,
    )


class TestResumeFromFiles:
    """Kill after a checkpoint (a torn line past it), resume from the files."""

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("reference") / "checkpoint.json"
        history = wide_trainer(str(path)).run()
        return history, (path.parent / "checkpoint.history.jsonl").read_bytes()

    def killed_at(self, tmp_path, cut_round, version):
        path = str(tmp_path / "checkpoint.json")
        run_killed_after(wide_trainer(path), cut_round)
        if version == 1:
            save_checkpoint_v1(path, load_checkpoint(path))
        with open(history_path(path), "a") as handle:
            handle.write('{"round_index": %d, "sel' % (cut_round + 1))
        return path

    @pytest.mark.parametrize("backend", [None, "thread"])
    def test_v2_resume_is_byte_equal(self, tmp_path, reference, backend):
        history, log = reference
        path = self.killed_at(tmp_path, 3, version=2)
        pool = create_backend(backend, workers=2) if backend else None
        try:
            resumed = wide_trainer(path, pool).run(resume_from=load_checkpoint(path))
        finally:
            if pool is not None:
                pool.close()
        assert [list(r.frequencies) for r in resumed.records] == [
            list(r.frequencies) for r in history.records
        ]
        assert resumed.to_json() == history.to_json()
        # The resumed saves cut the torn tail and appended the rest.
        assert (tmp_path / "checkpoint.history.jsonl").read_bytes() == log

    @pytest.mark.parametrize("backend", [None, "thread"])
    def test_v1_resume_matches_all_but_the_lost_key_order(
        self, tmp_path, reference, backend
    ):
        # A version-1 file wrote every map key-sorted, so the rounds it
        # holds come back with sorted `frequencies`; everything else,
        # and every round after it, is byte-equal.
        history, log = reference
        path = self.killed_at(tmp_path, 3, version=1)
        pool = create_backend(backend, workers=2) if backend else None
        try:
            resumed = wide_trainer(path, pool).run(resume_from=load_checkpoint(path))
        finally:
            if pool is not None:
                pool.close()
        assert resumed.records == history.records
        for got, want in zip(resumed.records, history.records):
            if got.round_index <= 3:
                assert list(got.frequencies) == sorted(want.frequencies, key=str)
            else:
                assert json.dumps(wire.dump(got)) == json.dumps(wire.dump(want))
        # Its first save rewrote the log from the records it holds.
        assert (tmp_path / "checkpoint.history.jsonl").read_bytes().splitlines()[3:] == (
            log.splitlines()[3:]
        )
