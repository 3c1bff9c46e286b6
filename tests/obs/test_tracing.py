"""Integration tests: tracing a real training run.

Covers the acceptance contract of the observability layer:

* a traced run's JSONL stream validates against the event schema and
  reconstructs the run's :class:`TrainingHistory` exactly (selected
  ids, frequencies, round delay/energy, dropped ids, stop reason);
* tracing is read-only — history with tracing on is identical to
  tracing off, under every execution backend;
* every stop reason (deadline, target accuracy, plateau, round-budget
  exhaustion) is recorded both in the history and in the trace's
  ``run_stop`` event.
"""

import json

import numpy as np
import pytest

from repro.baselines.classic import RandomSelection
from repro.data.dataset import ArrayDataset
from repro.devices.battery import Battery
from repro.fl.execution import create_backend
from repro.fl.server import FederatedServer
from repro.fl.trainer import FederatedTrainer, TrainerConfig
from repro.nn.architectures import build_mlp
from repro.obs import (
    CollectingSink,
    JsonlTraceSink,
    RunObserver,
    StopReason,
    validate_event,
)
from tests.conftest import make_heterogeneous_devices
from tests.full_participation import FullParticipation


def make_setup(num_devices=5, seed=0):
    devices = make_heterogeneous_devices(num_devices, seed=seed)
    rng = np.random.default_rng(seed + 100)
    test = ArrayDataset(rng.normal(size=(40, 4)), rng.integers(0, 3, size=40))
    model = build_mlp(4, 3, hidden_sizes=(8,), seed=seed)
    server = FederatedServer(model, test_dataset=test, payload_bits=1e6)
    return server, devices


def make_trainer(server, devices, observer=None, backend=None, **config_kwargs):
    defaults = dict(rounds=4, bandwidth_hz=2e6, learning_rate=0.2)
    defaults.update(config_kwargs)
    return FederatedTrainer(
        server=server,
        devices=devices,
        selection=RandomSelection(0.5, seed=0),
        config=TrainerConfig(**defaults),
        label="traced-run",
        observer=observer,
        backend=backend,
    )


def events_by_round(payloads, kind):
    return {p["round_index"]: p for p in payloads if p["event"] == kind}


class TestTraceReconstruction:
    def test_jsonl_trace_reconstructs_history(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        server, devices = make_setup(num_devices=4, seed=3)
        # Batteries afford roughly one round so later rounds drop updates.
        for device in devices:
            round_cost = device.compute_energy() + device.upload_energy(
                1e6, 2e6
            )
            device.battery = Battery(capacity_joules=1.5 * round_cost)
        observer = RunObserver(sink=JsonlTraceSink(str(path)))
        trainer = FederatedTrainer(
            server=server,
            devices=devices,
            selection=FullParticipation(),
            config=TrainerConfig(
                rounds=4,
                bandwidth_hz=2e6,
                learning_rate=0.2,
                enforce_battery=True,
            ),
            label="battery-run",
            observer=observer,
        )
        history = trainer.run()
        observer.close()

        payloads = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        for payload in payloads:
            validate_event(payload)

        selections = events_by_round(payloads, "selection")
        frequencies = events_by_round(payloads, "frequency_assignment")
        timelines = events_by_round(payloads, "timeline")
        drops = events_by_round(payloads, "battery_drop")
        evals = events_by_round(payloads, "eval")

        assert any(drops), "expected at least one battery_drop event"
        for record in history.records:
            j = record.round_index
            assert tuple(selections[j]["selected_ids"]) == record.selected_ids
            assert {
                int(k): v for k, v in frequencies[j]["frequencies"].items()
            } == record.frequencies
            assert timelines[j]["round_delay"] == record.round_delay
            assert timelines[j]["round_energy"] == record.round_energy
            assert timelines[j]["cumulative_time"] == record.cumulative_time
            assert (
                timelines[j]["cumulative_energy"] == record.cumulative_energy
            )
            dropped = drops.get(j, {"dropped_ids": []})["dropped_ids"]
            assert tuple(dropped) == record.dropped_ids
            if record.test_accuracy is not None:
                assert evals[j]["test_accuracy"] == record.test_accuracy
                assert evals[j]["test_loss"] == record.test_loss

        stops = [p for p in payloads if p["event"] == "run_stop"]
        assert len(stops) == 1
        assert stops[0]["reason"] == history.stop_reason
        assert stops[0]["round_index"] == history.records[-1].round_index
        assert stops[0]["label"] == "battery-run"

    def test_aggregation_events_track_surviving_updates(self):
        sink = CollectingSink()
        server, devices = make_setup(num_devices=3, seed=1)
        devices[0].battery = Battery(capacity_joules=1e-9)
        trainer = FederatedTrainer(
            server=server,
            devices=devices,
            selection=FullParticipation(),
            config=TrainerConfig(
                rounds=2, bandwidth_hz=2e6, learning_rate=0.2,
                enforce_battery=True,
            ),
            observer=RunObserver(sink=sink),
        )
        trainer.run()
        for event in sink.of_kind("aggregation"):
            assert event.num_updates == 2  # device 0 always dropped
            expected = float(
                sum(d.num_samples for d in devices[1:])
            )
            assert event.total_weight == expected


class TestDegradedRoundTrace:
    """A faulted run's trace reconstructs its degraded rounds exactly."""

    def run_chaos(self, tmp_path):
        from repro.faults import ChannelFault, DropoutFault, FaultPlan

        path = tmp_path / "chaos.jsonl"
        server, devices = make_setup(num_devices=5, seed=4)
        victims = (devices[1].device_id, devices[3].device_id)
        plan = FaultPlan(
            seed=6,
            faults=(
                DropoutFault(
                    phase="before_compute",
                    device_id=victims[0],
                    rounds=(2,),
                    probability=1.0,
                ),
                ChannelFault(
                    mode="outage",
                    device_id=victims[1],
                    rounds=(3,),
                    probability=1.0,
                ),
            ),
        )
        observer = RunObserver(sink=JsonlTraceSink(str(path)))
        trainer = FederatedTrainer(
            server=server,
            devices=devices,
            selection=FullParticipation(),
            config=TrainerConfig(
                rounds=3, bandwidth_hz=2e6, learning_rate=0.2
            ),
            label="chaos-run",
            observer=observer,
            faults=plan,
        )
        history = trainer.run()
        observer.close()
        payloads = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        for payload in payloads:
            validate_event(payload)
        return history, payloads, victims

    def test_trace_reconstructs_degraded_rounds(self, tmp_path):
        history, payloads, victims = self.run_chaos(tmp_path)

        injected = [p for p in payloads if p["event"] == "fault_injected"]
        assert [(p["round_index"], p["device_id"], p["fault"]) for p in injected] == [
            (2, victims[0], "dropout"),
            (3, victims[1], "channel"),
        ]

        # Every dropped id in the history is explained by exactly one
        # client_dropped event of the same round, and vice versa.
        drops_by_round = {}
        for p in payloads:
            if p["event"] == "client_dropped":
                drops_by_round.setdefault(p["round_index"], []).append(p)
        for record in history.records:
            dropped = drops_by_round.get(record.round_index, [])
            assert tuple(p["device_id"] for p in dropped) == record.dropped_ids
        assert drops_by_round[2][0]["cause"] == "dropout"
        assert drops_by_round[2][0]["phase"] == "before_compute"
        assert drops_by_round[3][0]["cause"] == "channel_outage"
        assert drops_by_round[3][0]["phase"] == "upload"

        # round_degraded reconciles the planned selection with the
        # partial aggregate the server actually integrated.
        degraded = events_by_round(payloads, "round_degraded")
        selections = events_by_round(payloads, "selection")
        aggregations = events_by_round(payloads, "aggregation")
        assert set(degraded) == {2, 3}
        for j, event in degraded.items():
            assert event["planned"] == len(selections[j]["selected_ids"])
            assert event["aggregated"] == aggregations[j]["num_updates"]
            assert event["aggregated"] == event["planned"] - 1
            assert tuple(event["dropped_ids"]) == history.records[
                j - 1
            ].dropped_ids
            assert event["timeout_ids"] == []
        # Only the before-compute dropout re-plans the DVFS schedule.
        assert degraded[2]["reassigned_frequencies"] is True
        assert degraded[3]["reassigned_frequencies"] is False

    def test_clean_rounds_emit_no_degradation(self, tmp_path):
        _, payloads, _ = self.run_chaos(tmp_path)
        degraded = events_by_round(payloads, "round_degraded")
        assert 1 not in degraded


class TestCrashedRunTrace:
    """A raising round still leaves a complete, validating trace."""

    def test_trace_tail_survives_a_mid_round_crash(self, tmp_path):
        path = tmp_path / "crash.jsonl"
        server, devices = make_setup(num_devices=4, seed=1)

        calls = {"n": 0}
        original = server.evaluate

        def failing_evaluate(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise RuntimeError("simulated mid-round failure")
            return original(*args, **kwargs)

        server.evaluate = failing_evaluate
        observer = RunObserver(sink=JsonlTraceSink(str(path)))
        trainer = make_trainer(server, devices, observer=observer, rounds=5)
        with pytest.raises(RuntimeError, match="simulated"):
            try:
                trainer.run()
            finally:
                observer.close()

        payloads = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert payloads, "the trace must not be empty"
        for payload in payloads:
            validate_event(payload)
        assert payloads[-1]["event"] == "run_stop"
        assert payloads[-1]["reason"] == StopReason.ERROR.value
        assert payloads[-1]["round_index"] == 2

    def test_sink_close_is_idempotent_after_crash(self, tmp_path):
        sink = JsonlTraceSink(str(tmp_path / "t.jsonl"))
        sink.close()
        sink.close()  # must not raise


class TestTracingIsReadOnly:
    @pytest.mark.parametrize("backend_name", ["serial", "thread", "process"])
    def test_history_parity_tracing_on_vs_off(self, backend_name, tmp_path):
        kwargs = dict(rounds=2, batch_size=8)

        server1, devices1 = make_setup(seed=5)
        with create_backend(backend_name, workers=2) as backend:
            plain = make_trainer(
                server1, devices1, backend=backend, **kwargs
            ).run()

        server2, devices2 = make_setup(seed=5)
        observer = RunObserver(
            sink=JsonlTraceSink(str(tmp_path / "trace.jsonl"))
        )
        with create_backend(backend_name, workers=2) as backend:
            traced = make_trainer(
                server2, devices2, observer=observer, backend=backend, **kwargs
            ).run()
        observer.close()

        assert traced.to_dict() == plain.to_dict()


class TestStopReasons:
    def run_with(self, sink=None, **config_kwargs):
        server, devices = make_setup(num_devices=5, seed=2)
        observer = RunObserver(sink=sink or CollectingSink())
        trainer = make_trainer(server, devices, observer=observer, **config_kwargs)
        history = trainer.run()
        stops = observer.sink.of_kind("run_stop")
        assert len(stops) == 1
        assert stops[0].reason == history.stop_reason
        return history, stops[0]

    def test_rounds_exhausted(self):
        history, stop = self.run_with(rounds=3)
        assert history.stop_reason == StopReason.ROUNDS_EXHAUSTED.value
        assert len(history) == 3
        assert stop.round_index == 3

    def test_deadline(self):
        history, _ = self.run_with(rounds=10, deadline_s=1e-6)
        assert history.stop_reason == StopReason.DEADLINE.value
        assert len(history) == 1

    def test_target_accuracy(self):
        history, _ = self.run_with(rounds=50, target_accuracy=0.05)
        assert history.stop_reason == StopReason.TARGET_ACCURACY.value
        assert len(history) < 50
        assert history.best_accuracy >= 0.05

    def test_plateau(self):
        history, _ = self.run_with(
            rounds=50,
            convergence_patience=1,
            convergence_min_delta=1e9,
        )
        assert history.stop_reason == StopReason.PLATEAU.value
        assert len(history) == 2  # first eval seeds, second stalls

    def test_stop_reason_final_cumulative_totals(self):
        history, stop = self.run_with(rounds=3)
        assert stop.cumulative_time == history.total_time
        assert stop.cumulative_energy == history.total_energy


class TestRunMetrics:
    """What a run did, counted from its trace alone."""

    STAGES = ("selection", "frequency_assignment", "local_updates", "aggregation")

    @pytest.fixture(scope="class")
    def traced(self):
        server, devices = make_setup()
        observer = RunObserver(sink=CollectingSink())
        trainer = make_trainer(server, devices, observer=observer, rounds=3, eval_every=2)
        history = trainer.run()
        return history, observer.sink, trainer.ledger

    @pytest.mark.parametrize("stage", STAGES)
    def test_one_stage_span_per_round(self, traced, stage):
        history, sink, _ = traced
        rounds = [
            e.round_index for e in sink.of_kind("span_start") if e.name == stage
        ]
        assert rounds == [r.round_index for r in history.records]

    def test_rounds_are_timeline_events(self, traced):
        history, sink, _ = traced
        assert len(sink.of_kind("timeline")) == len(history) == 3

    def test_evaluations_are_eval_events(self, traced):
        history, sink, _ = traced
        evaluated = [r.round_index for r in history.records if r.test_accuracy is not None]
        assert [e.round_index for e in sink.of_kind("eval")] == evaluated == [2, 3]

    def test_trained_clients_are_task_spans(self, traced):
        history, sink, _ = traced
        tasks = [e for e in sink.of_kind("span_start") if e.name == "task"]
        assert len(tasks) == sum(len(r.selected_ids) for r in history.records)

    def test_energy_is_the_timeline_sum(self, traced):
        history, sink, ledger = traced
        timelines = sink.of_kind("timeline")
        assert [e.compute_energy for e in timelines] == [
            r.compute_energy for r in history.records
        ]
        assert [e.upload_energy for e in timelines] == [
            r.upload_energy for r in history.records
        ]
        assert sum(e.compute_energy for e in timelines) == pytest.approx(
            float(ledger.compute_joules.sum())
        )
        assert ledger.rounds_recorded == len(timelines)
