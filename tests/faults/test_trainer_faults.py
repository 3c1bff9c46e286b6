"""Integration tests: the trainer under injected faults.

Covers the fault subsystem's acceptance contract:

* an **empty plan is a strict no-op** — histories are bitwise identical
  to running without faults, under every execution backend;
* a **seeded plan is deterministic** — identical histories across
  repeat runs and across backends;
* a before-compute dropout makes the DVFS slack schedule **recompute
  over the survivors** (second frequency assignment, changed successor
  frequencies, reflected in the energy ledger);
* FedCS-style **over-selection** absorbs dropouts so the aggregate
  keeps its planned size;
* the **round deadline** cuts off clients as ``"timeout"`` without
  derailing the run;
* **battery death** empties the victim's battery and (with
  ``enforce_battery``) keeps it out of later rounds.
"""

import numpy as np
import pytest

from repro.baselines.classic import RandomSelection
from repro.core.frequency import HelcflDvfsPolicy
from repro.data.dataset import ArrayDataset
from repro.devices.battery import Battery
from repro.errors import ConfigurationError
from repro.faults import (
    BatteryDeathFault,
    ChannelFault,
    DropoutFault,
    FaultInjector,
    FaultPlan,
    StragglerFault,
)
from repro.fl.execution import create_backend
from repro.fl.server import FederatedServer
from repro.fl.strategy import FullParticipation
from repro.fl.trainer import FederatedTrainer, TrainerConfig
from repro.nn.architectures import build_mlp
from repro.obs import CollectingSink, RunObserver
from tests.conftest import make_heterogeneous_devices

BACKENDS = ["serial", "thread", "process", "process+shm"]


def make_setup(num_devices=8, seed=3):
    devices = make_heterogeneous_devices(num_devices, seed=seed)
    rng = np.random.default_rng(seed + 50)
    test = ArrayDataset(rng.normal(size=(40, 4)), rng.integers(0, 3, size=40))
    model = build_mlp(4, 3, hidden_sizes=(8,), seed=seed)
    server = FederatedServer(model, test_dataset=test, payload_bits=1e6)
    return server, devices


def run_training(
    faults=None,
    backend=None,
    observer=None,
    selection=None,
    frequency_policy=None,
    num_devices=8,
    seed=3,
    **config_kwargs,
):
    """One short training run; returns ``(history, trainer)``."""
    server, devices = make_setup(num_devices=num_devices, seed=seed)
    defaults = dict(rounds=4, bandwidth_hz=2e6, learning_rate=0.2)
    defaults.update(config_kwargs)
    trainer = FederatedTrainer(
        server=server,
        devices=devices,
        selection=selection or RandomSelection(0.5, seed=1),
        frequency_policy=frequency_policy,
        config=TrainerConfig(**defaults),
        backend=backend,
        observer=observer,
        faults=faults,
    )
    return trainer.run(), trainer


def lossy_plan(seed=11):
    """Every fault type at rates that fire within a few rounds."""
    return FaultPlan(
        seed=seed,
        faults=(
            DropoutFault(phase="before_compute", probability=0.15),
            DropoutFault(
                phase="during_compute", progress=0.6, probability=0.1
            ),
            StragglerFault(slowdown=2.0, probability=0.2),
            ChannelFault(mode="degrade", rate_scale=0.5, probability=0.2),
            ChannelFault(mode="outage", probability=0.1),
        ),
    )


class TestFaultsArgument:
    def test_rejects_non_plan(self):
        with pytest.raises(ConfigurationError, match="faults"):
            run_training(faults={"seed": 0})

    def test_accepts_prebuilt_injector(self):
        plan = FaultPlan(
            seed=0,
            faults=(DropoutFault(device_id=0, probability=1.0),),
        )
        history, trainer = run_training(faults=FaultInjector(plan))
        assert trainer.fault_injector.plan is plan
        assert len(history) == 4

    def test_sl_baseline_rejects_faults(self):
        from repro.experiments.runner import run_strategy
        from repro.experiments.settings import ExperimentSettings

        with pytest.raises(ConfigurationError, match="sl"):
            run_strategy(
                "sl",
                ExperimentSettings.quick(rounds=2),
                iid=True,
                faults=FaultPlan(seed=0),
            )


class TestEmptyPlanParity:
    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_bitwise_identical_to_no_faults(self, backend_name):
        with create_backend(backend_name, workers=2) as backend:
            baseline, _ = run_training(faults=None, backend=backend)
        with create_backend(backend_name, workers=2) as backend:
            empty, _ = run_training(faults=FaultPlan(seed=123), backend=backend)
        assert empty.to_dict() == baseline.to_dict()

    def test_empty_plan_emits_no_chaos_events(self):
        sink = CollectingSink()
        run_training(
            faults=FaultPlan(seed=5), observer=RunObserver(sink=sink)
        )
        for kind in ("fault_injected", "client_dropped", "round_degraded"):
            assert sink.of_kind(kind) == []


class TestSeededPlanDeterminism:
    def test_repeat_runs_are_identical(self):
        first, _ = run_training(faults=lossy_plan(), rounds=6)
        second, _ = run_training(faults=lossy_plan(), rounds=6)
        assert first.to_dict() == second.to_dict()
        assert any(r.dropped_ids for r in first.records)

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_backends_agree_under_chaos(self, backend_name):
        serial, _ = run_training(faults=lossy_plan(), rounds=5)
        with create_backend(backend_name, workers=2) as backend:
            other, _ = run_training(
                faults=lossy_plan(), backend=backend, rounds=5
            )
        assert other.to_dict() == serial.to_dict()


class TestDropoutRecomputesFrequencies:
    """A before-compute dropout re-plans the Algorithm 3 slack chain."""

    def chain_runs(self):
        kwargs = dict(
            selection=FullParticipation(),
            frequency_policy=HelcflDvfsPolicy(),
            num_devices=5,
            rounds=3,
        )
        # Drop the Algorithm 3 chain head (fastest compute at f_max):
        # its upload slot anchored every successor's schedule.
        devices = make_heterogeneous_devices(5, seed=3)
        victim = min(
            devices,
            key=lambda d: (d.compute_delay(d.cpu.f_max), d.device_id),
        ).device_id
        clean, _ = run_training(**kwargs)
        plan = FaultPlan(
            faults=(
                DropoutFault(
                    phase="before_compute",
                    device_id=victim,
                    rounds=(2,),
                    probability=1.0,
                ),
            ),
        )
        sink = CollectingSink()
        chaos, trainer = run_training(
            faults=plan, observer=RunObserver(sink=sink), **kwargs
        )
        return clean, chaos, trainer, sink, victim

    def test_survivor_frequencies_are_replanned(self):
        clean, chaos, _, sink, victim = self.chain_runs()
        record = chaos.records[1]
        assert record.dropped_ids == (victim,)
        assert victim not in record.frequencies
        # The slack chain was planned around the victim's upload slot;
        # without it at least one successor's frequency must move.
        clean_record = clean.records[1]
        survivors = set(record.frequencies)
        assert any(
            record.frequencies[d] != clean_record.frequencies[d]
            for d in survivors
        )
        # Untouched rounds stay bitwise identical.
        assert chaos.records[0].frequencies == clean.records[0].frequencies
        assert chaos.records[2].frequencies == clean.records[2].frequencies
        reassignments = [
            e.round_index
            for e in sink.of_kind("span_start")
            if e.name == "frequency_reassignment"
        ]
        assert reassignments == [2]

    def test_degraded_round_event_marks_reassignment(self):
        _, chaos, _, sink, victim = self.chain_runs()
        assignments = [
            e
            for e in sink.of_kind("frequency_assignment")
            if e.round_index == 2
        ]
        assert len(assignments) == 2
        assert victim in assignments[0].frequencies
        assert victim not in assignments[1].frequencies
        degraded = sink.of_kind("round_degraded")
        assert len(degraded) == 1
        event = degraded[0]
        assert event.round_index == 2
        assert event.reassigned_frequencies
        assert event.dropped_ids == (victim,)
        assert event.aggregated == event.planned - 1
        drops = sink.of_kind("client_dropped")
        assert [(e.device_id, e.cause, e.phase) for e in drops] == [
            (victim, "dropout", "before_compute")
        ]

    def test_victim_spends_nothing_in_the_ledger(self):
        clean, chaos, trainer, _, victim = self.chain_runs()
        spent = trainer.ledger.devices[victim]
        # The victim sat out round 2 entirely: 2 of 3 rounds recorded,
        # and no energy at all was charged for the skipped round.
        assert spent.rounds == 2
        assert chaos.records[1].round_energy < clean.records[1].round_energy


class TestOverSelection:
    def test_margin_pads_selection_and_caps_aggregation(self):
        bare, _ = run_training(rounds=2)
        target = len(bare.records[0].selected_ids)
        sink = CollectingSink()
        padded, _ = run_training(
            rounds=2,
            over_select_margin=2,
            observer=RunObserver(sink=sink),
        )
        record = padded.records[0]
        assert len(record.selected_ids) == target + 2
        assert record.selected_ids[:target] == bare.records[0].selected_ids
        # Nobody dropped, so exactly the first N survivors aggregate.
        for event in sink.of_kind("aggregation"):
            assert event.num_updates == target

    def test_margin_absorbs_a_dropout(self):
        bare, _ = run_training(rounds=2)
        victim = bare.records[0].selected_ids[0]
        target = len(bare.records[0].selected_ids)
        plan = FaultPlan(
            faults=(
                DropoutFault(
                    phase="before_compute",
                    device_id=victim,
                    rounds=(1,),
                    probability=1.0,
                ),
            ),
        )
        sink = CollectingSink()
        history, _ = run_training(
            rounds=2,
            faults=plan,
            over_select_margin=2,
            observer=RunObserver(sink=sink),
        )
        assert history.records[0].dropped_ids == (victim,)
        aggregations = {
            e.round_index: e for e in sink.of_kind("aggregation")
        }
        # The margin keeps the aggregate at its planned size.
        assert aggregations[1].num_updates == target
        degraded = {
            e.round_index: e for e in sink.of_kind("round_degraded")
        }
        assert degraded[1].planned == target + 2
        assert degraded[1].aggregated == target

    def test_margin_never_exceeds_population(self):
        history, _ = run_training(
            rounds=1, num_devices=6, over_select_margin=50
        )
        assert len(history.records[0].selected_ids) == 6


class TestRoundDeadline:
    def test_slow_clients_time_out(self):
        clean, _ = run_training(rounds=3, selection=FullParticipation())
        deadline = 0.6 * clean.records[0].round_delay
        sink = CollectingSink()
        cut, _ = run_training(
            rounds=3,
            selection=FullParticipation(),
            round_deadline_s=deadline,
            observer=RunObserver(sink=sink),
        )
        record = cut.records[0]
        assert record.timeout_ids, "expected the deadline to cut someone off"
        assert not record.dropped_ids
        assert record.round_delay <= deadline + 1e-9
        survivors = len(record.selected_ids) - len(record.timeout_ids)
        aggregations = {
            e.round_index: e for e in sink.of_kind("aggregation")
        }
        assert aggregations[1].num_updates == survivors
        drops = [
            e for e in sink.of_kind("client_dropped") if e.round_index == 1
        ]
        assert {e.device_id for e in drops} == set(record.timeout_ids)
        assert all(e.cause == "round_deadline" for e in drops)
        degraded = {
            e.round_index: e for e in sink.of_kind("round_degraded")
        }
        assert degraded[1].timeout_ids == record.timeout_ids
        assert not degraded[1].reassigned_frequencies

    def test_loose_deadline_is_a_no_op(self):
        baseline, _ = run_training(rounds=3)
        loose, _ = run_training(rounds=3, round_deadline_s=1e9)
        assert loose.to_dict() == baseline.to_dict()


class TestBatteryDeath:
    def with_batteries(self, **kwargs):
        server, devices = make_setup(num_devices=5, seed=3)
        for device in devices:
            device.battery = Battery(capacity_joules=1e6)
        trainer = FederatedTrainer(
            server=server,
            devices=devices,
            selection=FullParticipation(),
            config=TrainerConfig(
                rounds=3,
                bandwidth_hz=2e6,
                learning_rate=0.2,
                enforce_battery=True,
            ),
            **kwargs,
        )
        return trainer.run(), devices

    def test_death_empties_battery_and_drops_future_rounds(self):
        victim = 2
        plan = FaultPlan(
            faults=(
                BatteryDeathFault(
                    device_id=victim, rounds=(2,), probability=1.0
                ),
            ),
        )
        sink = CollectingSink()
        history, devices = self.with_batteries(
            faults=plan, observer=RunObserver(sink=sink)
        )
        assert devices[victim].battery.is_depleted
        assert history.records[0].dropped_ids == ()
        # Round 2: the battery empties at round end, the update is lost.
        assert victim in history.records[1].dropped_ids
        # Round 3: with enforce_battery a dead device cannot pay and
        # stays out of the aggregate.
        assert victim in history.records[2].dropped_ids
        causes = {
            (e.round_index, e.device_id): e.cause
            for e in sink.of_kind("client_dropped")
        }
        assert causes[(2, victim)] == "battery_death"
        assert causes[(3, victim)] == "battery"

    def test_batteryless_device_still_loses_the_round(self):
        victim = 1
        plan = FaultPlan(
            faults=(
                BatteryDeathFault(
                    device_id=victim, rounds=(1,), probability=1.0
                ),
            ),
        )
        history, _ = run_training(
            faults=plan, selection=FullParticipation(), num_devices=4
        )
        assert victim in history.records[0].dropped_ids
        assert history.records[1].dropped_ids == ()


class TestPerturbationPhysics:
    def test_straggler_changes_time_and_energy_only(self):
        clean, _ = run_training(rounds=3, selection=FullParticipation())
        plan = FaultPlan(
            faults=(StragglerFault(slowdown=3.0, probability=1.0),),
        )
        slow, _ = run_training(
            rounds=3, selection=FullParticipation(), faults=plan
        )
        for fast_r, slow_r in zip(clean.records, slow.records):
            # Every update still arrives: the training math is untouched.
            assert slow_r.dropped_ids == ()
            assert slow_r.train_loss == fast_r.train_loss
            assert slow_r.test_accuracy == fast_r.test_accuracy
            # But the stretched compute costs real time and energy.
            assert slow_r.round_delay > fast_r.round_delay
            assert slow_r.compute_energy > fast_r.compute_energy

    def test_outage_loses_the_update_but_not_the_compute_energy(self):
        clean, clean_trainer = run_training(
            rounds=2, selection=FullParticipation()
        )
        victim = clean.records[0].selected_ids[0]
        plan = FaultPlan(
            faults=(
                ChannelFault(
                    mode="outage",
                    device_id=victim,
                    rounds=(1,),
                    probability=1.0,
                ),
            ),
        )
        lossy, trainer = run_training(
            rounds=2, selection=FullParticipation(), faults=plan
        )
        record = lossy.records[0]
        assert record.dropped_ids == (victim,)
        spent = trainer.ledger.devices[victim]
        clean_spent = clean_trainer.ledger.devices[victim]
        # The outage fires at the channel grant: full compute energy
        # both rounds, but round 1's upload energy was never paid.
        assert spent.compute_joules == clean_spent.compute_joules
        assert spent.upload_joules == pytest.approx(
            clean_spent.upload_joules / 2
        )
