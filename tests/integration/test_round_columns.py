"""The round's per-client numbers come from columns, with the same bits.

A trainer reads every run's per-client numbers from one fleet snapshot
(the environment's :class:`DevicePopulation`, kept in step with the
gains the trainer moves on the devices) instead of re-reading its
devices, and a round's result is three aligned columns instead of one
record object per client. Checked here, bit for bit:

(a) the run-start population equals ``DevicePopulation.from_devices``
    over the trainer's devices as they stand — fresh, on a second run
    after per-round fading, on a resume from a checkpoint that carries
    gains, and on a fleet with batteries, whose charges (also of a
    battery attached after the trainer was built) are checkpointed;
(b) the round result's ids, ``|D_q|`` weights and losses equal the
    per-client records (ids in selection order, ``float(|D_q|)``,
    each client trained alone) under every in-process and shm backend;
(c) ``run_round`` over a plain device list, the way a caller without a
    population calls it, still has a length and yields items with
    ``.loss``.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.devices.battery import Battery
from repro.devices.population import DevicePopulation
from repro.errors import ConfigurationError, DeviceError
from repro.experiments.runner import build_environment, build_trainer
from repro.experiments.settings import ExperimentSettings
from repro.fl.execution import RoundResult, SerialBackend, create_backend
from repro.fl.trainer import FederatedTrainer
from repro.network.channel import RayleighFadingChannel

COLUMNS = (
    "device_ids",
    "f_min",
    "f_max",
    "cycles_per_sample",
    "switched_capacitance",
    "num_samples",
    "cycles",
    "transmit_power",
    "channel_gain",
    "noise_power",
    "ladder_sizes",
    "log2_snr1",
)


def settings(**overrides):
    return ExperimentSettings.quick(seed=3, rounds=3, **overrides)


def assert_same_population(got, want):
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    if want.ladder is None:
        assert got.ladder is None
    else:
        assert got.ladder.tobytes() == want.ladder.tobytes()


def run_start_population(trainer, resume_from=None):
    """The population a run starts from, before its first round."""
    trainer._begin_run(resume_from)
    return trainer.population


class TestRunStartPopulation:
    def test_fresh_environment(self):
        env = build_environment(settings(), iid=True)
        trainer = build_trainer("helcfl", settings(), env)
        want = DevicePopulation.from_devices(trainer.devices)
        assert_same_population(run_start_population(trainer), want)
        assert trainer.population is env.population

    def test_second_run_after_fading(self):
        env = build_environment(settings(), iid=True)
        trainer = build_trainer("helcfl", settings(), env)
        trainer.channel_models = {
            device.device_id: RayleighFadingChannel(seed=100 + device.device_id)
            for device in env.devices[::3]
        }
        before = [d.radio.channel_gain for d in env.devices]
        trainer.run()
        assert [d.radio.channel_gain for d in env.devices] != before
        want = DevicePopulation.from_devices(trainer.devices)
        assert_same_population(run_start_population(trainer), want)
        # Another trainer over the environment starts from the faded gains.
        other = build_trainer("helcfl", settings(), env)
        assert_same_population(run_start_population(other), want)

    def test_resume_from_checkpoint_with_gains(self):
        env = build_environment(settings(), iid=True)
        first = build_trainer("helcfl", settings(), env)
        first.run()
        checkpoint = first.last_checkpoint
        gains = checkpoint.channel_gains.copy()
        gains[::2] *= 1.5
        gains[1] = math.nan  # not captured: the device keeps its gain
        checkpoint = dataclasses.replace(
            checkpoint, round_index=1, channel_gains=gains, records=checkpoint.history[:1]
        )
        kept = env.devices[1].radio.channel_gain
        trainer = build_trainer("helcfl", settings(), env)
        population = run_start_population(trainer, checkpoint)
        assert env.devices[0].radio.channel_gain == gains[0]
        assert env.devices[1].radio.channel_gain == kept
        assert_same_population(population, DevicePopulation.from_devices(trainer.devices))

    def test_refused_checkpoint_gain_moves_nothing(self):
        env = build_environment(settings(), iid=True)
        first = build_trainer("helcfl", settings(), env)
        first.run()
        checkpoint = first.last_checkpoint
        gains = checkpoint.channel_gains.copy()
        gains[0] *= 1.5  # valid, but it lands beside a refused one
        gains[2] = -1.0
        checkpoint = dataclasses.replace(
            checkpoint, round_index=1, channel_gains=gains, records=checkpoint.history[:1]
        )
        radios = [d.radio.channel_gain for d in env.devices]
        trainer = build_trainer("helcfl", settings(), env)
        want = DevicePopulation.from_devices(trainer.devices)
        with pytest.raises(DeviceError, match="finite and positive"):
            run_start_population(trainer, checkpoint)
        assert [d.radio.channel_gain for d in env.devices] == radios
        assert_same_population(trainer.population, want)

    def test_battery_fleet(self):
        env = build_environment(settings(), iid=True)
        for device in env.devices[::2]:
            device.battery = Battery(capacity_joules=50.0)
        trainer = build_trainer(
            "helcfl", settings(), env, config_overrides={"enforce_battery": True}
        )
        assert_same_population(
            run_start_population(trainer), DevicePopulation.from_devices(trainer.devices)
        )
        trainer.run()
        charges = trainer.last_checkpoint.battery_charges.tolist()
        for device, charge in zip(env.devices, charges):
            if device.battery is None:
                assert math.isnan(charge)
            else:
                assert charge == device.battery.charge_joules
        assert min(charges[::2]) < 50.0, "no battery was drained"

    def test_battery_attached_after_construction_is_checkpointed(self):
        # Batteries are read off the devices when a run starts, not when
        # the trainer is built.
        env = build_environment(settings(), iid=True)
        trainer = build_trainer(
            "helcfl", settings(), env, config_overrides={"enforce_battery": True}
        )
        for device in env.devices[1::3]:
            device.battery = Battery(capacity_joules=50.0)
        trainer.run()
        charges = trainer.last_checkpoint.battery_charges.tolist()
        for position, (device, charge) in enumerate(zip(env.devices, charges)):
            if position % 3 == 1:
                assert charge == device.battery.charge_joules
            else:
                assert math.isnan(charge)
        assert min(charges[1::3]) < 50.0, "no battery was drained"


def per_client_records(trainer, broadcast, devices, learning_rate, round_index):
    """``(ids, weights, losses)`` as one record per client gave them:
    each client trained alone from the broadcast."""
    spec = trainer.config.local_update_spec()
    scratch = trainer.server.model.clone()
    losses = []
    for device in devices:
        scratch.set_flat_params(broadcast)
        local = spec.make_trainer(learning_rate, round_index, device.device_id)
        losses.append(local.train(scratch, device.dataset))
    ids = [device.device_id for device in devices]
    return ids, [float(device.num_samples) for device in devices], losses


@pytest.mark.parametrize("backend_name", ["serial", "thread", "process+shm"])
def test_round_result_matches_per_client_records(backend_name):
    config = settings(noniid_kind="dirichlet")
    env = build_environment(config, iid=False)
    sizes = {d.num_samples for d in env.devices}
    assert len(sizes) > 2, "the fleet should hold unequal shards"
    calls, observed = [], []
    with create_backend(backend_name, workers=2) as backend:
        trainer = build_trainer("helcfl", config, env, backend=backend)
        run_round = backend.run_round

        def recording(round_index, params, devices, rate, sink=None, **kwargs):
            result = run_round(round_index, params, devices, rate, sink, **kwargs)
            calls.append((round_index, params.copy(), list(devices), rate, result))
            return result

        backend.run_round = recording
        aggregate = trainer._aggregate

        def integrating(state):
            observed.append(state.integrated)
            aggregate(state)

        trainer._aggregate = integrating
        trainer.run()
    assert len(calls) == len(observed) == config.rounds
    for (round_index, params, devices, rate, result), integrated in zip(calls, observed):
        assert isinstance(result, RoundResult)
        ids, weights, want = per_client_records(trainer, params, devices, rate, round_index)
        assert result.device_ids.tolist() == ids
        assert result.weights.dtype == np.float64
        assert result.weights.tolist() == weights
        assert result.losses.tolist() == want
        assert result.params is None
        # Every selected client is integrated here, in selection order.
        assert integrated.device_ids.tolist() == ids
        assert integrated.losses.tolist() == want


@pytest.mark.parametrize("backend_name", ["serial", "thread", "process+shm"])
def test_run_round_over_a_plain_device_list(backend_name):
    config = settings()
    env = build_environment(config, iid=True)
    model = config.build_model(flattened=config.uses_flat_inputs)
    spec = config.trainer_config().local_update_spec()
    params = model.get_flat_params().copy()
    count = 7
    reference = SerialBackend()
    reference.bind(model, spec, env.devices)
    want = reference.run_round(
        1,
        params,
        env.devices[:count],
        config.learning_rate,
        population=env.population.take(np.arange(count)),
    )
    with create_backend(backend_name, workers=2) as backend:
        backend.bind(model, spec, env.devices)
        result = backend.run_round(1, params, env.devices[:count], config.learning_rate)
    assert len(result) == count
    updates = list(result)
    assert all(math.isfinite(update.loss) for update in updates)
    assert [u.device_id for u in updates] == [d.device_id for d in env.devices[:count]]
    assert [u.weight for u in updates] == [float(d.num_samples) for d in env.devices[:count]]
    assert [u.loss for u in updates] == want.losses.tolist()
    assert [u.weight for u in want] == [u.weight for u in updates]
    # Without a sink the trained rows are kept, one per client.
    assert len(result.params) == count
    assert all(row.shape == params.shape for row in result.params)


def test_a_population_must_hold_one_entry_per_device():
    config = settings()
    env = build_environment(config, iid=True)
    trainer = build_trainer("helcfl", config, env)
    with pytest.raises(ConfigurationError):
        FederatedTrainer(
            trainer.server, env.devices[:5], trainer.selection, population=env.population
        )
    backend = SerialBackend()
    backend.bind(trainer.server.model, trainer.config.local_update_spec(), env.devices)
    with pytest.raises(ConfigurationError):
        backend.run_round(
            1,
            trainer.server.broadcast(),
            env.devices[:3],
            config.learning_rate,
            population=env.population.take(np.arange(4)),
        )
