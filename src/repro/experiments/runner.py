"""Build-and-run plumbing shared by every experiment.

:func:`build_environment` generates the synthetic task, partitions it
(IID or the paper's non-IID shards), flattens inputs when the model
needs it, and builds the heterogeneous device fleet and its column
snapshot — all seeded from the settings so every strategy sees the
*identical* data, partition, and hardware population.

:func:`run_strategy` then runs one named scheme to completion and
returns its :class:`~repro.fl.history.TrainingHistory`: a
:class:`~repro.fl.trainer.FederatedTrainer` for every federated scheme,
and for ``sl`` the thin :class:`~repro.baselines.sl.SeparatedLearningRunner`
loop, which trains through the same
:func:`~repro.fl.client.train_clients` but has no server round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.baselines.registry import build_strategy, strategy_labels
from repro.baselines.sl import SeparatedLearningRunner
from repro.data.dataset import ArrayDataset
from repro.data.transforms import flatten_images
from repro.devices.device import UserDevice
from repro.devices.fleet import make_fleet
from repro.devices.population import DevicePopulation
from repro.errors import ConfigurationError
from repro.experiments.settings import ExperimentSettings
from repro.fl.execution import ExecutionBackend, open_backend
from repro.fl.history import TrainingHistory
from repro.fl.server import FederatedServer
from repro.fl.trainer import FederatedTrainer
from repro.obs import RunObserver
from repro.rng import derive_seed

__all__ = [
    "STRATEGY_NAMES",
    "Environment",
    "build_environment",
    "build_trainer",
    "run_strategy",
]

STRATEGY_NAMES = (
    "helcfl",
    "helcfl-nodvfs",
    "classic",
    "fedcs",
    "fedl",
    "full",
    "sl",
)


@dataclass
class Environment:
    """Everything shared across strategies for one experimental setting.

    Attributes:
        settings: the generating settings.
        iid: whether partitions are IID.
        test: the evaluation split (flattened if the model needs it).
        partitions: per-user local datasets.
        devices: the heterogeneous fleet (one device per partition).
        population: the fleet's column snapshot, shared by the trainers
            built here, which keep it in step with the devices.
    """

    settings: ExperimentSettings
    iid: bool
    test: ArrayDataset
    partitions: List[ArrayDataset]
    devices: List[UserDevice]
    population: DevicePopulation


def build_environment(settings: ExperimentSettings, iid: bool) -> Environment:
    """Create the shared data + fleet environment for ``settings``.

    Args:
        settings: experiment settings.
        iid: True for the IID partition, False for the paper's
            label-shard non-IID partition.
    """
    task = settings.build_task()
    train = task.train
    test = task.test
    if settings.uses_flat_inputs:
        train = ArrayDataset(flatten_images(train.inputs), train.labels)
        test = ArrayDataset(flatten_images(test.inputs), test.labels)
    partitions = settings.build_partitions(train, iid=iid)
    devices = make_fleet(
        partitions,
        settings.fleet_spec(),
        seed=derive_seed(settings.seed, "fleet"),
    )
    return Environment(
        settings=settings,
        iid=iid,
        test=test,
        partitions=partitions,
        devices=devices,
        population=DevicePopulation.from_devices(devices),
    )


def _make_server(settings: ExperimentSettings, env: Environment) -> FederatedServer:
    model = settings.build_model(flattened=settings.uses_flat_inputs)
    return FederatedServer(
        model,
        test_dataset=env.test,
        payload_bits=settings.payload_bits,
    )


def build_trainer(
    name: str,
    settings: ExperimentSettings,
    environment: Environment,
    config_overrides: Optional[Dict] = None,
    backend: Optional[ExecutionBackend] = None,
    observer: Optional[RunObserver] = None,
    faults=None,
    checkpoint_path: Optional[str] = None,
) -> FederatedTrainer:
    """Assemble the :class:`FederatedTrainer` for one named scheme.

    The shared factory behind :func:`run_strategy` and the campaign
    runner (:mod:`repro.campaign`): a fresh server/model (seeded from
    the settings, so every strategy starts identically) plus the
    scheme's selection strategy and frequency policy, wired against
    ``environment``'s fleet. The ``sl`` baseline has no federated round
    (see :func:`run_strategy`) and is not constructible here.

    Args:
        name: one of :data:`STRATEGY_NAMES` except ``sl``.
        settings: experiment settings.
        environment: the pre-built data + fleet environment.
        config_overrides: keyword overrides for the trainer config.
        backend: a pre-built execution backend (caller owns its
            lifetime); ``None`` runs serial.
        observer: optional observer receiving the run's events.
        faults: optional fault plan/injector.
        checkpoint_path: where ``checkpoint_every`` snapshots land
            (see :class:`~repro.fl.trainer.FederatedTrainer`).
    """
    key = name.strip().lower()
    if key not in STRATEGY_NAMES or key == "sl":
        raise ConfigurationError(
            f"unknown trainer strategy {name!r}; expected one of "
            f"{tuple(n for n in STRATEGY_NAMES if n != 'sl')}"
        )
    server = _make_server(settings, environment)
    config = settings.trainer_config(**(config_overrides or {}))
    selection, policy = build_strategy(
        key,
        devices=environment.devices,
        fraction=settings.fraction,
        payload_bits=settings.payload_bits,
        bandwidth_hz=settings.bandwidth_hz,
        decay=settings.decay,
        seed=derive_seed(settings.seed, "selection", key),
        fedcs_target_count=settings.fedcs_target_count,
        fedcs_candidate_fraction=settings.fedcs_candidate_fraction,
        fedl_kappa=settings.fedl_kappa,
    )
    return FederatedTrainer(
        server=server,
        devices=environment.devices,
        selection=selection,
        frequency_policy=policy,
        config=config,
        label=strategy_labels()[key],
        backend=backend,
        observer=observer,
        faults=faults,
        checkpoint_path=checkpoint_path,
        population=environment.population,
    )


def run_strategy(
    name: str,
    settings: ExperimentSettings,
    iid: bool,
    environment: Optional[Environment] = None,
    config_overrides: Optional[Dict] = None,
    backend: Union[ExecutionBackend, str, None] = None,
    workers: Optional[int] = None,
    observer: Optional[RunObserver] = None,
    faults=None,
) -> TrainingHistory:
    """Run one named scheme end to end.

    Every call builds a fresh server/model (same seed, hence the same
    initialization for every strategy) but reuses the environment when
    one is supplied, so all strategies compare on identical data and
    hardware.

    Args:
        name: one of :data:`STRATEGY_NAMES`.
        settings: experiment settings.
        iid: partition regime.
        environment: pre-built environment to reuse across strategies.
        config_overrides: keyword overrides for the trainer config
            (e.g. ``{"deadline_s": 600.0}``).
        backend: client-execution backend — an
            :class:`~repro.fl.execution.ExecutionBackend` instance
            (caller owns its worker lifetime) or a backend name from
            :data:`~repro.fl.execution.BACKEND_NAMES`; a name is
            instantiated here and closed when the run finishes.
            ``None`` runs serial. Ignored by the ``sl`` baseline,
            which trains every user in the calling thread.
        workers: pool size when ``backend`` is given by name.
        observer: optional :class:`repro.obs.RunObserver` receiving
            the run's trace events and stage timers (caller owns the
            sink's lifetime). Ignored by the ``sl`` baseline, whose
            round loop is not instrumented.
        faults: optional :class:`repro.faults.FaultPlan` (or
            pre-built :class:`repro.faults.FaultInjector`) injected
            into the run. Rejected for the ``sl`` baseline, which has
            no selection, upload or aggregation to degrade.

    Returns:
        The run's :class:`~repro.fl.history.TrainingHistory`, labelled
        with the scheme's display name.
    """
    key = name.strip().lower()
    if key not in STRATEGY_NAMES:
        raise ConfigurationError(
            f"unknown strategy {name!r}; expected one of {STRATEGY_NAMES}"
        )
    env = environment or build_environment(settings, iid)

    if key == "sl":
        if faults is not None:
            raise ConfigurationError(
                "fault injection is not supported by the 'sl' baseline"
            )
        runner = SeparatedLearningRunner(
            _make_server(settings, env),
            env.devices,
            config=settings.trainer_config(**(config_overrides or {})),
            eval_users=min(10, settings.num_users),
            seed=derive_seed(settings.seed, "sl-eval"),
            label=strategy_labels()[key],
        )
        return runner.run()

    with open_backend(backend, workers=workers) as ready:
        return build_trainer(
            key,
            settings,
            env,
            config_overrides=config_overrides,
            backend=ready,
            observer=observer,
            faults=faults,
        ).run()

