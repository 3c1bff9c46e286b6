"""Pluggable client-execution backends for the round loop.

The simulated MEC devices are independent: each selected user's local
update (Eq. 3) depends only on the broadcast parameters and its own
dataset. The trainer therefore delegates the per-round fan-out to an
:class:`ExecutionBackend`:

* :class:`SerialBackend` — one shared scratch model, clients in
  selection order (the original loop);
* :class:`ThreadPoolBackend` — a thread pool with one scratch model
  per worker thread; numpy releases the GIL inside BLAS calls, so the
  matmul-heavy forward/backward passes genuinely overlap;
* :class:`ProcessPoolBackend` — a process pool whose workers each
  build their own scratch model and cache the device datasets at pool
  start-up, so a round only ships ``(device_id, learning_rate,
  global_params)`` per task;
* ``SharedMemoryProcessPoolBackend`` (:mod:`repro.fl.shm`, registry
  name ``"process+shm"``) — the process pool plus
  :class:`~repro.fl.shm.SharedArrayPool`: broadcast and trained
  parameter vectors travel through ``multiprocessing.shared_memory``
  blocks, so a round pickles only scalars per task.

All backends are *bitwise equivalent*: every client trains on its own
model clone starting from the same broadcast vector, mini-batch
sampling (when enabled) draws from a per-``(round, device)`` derived
seed rather than a shared generator, and results are returned in
selection order. A fixed seed therefore produces the identical
:class:`~repro.fl.history.TrainingHistory` under any backend.

The round exchange is typed: a backend returns one
:class:`ClientUpdate` per client, and the trainer wraps them into a
:class:`RoundResult` consumed by compression, battery enforcement, the
energy ledger, and history recording.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.devices.device import UserDevice
from repro.errors import ConfigurationError, TrainingError
from repro.fl.client import LocalTrainer
from repro.nn.model import Sequential
from repro.obs.spans import (
    TaskSpanContext,
    begin_task_sample,
    emit_task_span,
    end_task_sample,
    round_span_id,
)
from repro.rng import derive_seed

__all__ = [
    "STATUS_OK",
    "STATUS_DROPPED",
    "STATUS_TIMEOUT",
    "ClientUpdate",
    "RoundResult",
    "LocalUpdateSpec",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadPoolBackend",
    "ProcessPoolBackend",
    "BACKEND_NAMES",
    "create_backend",
    "open_backend",
]


# ----------------------------------------------------------------------
# Round data containers
# ----------------------------------------------------------------------
STATUS_OK = "ok"
STATUS_DROPPED = "dropped"
STATUS_TIMEOUT = "timeout"
"""Client round outcomes (shared vocabulary with the TDMA timeline)."""


@dataclass(frozen=True)
class ClientUpdate:
    """One client's contribution to a round.

    Attributes:
        device_id: the uploading user ``q``.
        params: the flat parameter vector the server aggregates — the
            raw trained vector, or the lossy reconstruction when a
            compression pipeline processed the upload.
        weight: the FedAvg weight ``|D_q|``.
        loss: the client's observed training loss (fed back to
            statistical-utility selection strategies).
        payload_bits: actual transmitted bits when compression ran;
            ``None`` means the nominal ``C_model`` payload applies.
        status: the round outcome — ``"ok"`` reached the server,
            ``"dropped"`` lost to a fault or battery, ``"timeout"``
            cut off by the round deadline. Only ``"ok"`` updates are
            aggregated.
    """

    device_id: int
    params: np.ndarray
    weight: float
    loss: float
    payload_bits: Optional[float] = None
    status: str = STATUS_OK

    def __post_init__(self) -> None:
        if self.status not in (STATUS_OK, STATUS_DROPPED, STATUS_TIMEOUT):
            raise ConfigurationError(
                f"status must be one of ('{STATUS_OK}', '{STATUS_DROPPED}', "
                f"'{STATUS_TIMEOUT}'), got {self.status!r}"
            )


@dataclass(frozen=True)
class RoundResult:
    """All client updates of one round, in selection order.

    The container is what battery enforcement filters, the aggregation
    step consumes, and history recording reads — replacing the five
    parallel lists the old ``_run_clients`` returned.
    """

    round_index: int
    updates: Tuple[ClientUpdate, ...]

    def __post_init__(self) -> None:
        if self.round_index <= 0:
            raise ConfigurationError(
                f"round_index must be positive, got {self.round_index}"
            )

    def __len__(self) -> int:
        return len(self.updates)

    def __iter__(self) -> Iterator[ClientUpdate]:
        return iter(self.updates)

    def __bool__(self) -> bool:
        return bool(self.updates)

    @property
    def device_ids(self) -> Tuple[int, ...]:
        """Uploading device ids, in selection order."""
        return tuple(u.device_id for u in self.updates)

    @property
    def params(self) -> List[np.ndarray]:
        """The flat parameter vectors, in selection order."""
        return [u.params for u in self.updates]

    @property
    def weights(self) -> List[float]:
        """The matching FedAvg weights."""
        return [u.weight for u in self.updates]

    @property
    def losses(self) -> Dict[int, float]:
        """Mapping from device id to observed training loss."""
        return {u.device_id: u.loss for u in self.updates}

    @property
    def payloads(self) -> Dict[int, float]:
        """Actual transmitted bits per device (compressed uploads only)."""
        return {
            u.device_id: u.payload_bits
            for u in self.updates
            if u.payload_bits is not None
        }

    def drop(self, device_ids) -> RoundResult:
        """Return a copy without the given devices' updates."""
        dropped = set(device_ids)
        return replace(
            self,
            updates=tuple(
                u for u in self.updates if u.device_id not in dropped
            ),
        )

    # -- degraded-round helpers ----------------------------------------
    def with_statuses(self, statuses: Dict[int, str]) -> RoundResult:
        """Return a copy with per-device statuses applied.

        Devices absent from ``statuses`` keep their current status;
        when nothing changes the result is ``self`` (so the faults-off
        path shares the exact same object).
        """
        if all(
            statuses.get(u.device_id, u.status) == u.status
            for u in self.updates
        ):
            return self
        return replace(
            self,
            updates=tuple(
                replace(u, status=statuses[u.device_id])
                if statuses.get(u.device_id, u.status) != u.status
                else u
                for u in self.updates
            ),
        )

    def survivors(self) -> RoundResult:
        """The updates that reached the server (``status == "ok"``).

        Returns ``self`` when every update survived, so an undegraded
        round pays nothing for the filter.
        """
        if all(u.status == STATUS_OK for u in self.updates):
            return self
        return replace(
            self,
            updates=tuple(
                u for u in self.updates if u.status == STATUS_OK
            ),
        )

    def first(self, count: int) -> RoundResult:
        """The first ``count`` updates in selection order.

        The FedCS-style over-selection fallback aggregates the first
        ``N`` survivors of an ``N + margin`` selection; ``self`` is
        returned unchanged when nothing needs trimming.
        """
        if count < 0:
            raise ConfigurationError(
                f"count must be non-negative, got {count}"
            )
        if len(self.updates) <= count:
            return self
        return replace(self, updates=self.updates[:count])

    def ids_with_status(self, status: str) -> Tuple[int, ...]:
        """Device ids carrying ``status``, in selection order."""
        return tuple(
            u.device_id for u in self.updates if u.status == status
        )


@dataclass(frozen=True)
class LocalUpdateSpec:
    """The local-update hyperparameters a backend trains with.

    Attributes mirror :class:`~repro.fl.client.LocalTrainer`; ``seed``
    roots the per-``(round, device)`` mini-batch sampling seeds that
    keep stochastic local updates backend-independent.
    """

    learning_rate: float = 0.1
    local_steps: int = 1
    batch_size: Optional[int] = None
    max_grad_norm: Optional[float] = None
    seed: int = 0

    def make_trainer(
        self, learning_rate: float, round_index: int, device_id: int
    ) -> LocalTrainer:
        """Build the :class:`LocalTrainer` for one client task."""
        return LocalTrainer(
            learning_rate=learning_rate,
            local_steps=self.local_steps,
            batch_size=self.batch_size,
            max_grad_norm=self.max_grad_norm,
            seed=derive_seed(
                self.seed, "minibatch", str(round_index), str(device_id)
            ),
        )


def _train_one(
    scratch: Sequential,
    spec: LocalUpdateSpec,
    round_index: int,
    learning_rate: float,
    global_params: np.ndarray,
    device_id: int,
    dataset,
    weight: float,
    params_out: Optional[np.ndarray] = None,
) -> ClientUpdate:
    """Run one client's local update on a prepared scratch model.

    Args:
        params_out: optional preallocated destination for the trained
            flat vector (a shared-memory slot on the zero-copy path);
            when ``None`` a fresh array is returned.
    """
    scratch.set_flat_params(global_params)
    trainer = spec.make_trainer(learning_rate, round_index, device_id)
    loss_value = trainer.train(scratch, dataset)
    return ClientUpdate(
        device_id=device_id,
        params=scratch.get_flat_params(out=params_out),
        weight=weight,
        loss=loss_value,
    )


# ----------------------------------------------------------------------
# Backend interface
# ----------------------------------------------------------------------
class ExecutionBackend:
    """Fans one round's local updates out across workers.

    Lifecycle: the trainer calls :meth:`bind` once per training run
    (handing over the model template, the local-update spec, and the
    device population), then :meth:`run_round` once per round, and
    :meth:`close` when the backend should release its workers. Backends
    are context managers; ``close`` is idempotent and a closed backend
    can be re-bound.

    Attributes:
        observer: optional :class:`repro.obs.RunObserver`; when set
            (the trainer binds its own), :meth:`run_round` records its
            wall-clock duration under the ``"run_round"`` timer and
            counts trained clients, making backend overhead
            measurable. Purely observational — results are unaffected.
    """

    name = "base"

    def __init__(self) -> None:
        self._spec: Optional[LocalUpdateSpec] = None
        self.observer = None
        # Per-round task-sampling scratch: when the bound observer has
        # spans active, ``_run`` implementations record one
        # ``(device_id, TaskSample)`` pair per client in selection
        # order; ``run_round`` turns them into per-task span events.
        self._sample_tasks = False
        self._task_samples: List[tuple] = []

    # -- lifecycle ------------------------------------------------------
    def bind(
        self,
        model_template: Sequential,
        spec: LocalUpdateSpec,
        devices: Sequence[UserDevice] = (),
    ) -> None:
        """Prepare workers for a training run.

        Args:
            model_template: the global model; workers clone it for
                their scratch copies.
            spec: local-update hyperparameters.
            devices: the full device population (lets pool backends
                pre-ship datasets to workers).
        """
        self._spec = spec
        self._bind(model_template, spec, devices)

    def _bind(
        self,
        model_template: Sequential,
        spec: LocalUpdateSpec,
        devices: Sequence[UserDevice],
    ) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release worker resources (idempotent)."""

    def __enter__(self) -> ExecutionBackend:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution ------------------------------------------------------
    def run_round(
        self,
        round_index: int,
        global_params: np.ndarray,
        selected: Sequence[UserDevice],
        learning_rate: float,
    ) -> List[ClientUpdate]:
        """Train every selected client; return updates in selection order.

        Args:
            round_index: 1-based FL round index ``j``.
            global_params: the broadcast flat parameter vector.
            selected: the round's selected user set ``Gamma_j``.
            learning_rate: the round's (possibly decayed) local rate.
        """
        if self._spec is None:
            raise TrainingError(
                f"{type(self).__name__} must be bound before run_round"
            )
        observer = self.observer
        self._sample_tasks = observer is not None and observer.spans_active
        self._task_samples = []
        try:
            if observer is None:
                return self._run(
                    round_index, global_params, selected, learning_rate
                )
            with observer.timer("run_round"):
                updates = self._run(
                    round_index, global_params, selected, learning_rate
                )
            observer.metrics.inc("clients_trained", float(len(updates)))
            if self._task_samples:
                context = TaskSpanContext(
                    parent_id=round_span_id(round_index, "local_updates"),
                    round_index=round_index,
                )
                for device_id, sample in self._task_samples:
                    emit_task_span(observer, context, device_id, sample)
            return updates
        finally:
            self._sample_tasks = False
            self._task_samples = []

    def _run(
        self,
        round_index: int,
        global_params: np.ndarray,
        selected: Sequence[UserDevice],
        learning_rate: float,
    ) -> List[ClientUpdate]:
        raise NotImplementedError


def _map_chunksize(task_count: int, workers: Optional[int]) -> int:
    """Batch ``Executor.map`` submissions for large fan-outs.

    The default ``chunksize=1`` pays one queue round trip per task,
    which dominates a 10^4-client round. Chunking preserves result
    order, so backend parity is unaffected; small rounds keep
    ``chunksize=1`` so no worker sits idle behind a batch.
    """
    pool_size = workers or os.cpu_count() or 1
    return max(1, min(64, task_count // (pool_size * 4)))


def _check_workers(workers: Optional[int]) -> Optional[int]:
    if workers is not None and workers <= 0:
        raise ConfigurationError(
            f"workers must be positive when given, got {workers}"
        )
    return workers


class SerialBackend(ExecutionBackend):
    """Clients in selection order on one shared scratch model.

    This is the original trainer loop: reusing a single scratch model
    avoids reallocating layer buffers ``Q*C`` times per round.
    """

    name = "serial"

    def __init__(self) -> None:
        super().__init__()
        self._scratch: Optional[Sequential] = None

    def _bind(self, model_template, spec, devices) -> None:
        del devices
        self._scratch = model_template.clone()

    def _run(self, round_index, global_params, selected, learning_rate):
        sampling = self._sample_tasks
        updates = []
        for device in selected:
            token = begin_task_sample() if sampling else None
            updates.append(
                _train_one(
                    self._scratch,
                    self._spec,
                    round_index,
                    learning_rate,
                    global_params,
                    device.device_id,
                    device.dataset,
                    float(device.num_samples),
                )
            )
            if token is not None:
                self._task_samples.append(
                    (device.device_id, end_task_sample(token))
                )
        return updates


class ThreadPoolBackend(ExecutionBackend):
    """Clients fan out across a thread pool.

    Each worker thread lazily clones its own scratch model
    (thread-local), so concurrent clients never share layer buffers.
    numpy's BLAS kernels drop the GIL, which is where the overlap
    comes from.

    Args:
        workers: pool size; ``None`` uses ``os.cpu_count()``.
    """

    name = "thread"

    def __init__(self, workers: Optional[int] = None) -> None:
        super().__init__()
        self.workers = _check_workers(workers)
        self._template: Optional[Sequential] = None
        self._pool = None
        self._local = None

    def _bind(self, model_template, spec, devices) -> None:
        del devices
        import threading
        from concurrent.futures import ThreadPoolExecutor

        self.close()
        self._template = model_template.clone()
        self._local = threading.local()
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-client"
        )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._local = None

    def _scratch(self) -> Sequential:
        scratch = getattr(self._local, "scratch", None)
        if scratch is None:
            scratch = self._template.clone()
            self._local.scratch = scratch
        return scratch

    def _run(self, round_index, global_params, selected, learning_rate):
        if self._pool is None:
            raise TrainingError("ThreadPoolBackend is closed; re-bind it")
        sampling = self._sample_tasks

        def task(device: UserDevice):
            token = begin_task_sample() if sampling else None
            update = _train_one(
                self._scratch(),
                self._spec,
                round_index,
                learning_rate,
                global_params,
                device.device_id,
                device.dataset,
                float(device.num_samples),
            )
            return update, (
                end_task_sample(token) if token is not None else None
            )

        results = list(self._pool.map(task, selected))
        if sampling:
            # Collected in map (= selection) order, not completion
            # order, so the emitted span sequence is deterministic.
            self._task_samples.extend(
                (device.device_id, sample)
                for device, (_, sample) in zip(selected, results)
            )
        return [update for update, _ in results]


# -- process-pool worker plumbing (module level for picklability) ------
_WORKER_STATE: dict = {}


def _process_worker_init(
    model: Sequential,
    spec: LocalUpdateSpec,
    datasets,
    log_level=None,
):
    """Build one worker's scratch model and dataset cache.

    The writes below are the deliberate process-pool initializer
    pattern: each pool *process* runs this exactly once, before any
    task, so its copy of ``_WORKER_STATE`` is populated single-threaded
    and never mutated again. ``log_level`` re-applies the parent's
    logging configuration inside the worker process, so warnings
    raised during local updates reach stderr instead of vanishing.
    """
    if log_level is not None:
        from repro.obs import configure_logging

        configure_logging(log_level)
    _WORKER_STATE["scratch"] = model  # repro: allow[REP005] per-process init, pre-task
    _WORKER_STATE["spec"] = spec  # repro: allow[REP005] per-process init, pre-task
    _WORKER_STATE["datasets"] = datasets  # repro: allow[REP005] per-process init, pre-task


def _process_worker_run(task):
    round_index, learning_rate, global_params, device_id, weight, dataset, sample = task
    if dataset is None:
        dataset = _WORKER_STATE["datasets"][device_id]
    token = begin_task_sample() if sample else None
    update = _train_one(
        _WORKER_STATE["scratch"],
        _WORKER_STATE["spec"],
        round_index,
        learning_rate,
        global_params,
        device_id,
        dataset,
        weight,
    )
    # The resource sample is taken in the *worker* process, then rides
    # home with the result (scalars only) for the parent to emit.
    taken = end_task_sample(token) if token is not None else None
    # Pickle-transport fallback path; the zero-copy route is repro.fl.shm.
    return update.device_id, update.params, update.weight, update.loss, taken  # repro: allow[REP007] pickle fallback backend


class ProcessPoolBackend(ExecutionBackend):
    """Clients fan out across a process pool.

    The pool initializer ships the model template, the local-update
    spec, and every bound device's dataset to each worker exactly once;
    a round's tasks then carry only ``(device_id, learning_rate,
    global_params)``. Devices that appear at run time without having
    been bound fall back to shipping their dataset with the task.

    Args:
        workers: pool size; ``None`` uses ``os.cpu_count()``.
        log_level: when given, each worker process re-applies this
            logging level at pool start-up so worker-side warnings
            surface on stderr.
    """

    name = "process"

    def __init__(
        self, workers: Optional[int] = None, log_level=None
    ) -> None:
        super().__init__()
        self.workers = _check_workers(workers)
        self.log_level = log_level
        self._pool = None
        self._known_ids: set = set()

    def _bind(self, model_template, spec, devices) -> None:
        from concurrent.futures import ProcessPoolExecutor

        self.close()
        datasets = {d.device_id: d.dataset for d in devices}
        self._known_ids = set(datasets)
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_process_worker_init,
            initargs=(model_template.clone(), spec, datasets, self.log_level),
        )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _run(self, round_index, global_params, selected, learning_rate):
        if self._pool is None:
            raise TrainingError("ProcessPoolBackend is closed; re-bind it")
        sampling = self._sample_tasks
        tasks = [
            (
                round_index,
                learning_rate,
                global_params,  # repro: allow[REP007] pickle fallback backend
                device.device_id,
                float(device.num_samples),
                None if device.device_id in self._known_ids else device.dataset,
                sampling,
            )
            for device in selected
        ]
        updates = []
        for device_id, params, weight, loss, sample in self._pool.map(
            _process_worker_run,
            tasks,
            chunksize=_map_chunksize(len(tasks), self.workers),
        ):
            updates.append(
                ClientUpdate(
                    device_id=device_id,
                    params=params,
                    weight=weight,
                    loss=loss,
                )
            )
            if sampling:
                self._task_samples.append((device_id, sample))
        return updates


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_BACKENDS = {
    "serial": SerialBackend,
    "thread": ThreadPoolBackend,
    "process": ProcessPoolBackend,
}

# The shm-backed process pool lives in repro.fl.shm (which imports this
# module), so the registry holds its name and create_backend imports it
# lazily to avoid a circular import.
BACKEND_NAMES: Tuple[str, ...] = tuple(_BACKENDS) + ("process+shm",)


def create_backend(
    name: str, workers: Optional[int] = None, log_level=None
) -> ExecutionBackend:
    """Construct a backend by name.

    Args:
        name: one of :data:`BACKEND_NAMES`.
        workers: pool size for the pooled backends; ignored by
            ``serial``.
        log_level: logging level re-applied inside pool *worker
            processes* (``process`` / ``process+shm``); in-process
            backends inherit the parent's logger and ignore it.
    """
    key = str(name).strip().lower()
    if key not in BACKEND_NAMES:
        raise ConfigurationError(
            f"unknown execution backend {name!r}; expected one of "
            f"{BACKEND_NAMES}"
        )
    if key == "serial":
        return SerialBackend()
    if key == "thread":
        return ThreadPoolBackend(workers=workers)
    if key == "process+shm":
        from repro.fl.shm import SharedMemoryProcessPoolBackend

        return SharedMemoryProcessPoolBackend(
            workers=workers, log_level=log_level
        )
    return ProcessPoolBackend(workers=workers, log_level=log_level)


@contextmanager
def open_backend(
    backend: Union[ExecutionBackend, str, None],
    workers: Optional[int] = None,
    log_level=None,
) -> Iterator[Optional[ExecutionBackend]]:
    """Yield ``backend`` for the block, closing it only if made here.

    A name is passed to :func:`create_backend` and the new backend is
    closed on exit; an instance (or ``None``, which trainers read as
    serial) passes through untouched — its owner closes it.
    """
    if isinstance(backend, str):
        with create_backend(backend, workers, log_level) as owned:
            yield owned
    else:
        yield backend
