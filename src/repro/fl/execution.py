"""Pluggable client-execution backends for the round loop.

The simulated MEC devices are independent: each selected user's local
update (Eq. 3) depends only on the broadcast parameters and its own
dataset. All training goes through one primitive,
:func:`repro.fl.client.train_clients`, which trains a sequence of
clients in cache-sized blocks. An :class:`ExecutionBackend`
only decides how a round's selection is cut into contiguous chunks and
where each chunk runs:

* :class:`SerialBackend` — the whole selection as one chunk, in the
  calling thread;
* :class:`ThreadPoolBackend` — chunks across a thread pool with one
  scratch model per worker thread; numpy releases the GIL inside BLAS
  calls, so the matmul-heavy forward/backward passes genuinely overlap;
* :class:`ProcessPoolBackend` — chunks across a process pool whose
  workers each build their own scratch model and cache the device
  datasets at pool start-up, so a chunk only ships its device ids, the
  learning rate and the broadcast vector;
* ``SharedMemoryProcessPoolBackend`` (:mod:`repro.fl.shm`, registry
  name ``"process+shm"``) — the process pool plus
  :class:`~repro.fl.shm.SharedArrayPool`: broadcast and trained
  parameter vectors travel through ``multiprocessing.shared_memory``
  blocks, so a round pickles only scalars and device ids per chunk.

All backends are *bitwise equivalent*: a client's trained vector
depends only on the broadcast vector, its own dataset and (for
mini-batches) a per-``(round, device)`` derived seed — never on which
clients share its chunk — and results are returned in selection order.
A fixed seed therefore produces the identical
:class:`~repro.fl.history.TrainingHistory` under any backend.

The round exchange is columnar, and trained rows stream: a backend
hands each finished block of rows to a :class:`~repro.fl.client.RowSink`
in selection order, and returns a :class:`RoundResult` of id, weight
(``|D_q|``) and loss columns, read off the trainer's population slice
with no object per client. By default the rows are kept as its
``params``; the trainer passes its Eq. 18 fold instead, so no ``(N, P)``
update matrix is kept: the serial backend trains block by block into one
reused buffer, the pools fold each chunk as ``map`` yields it, and
``process+shm`` folds straight from its shared result block.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import repeat
from typing import (
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.devices.device import UserDevice
from repro.devices.population import DevicePopulation
from repro.errors import ConfigurationError, TrainingError
from repro.fl.client import LocalUpdateSpec, RowSink, train_clients
from repro.nn.model import Sequential
from repro.obs.spans import (
    TaskSample,
    begin_task_sample,
    end_task_sample,
    task_span_batch,
)

__all__ = [
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
class ClientUpdate(NamedTuple):
    """One client's row of a :class:`RoundResult`, built on iteration.

    Attributes:
        device_id: the uploading user ``q``.
        params: the trained flat parameter vector, or ``None`` when the
            round's rows went to a :class:`~repro.fl.client.RowSink`
            (the trainer's Eq. 18 fold) instead of being kept.
        weight: the FedAvg weight ``|D_q|``.
        loss: the client's observed training loss.
    """

    device_id: int
    params: Optional[np.ndarray]
    weight: float
    loss: float


@dataclass(frozen=True, eq=False)
class RoundResult:
    """One round's client updates as aligned columns, in selection order.

    ``device_ids`` (int64), ``weights`` (the FedAvg weights ``|D_q|``)
    and ``losses`` hold one entry per client; ``params`` holds the
    trained rows when ``run_round`` kept them, ``None`` when they went
    to a sink. Iterating yields one :class:`ClientUpdate` per client,
    built on demand. The trainer keeps the clients it integrated as
    one, for the strategy's loss feedback and the round's train loss.
    """

    round_index: int
    device_ids: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    weights: np.ndarray = field(default_factory=lambda: np.empty(0))
    losses: np.ndarray = field(default_factory=lambda: np.empty(0))
    params: Optional[Sequence[np.ndarray]] = None

    def __post_init__(self) -> None:
        if self.round_index <= 0:
            raise ConfigurationError(f"round_index must be positive, got {self.round_index}")
        if not len(self.device_ids) == len(self.weights) == len(self.losses):
            raise ConfigurationError("RoundResult columns need one entry per client")

    def __len__(self) -> int:
        return len(self.device_ids)

    def __iter__(self) -> Iterator[ClientUpdate]:
        params = repeat(None) if self.params is None else self.params
        columns = (self.weights.tolist(), self.losses.tolist())
        return map(ClientUpdate, self.device_ids.tolist(), params, *columns)


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
            (the trainer binds its own) and its spans are active,
            :meth:`run_round` emits one ``task`` span per trained
            client, making backend overhead measurable. Purely
            observational — results are unaffected.
    """

    name = "base"

    def __init__(self) -> None:
        self._spec: Optional[LocalUpdateSpec] = None
        self.observer = None
        # Per-round task-sampling scratch: when the bound observer has
        # spans active, ``_run`` implementations record one
        # ``((start, stop), TaskSample)`` pair per trained chunk in
        # selection order; ``run_round`` emits them as one batch of
        # per-task span events, one triple per device.
        self._sample_tasks = False
        self._task_samples: List[Tuple[Tuple[int, int], TaskSample]] = []

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
        sink: Optional[RowSink] = None,
        *,
        population: Optional[DevicePopulation] = None,
    ) -> RoundResult:
        """Train every selected client; return their columns in selection order.

        Args:
            round_index: 1-based FL round index ``j``.
            global_params: the broadcast flat parameter vector.
            selected: the round's selected user set ``Gamma_j``.
            learning_rate: the local rate ``tau``.
            sink: where each trained block of rows goes, in selection
                order (the trainer passes its Eq. 18 fold); the result
                then has ``params=None``. By default every row is kept
                in the result's ``params``.
            population: ``selected`` as a
                :class:`~repro.devices.DevicePopulation` slice (the
                trainer's); ids and ``|D_q|`` are then its columns
                instead of being read off each device.
        """
        if self._spec is None:
            raise TrainingError(
                f"{type(self).__name__} must be bound before run_round"
            )
        if population is None:
            ids = np.array([d.device_id for d in selected], dtype=np.int64)
            samples = np.array([d.num_samples for d in selected], dtype=np.int64)
        elif len(population) == len(selected):
            ids, samples = population.device_ids, population.num_samples
        else:
            raise ConfigurationError(f"population of {len(population)} for {len(selected)} devices")
        kept = _KeptRows(np.size(global_params)) if sink is None else None
        observer = self.observer
        self._sample_tasks = observer is not None and observer.spans_active
        self._task_samples = []
        try:
            losses = self._run(
                round_index, global_params, selected, learning_rate, sink or kept
            )
            if self._task_samples:
                chunks = [
                    (ids[start:stop].tolist(), sample)
                    for (start, stop), sample in self._task_samples
                ]
                observer.emit_batch(*task_span_batch(round_index, chunks))
        finally:
            self._sample_tasks = False
            self._task_samples = []
        rows = None if kept is None else kept.kept
        return RoundResult(round_index, ids, samples.astype(np.float64), losses, rows)

    def _run(
        self,
        round_index: int,
        global_params: np.ndarray,
        selected: Sequence[UserDevice],
        learning_rate: float,
        sink: RowSink,
    ) -> np.ndarray:
        """Train ``selected`` into ``sink``; return the losses."""
        raise NotImplementedError

    def _collect(self, selected, chunks, results, sink: RowSink) -> np.ndarray:
        """Hand each pool chunk's ``(rows, losses, sample)`` to ``sink``
        in map (= selection) order, not completion order, so the fold
        and the span sequence are deterministic; return the losses."""
        losses = np.empty(len(selected))
        for (start, stop), (rows, chunk_losses, sample) in zip(chunks, results):
            sink.take(start, rows)
            losses[start:stop] = chunk_losses
            self._record_chunk(start, stop, sample)
        return losses

    def _record_chunk(self, start: int, stop: int, sample: Optional[TaskSample]) -> None:
        """Keep the measurement of clients ``start:stop`` for ``run_round`` to emit."""
        if sample is not None and stop > start:
            self._task_samples.append(((start, stop), sample))


class _KeptRows(RowSink):
    """``run_round``'s default sink: every block in fresh memory, kept."""

    def __init__(self, size: int) -> None:
        super().__init__()
        self.size = size
        self.kept: List[np.ndarray] = []

    def rows(self, start: int, stop: int) -> np.ndarray:
        return np.empty((stop - start, self.size))

    def take(self, start: int, rows: np.ndarray) -> None:
        self.kept.extend(rows)


def _train_chunk(
    scratch: Sequential,
    spec: LocalUpdateSpec,
    round_index: int,
    learning_rate: float,
    global_params: np.ndarray,
    devices: Sequence,
    out,
    sample: bool,
) -> Tuple[np.ndarray, Optional[TaskSample]]:
    """:func:`train_clients` on one chunk, measured when ``sample`` is set.

    Runs in whichever thread or process owns the chunk; the measurement
    covers the whole chunk and is apportioned per device by the parent.
    """
    token = begin_task_sample() if sample else None
    losses = train_clients(
        scratch, spec, round_index, learning_rate, global_params, devices, out
    )
    return losses, (end_task_sample(token) if token is not None else None)


def _chunk_bounds(
    task_count: int, workers: Optional[int]
) -> List[Tuple[int, int]]:
    """``(start, stop)`` of each contiguous chunk a pool round submits.

    One client per task pays one queue round trip per client, which
    dominates a 10^4-client round. Chunking preserves result order, so
    backend parity is unaffected; small rounds keep one client per
    task so no worker sits idle behind a batch.
    """
    pool_size = workers or os.cpu_count() or 1
    size = max(1, min(64, task_count // (pool_size * 4)))
    return [
        (start, min(start + size, task_count))
        for start in range(0, task_count, size)
    ]


def _check_workers(workers: Optional[int]) -> Optional[int]:
    if workers is not None and workers <= 0:
        raise ConfigurationError(
            f"workers must be positive when given, got {workers}"
        )
    return workers


class SerialBackend(ExecutionBackend):
    """The whole selection as one chunk on one shared scratch model."""

    name = "serial"

    def __init__(self) -> None:
        super().__init__()
        self._scratch: Optional[Sequential] = None

    def _bind(self, model_template, spec, devices) -> None:
        del devices
        self._scratch = model_template.clone()

    def _run(self, round_index, global_params, selected, learning_rate, sink):
        losses, sample = _train_chunk(
            self._scratch,
            self._spec,
            round_index,
            learning_rate,
            global_params,
            selected,
            sink,
            self._sample_tasks,
        )
        self._record_chunk(0, len(selected), sample)
        return losses


class ThreadPoolBackend(ExecutionBackend):
    """Chunks of the selection fan out across a thread pool.

    Each worker thread lazily clones its own scratch model
    (thread-local), so concurrent chunks never share layer buffers,
    and trains its chunk into rows of its own. numpy's BLAS kernels
    drop the GIL, which is where the overlap comes from.

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

    def _run(self, round_index, global_params, selected, learning_rate, sink):
        if self._pool is None:
            raise TrainingError("ThreadPoolBackend is closed; re-bind it")
        sampling = self._sample_tasks
        size = np.size(global_params)

        def task(bounds: Tuple[int, int]):
            start, stop = bounds
            rows = np.empty((stop - start, size))
            losses, sample = _train_chunk(
                self._scratch(),
                self._spec,
                round_index,
                learning_rate,
                global_params,
                selected[start:stop],
                rows,
                sampling,
            )
            return rows, losses, sample

        chunks = _chunk_bounds(len(selected), self.workers)
        return self._collect(selected, chunks, self._pool.map(task, chunks), sink)


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
    _WORKER_STATE["scratch"] = model
    _WORKER_STATE["spec"] = spec
    _WORKER_STATE["datasets"] = datasets


class _WorkerClient(NamedTuple):
    """What a pool worker knows of a device: all ``train_clients`` reads."""

    device_id: int
    dataset: ArrayDataset


def _chunk_clients(
    devices: Sequence[UserDevice], known_ids: set
) -> Tuple[List[int], Dict[int, ArrayDataset]]:
    """A chunk as a pool task carries it: ids, plus unbound datasets.

    Devices bound at pool start-up travel as their id alone; one that
    joined later ships its dataset with the task.
    """
    return (
        [device.device_id for device in devices],
        {
            device.device_id: device.dataset
            for device in devices
            if device.device_id not in known_ids
        },
    )


def _worker_clients(
    device_ids: Sequence[int],
    shipped: Dict[int, ArrayDataset],
    datasets: Dict[int, ArrayDataset],
) -> List[_WorkerClient]:
    """Resolve a task's device ids against the worker's dataset cache."""
    return [
        _WorkerClient(
            device_id,
            shipped[device_id] if device_id in shipped else datasets[device_id],
        )
        for device_id in device_ids
    ]


def _process_worker_run(task):
    """Train one chunk; returns ``(rows, losses, sample)``."""
    round_index, learning_rate, global_params, device_ids, shipped, sample = task
    clients = _worker_clients(device_ids, shipped, _WORKER_STATE["datasets"])
    rows = np.empty((len(clients), np.size(global_params)))
    # The resource sample is taken in the *worker* process, then rides
    # home with the result for the parent to emit. The trained rows are
    # pickled back: the zero-copy route is repro.fl.shm.
    losses, taken = _train_chunk(
        _WORKER_STATE["scratch"],
        _WORKER_STATE["spec"],
        round_index,
        learning_rate,
        global_params,
        clients,
        rows,
        sample,
    )
    return rows, losses, taken


class ProcessPoolBackend(ExecutionBackend):
    """Chunks of the selection fan out across a process pool.

    The pool initializer ships the model template, the local-update
    spec, and every bound device's dataset to each worker exactly once;
    a round's tasks then carry only device ids, the learning rate and
    the broadcast vector, one task per contiguous chunk. Devices that
    appear at run time without having been bound fall back to shipping
    their dataset with the task.

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

    def _run(self, round_index, global_params, selected, learning_rate, sink):
        if self._pool is None:
            raise TrainingError("ProcessPoolBackend is closed; re-bind it")
        chunks = _chunk_bounds(len(selected), self.workers)
        tasks = [
            (
                round_index,
                learning_rate,
                global_params,
                *_chunk_clients(selected[start:stop], self._known_ids),
                self._sample_tasks,
            )
            for start, stop in chunks
        ]
        return self._collect(
            selected, chunks, self._pool.map(_process_worker_run, tasks), sink
        )


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
