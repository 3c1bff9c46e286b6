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
* :class:`ThreadPoolBackend` — one chunk per thread, each with its own
  scratch model; numpy releases the GIL inside BLAS calls, so the
  matmul-heavy forward/backward passes genuinely overlap;
* :class:`ProcessPoolBackend` — one chunk per process, the workers
  forked at ``bind`` with the model and the bound datasets; a round
  sends each worker one task (ids, learning rate, broadcast vector) over
  its own pipe and reads one reply (trained rows and losses);
* ``SharedMemoryProcessPoolBackend`` (:mod:`repro.fl.shm`, registry
  name ``"process+shm"``) — the same workers, with the broadcast and
  trained vectors in ``multiprocessing.shared_memory`` blocks.

A pool of ``workers=W`` cuts at most ``W`` chunks, balanced by
``|D_q|`` (:func:`_chunk_bounds`), and trains them at once: the calling
thread trains the first chunk itself, straight into the round's sink,
while ``W - 1`` threads or forked processes train the rest. ``W = 1``
therefore starts no thread and forks no process. Forked workers run
BLAS on one thread (:mod:`repro.blas`), and so does the parent while
they train; the thread pool's chunks run under the caller's setting.

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
update matrix is kept: the first chunk trains block by block into the
sink's reused buffer, so each block is folded while it is still in
cache; a pool folds each later chunk once it and every chunk before it
are in, while the chunks after it still train (``process+shm`` straight
from its shared result block).
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import pickle
import signal
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from itertools import repeat
from multiprocessing.reduction import ForkingPickler
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

from repro.blas import blas_threads, one_blas_thread, set_blas_threads
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
    one, for the round's train loss.
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
                round_index, global_params, selected, learning_rate, sink or kept, samples
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
        samples: np.ndarray,
    ) -> np.ndarray:
        """Train ``selected`` (``|D_q|`` in ``samples``) into ``sink``; return the losses."""
        raise NotImplementedError

    def _train_first(
        self, scratch, round_index, global_params, devices, learning_rate, sink, losses
    ) -> None:
        """Train ``devices``, the selection's first chunk, in the calling
        thread, each block straight into ``sink``."""
        chunk_losses, sample = _train_chunk(
            scratch,
            self._spec,
            round_index,
            learning_rate,
            global_params,
            devices,
            sink,
            self._sample_tasks,
        )
        losses[: len(devices)] = chunk_losses
        self._record_chunk(0, len(devices), sample)

    def _take_chunk(self, sink, losses, start, stop, rows, chunk_losses, sample) -> None:
        """Hand a pool chunk to ``sink``; pools call it in selection order,
        not completion order, so the fold and the span sequence are
        deterministic."""
        sink.take(start, rows)
        losses[start:stop] = chunk_losses
        self._record_chunk(start, stop, sample)

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


def _chunk_bounds(samples: np.ndarray, workers: int) -> List[Tuple[int, int]]:
    """``(start, stop)`` of the contiguous chunks a pool of ``workers`` trains.

    At most ``workers`` chunks, none empty, together covering the
    selection in order. Training cost grows with ``|D_q|``, so the cut
    balances ``samples``: client ``i`` joins chunk ``k`` when the midpoint
    of its samples in the running total lies in the ``k``-th of
    ``workers`` equal parts, and a chunk holds at most one part plus one
    client's samples. Rows do not depend on the cut, so backend parity
    is unaffected.
    """
    weights = np.asarray(samples, dtype=np.float64)
    if not weights.size:
        return []
    if not weights.sum() > 0:
        weights = np.ones(weights.size)
    ends = np.cumsum(weights)
    parts = (ends - weights / 2) * (workers / ends[-1])
    cuts = np.searchsorted(parts, np.arange(1, workers)).tolist()
    bounds = zip([0, *cuts], [*cuts, weights.size])
    return [(start, stop) for start, stop in bounds if stop > start]


def _check_workers(workers: Optional[int]) -> Optional[int]:
    if workers is not None and workers <= 0:
        raise ConfigurationError(
            f"workers must be positive when given, got {workers}"
        )
    return workers


def _chunk_count(workers: Optional[int]) -> int:
    """How many chunks a pool of ``workers`` trains at once (``None``: one per core)."""
    return workers or os.cpu_count() or 1


class SerialBackend(ExecutionBackend):
    """The whole selection as one chunk on one shared scratch model."""

    name = "serial"

    def __init__(self) -> None:
        super().__init__()
        self._scratch: Optional[Sequential] = None

    def _bind(self, model_template, spec, devices) -> None:
        del devices
        self._scratch = model_template.clone()

    def _run(self, round_index, global_params, selected, learning_rate, sink, samples):
        losses = np.empty(len(selected))
        self._train_first(
            self._scratch, round_index, global_params, selected, learning_rate, sink, losses
        )
        return losses


class ThreadPoolBackend(ExecutionBackend):
    """One chunk of the selection per thread.

    The calling thread trains the first chunk straight into the sink;
    a pool of ``workers - 1`` threads trains the others, each into rows
    of its own, which are taken in selection order once the first chunk
    is done. Every thread lazily clones its own scratch model
    (thread-local), so concurrent chunks never share layer buffers.
    numpy's BLAS kernels drop the GIL, which is where the overlap comes
    from.

    Args:
        workers: chunks trained at once; ``None`` uses ``os.cpu_count()``.
            ``1`` starts no thread.
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
        threads = _chunk_count(self.workers) - 1
        if threads:  # an executor of no thread is refused
            self._pool = ThreadPoolExecutor(
                max_workers=threads, thread_name_prefix="repro-client"
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

    def _run(self, round_index, global_params, selected, learning_rate, sink, samples):
        from concurrent.futures import wait

        if self._local is None:
            raise TrainingError("ThreadPoolBackend is closed; re-bind it")
        sampling = self._sample_tasks
        size = np.size(global_params)

        def task(start: int, stop: int):
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

        losses = np.empty(len(selected))
        bounds = _chunk_bounds(samples, _chunk_count(self.workers))
        if not bounds:
            return losses
        (_, own), rest = bounds[0], bounds[1:]
        futures = [self._pool.submit(task, start, stop) for start, stop in rest]
        try:
            self._train_first(
                self._scratch(),
                round_index,
                global_params,
                selected[:own],
                learning_rate,
                sink,
                losses,
            )
            for (start, stop), future in zip(rest, futures):
                self._take_chunk(sink, losses, start, stop, *future.result())
        finally:
            wait(futures)  # no thread outlives its round
        return losses


# -- process-pool workers -------------------------------------------------
def _worker_loop(pipe, inherited, scratch, spec, datasets, transport, log_level) -> None:
    """One worker process: train one chunk per task until the ``None`` sentinel.

    All but the tasks arrives once, at fork. ``inherited`` are the
    parent's pipe ends a fork copies (this worker's own too); closed, a
    dead parent reads as end-of-file. Ctrl-C is the parent's to handle,
    and a failure goes back as the reply. BLAS runs on one thread: the
    workers and the parent already share out the cores.
    """
    for end in inherited:
        end.close()
    set_blas_threads(1)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if log_level is not None:
        from repro.obs import configure_logging

        configure_logging(log_level)
    try:
        for task in iter(pipe.recv, None):
            try:
                reply = True, _worker_task(task, scratch, spec, datasets, transport)
            except Exception as error:
                reply = False, error
            try:
                _send_reply(pipe, reply)
            except Exception as error:  # the reply does not pickle; no byte was sent
                _send_reply(pipe, (False, TrainingError(f"worker reply does not pickle: {error!r}")))
    except (EOFError, OSError):
        pass  # the parent is gone


def _send_reply(pipe, reply) -> None:
    """Send ``reply``, its arrays' bytes as raw messages after it: a row
    block copied into a pickle and out again costs four times as much."""
    buffers: list = []
    head = pickle.dumps(reply, protocol=5, buffer_callback=buffers.append)
    pipe.send((head, [buffer.raw().nbytes for buffer in buffers]))
    for buffer in buffers:
        pipe.send_bytes(buffer.raw())


def _recv_reply(pipe):
    """The reply :func:`_send_reply` sent; its arrays are writable."""
    head, sizes = pipe.recv()
    buffers = [np.empty(size, dtype=np.uint8) for size in sizes]
    for buffer in buffers:
        pipe.recv_bytes_into(buffer)
    return pickle.loads(head, buffers=buffers)


def _worker_task(task, scratch, spec, datasets, transport):
    """Train one task's chunk into the reply ``(rows or None, losses, sample)``.

    ``shipped`` holds the datasets of devices that joined after ``bind``;
    the chunk's views of the transport die with the call.
    """
    round_index, learning_rate, params, first_slot, device_ids, shipped, sample = task
    clients = [
        _WorkerClient(i, shipped[i] if i in shipped else datasets[i]) for i in device_ids
    ]
    start_params, rows, replied = transport.open(params, first_slot, len(clients))
    losses, taken = _train_chunk(
        scratch, spec, round_index, learning_rate, start_params, clients, rows, sample
    )
    return replied, losses, taken


class _Workers:
    """``count`` worker processes, forked once, each on its own pipe.

    A round sends worker ``k`` exactly one task, trains the parent's own
    chunk, and reads exactly one reply from each worker. ``closed`` is
    set once the set is stopped: by :meth:`close`, or by a round that
    found a worker dead or was cut short. ``count`` may be zero.
    """

    def __init__(self, count: int, state: tuple) -> None:
        self._pipes: list = []
        self._processes: List[multiprocessing.Process] = []
        self.closed = False
        blas_threads()  # the lookup resolved once, here, for every fork
        for _ in range(count):
            ours, theirs = multiprocessing.Pipe()
            process = multiprocessing.Process(
                target=_worker_loop,
                args=(theirs, (*self._pipes, ours), *state),
                name="repro-client",
                daemon=True,
            )
            process.start()
            theirs.close()
            self._pipes.append(ours)
            self._processes.append(process)

    def __len__(self) -> int:
        return len(self._processes)

    def round(self, tasks: Sequence[tuple], take, own) -> None:
        """Send task ``k`` to worker ``k``, call ``own()``, then hand each
        reply to ``take(k, reply)``.

        ``own`` trains the parent's chunk while the workers train
        theirs, on one BLAS thread as they do; the parent's setting is
        restored after it. Replies are handed over in worker order, and all are
        read even after a failure, so the pipes stay in step; the first
        failure (``own``'s, a worker's, or ``take``'s) is raised after
        the last reply. A worker that died, or an exchange cut short
        once a task is out (Ctrl-C), ends the set: every worker is
        reaped and ``closed`` is set.
        """
        payloads = [ForkingPickler.dumps(task).tobytes() for task in tasks]
        failure, k = None, 0
        try:
            for k, payload in enumerate(payloads):
                self._pipes[k].send_bytes(payload)
            try:
                with one_blas_thread() if payloads else nullcontext():
                    own()
            except Exception as error:
                failure = error
            for k in range(len(payloads)):
                ok, reply = _recv_reply(self._pipes[k])
                if failure is None:
                    try:
                        if not ok:
                            raise reply
                        take(k, reply)
                    except Exception as error:
                        failure = error
        except (EOFError, OSError):
            dead = self._processes[k]
            self.close(terminate=True)
            raise TrainingError(
                f"client worker pid {dead.pid} died (exit code {dead.exitcode})"
            ) from None
        except BaseException:
            if payloads:
                self.close(terminate=True)  # the pipes are out of step
            raise
        if failure is not None:
            raise failure

    def close(self, terminate: bool = False) -> None:
        """Stop and reap every worker: the sentinel (SIGTERM after a grace
        period), or SIGTERM at once if ``terminate``."""
        self.closed = True
        for pipe, process in zip(self._pipes, self._processes):
            if terminate:
                process.terminate()
                continue
            try:
                pipe.send(None)
            except OSError:
                pass  # already dead: the join reaps it
        for pipe, process in zip(self._pipes, self._processes):
            process.join(timeout=10.0)
            if process.exitcode is None:
                process.terminate()
                process.join()
            pipe.close()
        self._pipes, self._processes = [], []


class _WorkerClient(NamedTuple):
    """What a pool worker knows of a device: all ``train_clients`` reads."""

    device_id: int
    dataset: ArrayDataset


def _chunk_clients(
    devices: Sequence[UserDevice], known_ids: set
) -> Tuple[List[int], Dict[int, ArrayDataset]]:
    """A chunk as a pool task carries it: ids, plus unbound datasets.

    Devices bound at ``bind`` travel as their id alone; one that joined
    later ships its dataset with the task.
    """
    ids = [device.device_id for device in devices]
    return ids, {d.device_id: d.dataset for d in devices if d.device_id not in known_ids}


class _PickledRows:
    """A ``process`` worker's transport: the broadcast vector comes with
    the task and the trained rows go back pickled in the reply."""

    @staticmethod
    def open(global_params, first_slot, count):
        """The start vector, the chunk's rows, and what the reply carries."""
        rows = np.empty((count, np.size(global_params)))
        return global_params, rows, rows


class ProcessPoolBackend(ExecutionBackend):
    """One chunk of the selection per process.

    ``bind`` forks ``workers - 1`` workers with the model template, the
    local-update spec and every bound device's dataset; a round's tasks
    then carry only device ids, the learning rate and the broadcast
    vector, one contiguous chunk per worker, and the parent trains the
    first chunk itself while the workers train theirs. Devices that
    appear at run time without having been bound fall back to shipping
    their dataset with the task.

    A failing chunk leaves the backend usable: the round raises the
    first error in selection order once every reply is in. A worker
    that dies ends the backend: the round raises :class:`TrainingError`
    naming its pid and exit code, and every worker is reaped.

    Args:
        workers: chunks trained at once; ``None`` uses ``os.cpu_count()``.
            ``1`` forks no worker.
        log_level: when given, each worker process re-applies this
            logging level when it starts, so worker-side warnings
            surface on stderr.
    """

    name = "process"

    def __init__(self, workers: Optional[int] = None, log_level=None) -> None:
        super().__init__()
        self.workers = _check_workers(workers)
        self.log_level = log_level
        self._pool: Optional[_Workers] = None
        self._scratch: Optional[Sequential] = None
        self._known_ids: set = set()

    def _bind(self, model_template, spec, devices) -> None:
        self.close()
        datasets = {d.device_id: d.dataset for d in devices}
        self._known_ids = set(datasets)
        # The parent's scratch; each forked worker trains on its own copy.
        self._scratch = model_template.clone()
        forked = _chunk_count(self.workers) - 1
        transport = self._transport(model_template.parameter_count) if forked else None
        self._pool = _Workers(
            forked, (self._scratch, spec, datasets, transport, self.log_level)
        )

    def _transport(self, param_count: int):
        """The workers' side of the parameter traffic."""
        return _PickledRows()

    def _send_params(self, global_params: np.ndarray, count: int):
        """What a task carries for the broadcast vector, with ``count``
        clients in the workers' chunks."""
        return global_params

    def _rows(self, start: int, stop: int, replied, sink: RowSink) -> np.ndarray:
        """The trained rows of slots ``start:stop`` (the workers' clients,
        counted from the first one), as the reply brought them."""
        return replied

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def _run(self, round_index, global_params, selected, learning_rate, sink, samples):
        if self._pool is None:
            raise TrainingError(f"{type(self).__name__} is closed; re-bind it")
        losses = np.empty(len(selected))
        bounds = _chunk_bounds(samples, len(self._pool) + 1)
        if not bounds:
            return losses
        (_, own), forked = bounds[0], bounds[1:]
        # Worker slots count from the first client after the parent's chunk.
        params = self._send_params(global_params, len(selected) - own) if forked else None
        tasks = [
            (
                round_index,
                learning_rate,
                params,
                start - own,
                *_chunk_clients(selected[start:stop], self._known_ids),
                self._sample_tasks,
            )
            for start, stop in forked
        ]
        train_own = functools.partial(
            self._train_first,
            self._scratch,
            round_index,
            global_params,
            selected[:own],
            learning_rate,
            sink,
            losses,
        )

        def take(k: int, reply) -> None:
            start, stop = forked[k]
            rows, chunk_losses, sample = reply
            rows = self._rows(start - own, stop - own, rows, sink)
            self._take_chunk(sink, losses, start, stop, rows, chunk_losses, sample)

        try:
            self._pool.round(tasks, take, train_own)
        finally:
            if self._pool.closed:  # the workers are gone: release the rest too
                self.close()
        return losses


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
