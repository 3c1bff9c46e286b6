"""Zero-copy shared-memory transport for the process-pool backend.

:class:`ProcessPoolBackend` pickles the broadcast flat vector into every
task and pickles every trained vector back — ``2 * Q * P * 8`` bytes of
serialization per round for ``Q`` selected clients and ``P`` parameters.
This module removes both copies:

* the trainer writes the broadcast vector once into a shared
  ``multiprocessing.shared_memory`` block; workers map it read-only;
* each worker trains one contiguous chunk of the selection and writes
  the results directly into that chunk's slot range of a shared result
  block;
* a task therefore carries only scalars and device ids —
  ``(round_index, learning_rate, result_block_name, first_slot,
  device_ids, ...)`` — and a result only the chunk's losses.

Datasets stay resident in worker state across rounds exactly as in the
plain process pool.

Lifecycle: :class:`SharedArrayPool` creates the broadcast block when the
backend binds, grows the result block on demand (generation-numbered
names, old generations unlinked immediately), and unlinks everything on
``close()``. ``__del__`` and an ``atexit`` hook unlink best-effort so an
abandoned backend cannot leak ``/dev/shm`` segments past interpreter
exit.
"""

from __future__ import annotations

import atexit
import itertools
import os
from multiprocessing import shared_memory
from typing import Optional, Sequence

import numpy as np

from repro.devices.device import UserDevice
from repro.errors import ConfigurationError, TrainingError
from repro.fl.execution import (
    ExecutionBackend,
    LocalUpdateSpec,
    _check_workers,
    _chunk_bounds,
    _chunk_clients,
    _KeptRows,
    _train_chunk,
    _worker_clients,
)
from repro.nn.model import Sequential

__all__ = ["SharedArrayPool", "SharedMemoryProcessPoolBackend"]

_FLOAT_BYTES = 8  # float64 throughout, matching get_flat_params

_pool_counter = itertools.count()


def _unique_base() -> str:
    """Return a per-pool unique shared-memory name stem.

    The pid keeps concurrently running trainers apart; the counter keeps
    sequential pools within one process apart.
    """
    return f"repro{os.getpid()}x{next(_pool_counter)}"


class SharedArrayPool:
    """Owns the shared blocks one backend instance rounds-trips through.

    One *broadcast block* holds the global flat vector (written by the
    parent each round, mapped read-only by workers). One *result block*
    holds ``slots`` contiguous flat vectors, one per selected client;
    it is created lazily at the first round and regrown (fresh
    generation name, old block unlinked) when a round selects more
    clients than any round before.

    Args:
        param_count: flat-vector length ``P`` (float64 entries).
    """

    def __init__(self, param_count: int) -> None:
        if param_count < 0:
            raise ConfigurationError(
                f"param_count must be non-negative, got {param_count}"
            )
        self.param_count = int(param_count)
        self._base = _unique_base()
        self._broadcast: Optional[shared_memory.SharedMemory] = (
            shared_memory.SharedMemory(
                create=True,
                size=max(self.param_count * _FLOAT_BYTES, 1),
                name=f"{self._base}bc",
            )
        )
        self._result: Optional[shared_memory.SharedMemory] = None
        self._result_slots = 0
        self._generation = 0
        self._closed = False
        atexit.register(self.close)

    # -- parent-side views ---------------------------------------------
    @property
    def broadcast_name(self) -> str:
        """Shared-memory name of the broadcast block."""
        self._check_open()
        return self._broadcast.name

    @property
    def result_name(self) -> str:
        """Name of the current result block (empty before first round)."""
        return self._result.name if self._result is not None else ""

    def broadcast_view(self) -> np.ndarray:
        """Writable 1-D float64 view of the broadcast block."""
        self._check_open()
        return np.ndarray(
            (self.param_count,), dtype=np.float64, buffer=self._broadcast.buf
        )

    def ensure_result_slots(self, slots: int) -> str:
        """Grow the result block to hold ``slots`` vectors; return its name.

        Growth allocates a fresh generation-named block and unlinks the
        previous one immediately (attached workers keep their mapping
        alive until they attach the new name).
        """
        self._check_open()
        if slots <= 0:
            return self.result_name
        if self._result is None or slots > self._result_slots:
            if self._result is not None:
                self._result.close()
                self._result.unlink()
            self._generation += 1
            self._result = shared_memory.SharedMemory(
                create=True,
                size=max(slots * self.param_count * _FLOAT_BYTES, 1),
                name=f"{self._base}r{self._generation}",
            )
            self._result_slots = slots
        return self._result.name

    def result_view(self, slots: int) -> np.ndarray:
        """Float64 view ``(slots, param_count)`` of the result block."""
        self._check_open()
        if self._result is None or slots > self._result_slots:
            raise TrainingError(
                f"result block holds {self._result_slots} slots, "
                f"requested {slots}"
            )
        return np.ndarray(
            (slots, self.param_count),
            dtype=np.float64,
            buffer=self._result.buf,
        )

    # -- lifecycle ------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise TrainingError("SharedArrayPool is closed")

    def close(self) -> None:
        """Unlink every owned block (idempotent)."""
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self.close)
        for segment in (self._broadcast, self._result):
            if segment is not None:
                try:
                    segment.close()
                    segment.unlink()
                except (FileNotFoundError, OSError):
                    pass
        self._broadcast = None
        self._result = None
        self._result_slots = 0

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass


# -- worker plumbing (module level for picklability) -------------------
_SHM_WORKER_STATE: dict = {}


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach (and cache) a parent-owned shared block by name.

    Attaching normally registers the segment with the resource tracker,
    which would make worker exits unlink (or warn about) blocks they
    merely mapped (CPython issue bpo-38119). The parent alone owns
    unlinking, so registration is suppressed for the duration of the
    attach (Python 3.13's ``track=False``, backported by monkeypatch).
    """
    cache = _SHM_WORKER_STATE["segments"]
    segment = cache.get(name)
    if segment is None:
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            segment = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register
        cache[name] = segment
    return segment


def _prune_stale_results(current_name: str) -> None:
    """Drop cached mappings of superseded result-block generations."""
    cache = _SHM_WORKER_STATE["segments"]
    stale = [
        name
        for name in cache
        if name != current_name
        and name != _SHM_WORKER_STATE["broadcast_name"]
    ]
    for name in stale:
        try:
            cache.pop(name).close()
        except Exception:
            pass


def _shm_worker_init(
    model: Sequential,
    spec: LocalUpdateSpec,
    datasets: dict,
    broadcast_name: str,
    param_count: int,
    log_level=None,
) -> None:
    """Build one worker's scratch model, dataset cache, and shm state.

    Deliberate process-pool initializer pattern: each pool *process*
    runs this exactly once, before any task, so its copy of
    ``_SHM_WORKER_STATE`` is populated single-threaded. ``log_level``
    re-applies the parent's logging configuration so worker-side
    warnings surface on stderr.
    """
    if log_level is not None:
        from repro.obs import configure_logging

        configure_logging(log_level)
    _SHM_WORKER_STATE["scratch"] = model
    _SHM_WORKER_STATE["spec"] = spec
    _SHM_WORKER_STATE["datasets"] = datasets
    _SHM_WORKER_STATE["broadcast_name"] = broadcast_name
    _SHM_WORKER_STATE["param_count"] = param_count
    _SHM_WORKER_STATE["segments"] = {}


def _shm_worker_run(task):
    """Train one chunk; parameters move only through shared memory."""
    (
        round_index,
        learning_rate,
        result_name,
        first_slot,
        device_ids,
        shipped,
        sample,
    ) = task
    state = _SHM_WORKER_STATE
    clients = _worker_clients(device_ids, shipped, state["datasets"])
    count = state["param_count"]
    broadcast = _attach_segment(state["broadcast_name"])
    global_params = np.ndarray(
        (count,), dtype=np.float64, buffer=broadcast.buf
    )
    global_params.flags.writeable = False
    result = _attach_segment(result_name)
    _prune_stale_results(result_name)
    slots = np.ndarray(
        (len(clients), count),
        dtype=np.float64,
        buffer=result.buf,
        offset=first_slot * count * _FLOAT_BYTES,
    )
    # The resource sample is taken in the *worker* process and returns
    # with the chunk's losses; parameters stay in shared memory.
    return _train_chunk(
        state["scratch"],
        state["spec"],
        round_index,
        learning_rate,
        global_params,
        clients,
        slots,
        sample,
    )


class SharedMemoryProcessPoolBackend(ExecutionBackend):
    """Process pool whose parameter traffic runs through shared memory.

    Bitwise equivalent to every other backend: workers read the exact
    broadcast float64 vector the parent wrote and the parent reads back
    the exact trained vectors, so a fixed seed reproduces the identical
    history and ledger.

    Args:
        workers: pool size; ``None`` uses ``os.cpu_count()``.
        log_level: when given, each worker process re-applies this
            logging level at pool start-up.
    """

    name = "process+shm"

    def __init__(
        self, workers: Optional[int] = None, log_level=None
    ) -> None:
        super().__init__()
        self.workers = _check_workers(workers)
        self.log_level = log_level
        self._pool = None
        self._shm: Optional[SharedArrayPool] = None
        self._known_ids: set = set()

    def _bind(
        self,
        model_template: Sequential,
        spec: LocalUpdateSpec,
        devices: Sequence[UserDevice],
    ) -> None:
        from concurrent.futures import ProcessPoolExecutor

        self.close()
        datasets = {d.device_id: d.dataset for d in devices}
        self._known_ids = set(datasets)
        self._shm = SharedArrayPool(model_template.parameter_count)
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_shm_worker_init,
            initargs=(
                model_template.clone(),
                spec,
                datasets,
                self._shm.broadcast_name,
                self._shm.param_count,
                self.log_level,
            ),
        )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._shm is not None:
            self._shm.close()
            self._shm = None

    def _run(self, round_index, global_params, selected, learning_rate, sink):
        if self._pool is None:
            raise TrainingError(
                "SharedMemoryProcessPoolBackend is closed; re-bind it"
            )
        if not selected:
            return np.empty(0)
        shm = self._shm
        shm.broadcast_view()[...] = np.asarray(
            global_params, dtype=np.float64
        ).ravel()
        result_name = shm.ensure_result_slots(len(selected))
        bounds = _chunk_bounds(len(selected), self.workers)
        tasks = [
            (
                round_index,
                learning_rate,
                result_name,
                start,
                *_chunk_clients(selected[start:stop], self._known_ids),
                self._sample_tasks,
            )
            for start, stop in bounds
        ]
        view = shm.result_view(len(selected))
        # A sink that keeps rows gets a copy: the shared block is reused
        # next round. The trainer's fold reads it in place.
        copy = isinstance(sink, _KeptRows)
        results = (
            (view[start:stop].copy() if copy else view[start:stop], *chunk)
            for (start, stop), chunk in zip(
                bounds, self._pool.map(_shm_worker_run, tasks)
            )
        )
        return self._collect(selected, bounds, results, sink)
