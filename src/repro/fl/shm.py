"""Zero-copy shared-memory transport for the process-pool backend.

:class:`ProcessPoolBackend` pickles the broadcast flat vector into every
task and sends every trained vector back through a pipe — ``2 * Q * P *
8`` bytes through pipes per round for ``Q`` selected clients and ``P``
parameters. This module removes both and keeps the rest of that backend
(workers, chunks, failure handling):

* the parent writes the broadcast vector once per round into a shared
  ``multiprocessing.shared_memory`` block; workers map it read-only;
* each worker trains its contiguous chunk of the selection and writes
  the results directly into that chunk's slot range of a shared result
  block;
* a task therefore carries only scalars and device ids —
  ``(round_index, learning_rate, result_block_name, first_slot,
  device_ids, ...)`` — and a reply only the chunk's losses.

Lifecycle: :class:`SharedArrayPool` creates the broadcast block when the
backend binds, grows the result block on demand (generation-numbered
names, old generations unlinked immediately), and unlinks everything on
``close()`` — also when a dead worker closed the backend. ``__del__``
and an ``atexit`` hook unlink best-effort so an abandoned backend cannot
leak ``/dev/shm`` segments past interpreter exit.
"""

from __future__ import annotations

import atexit
import itertools
import os
from multiprocessing import shared_memory
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, TrainingError
from repro.fl.client import RowSink
from repro.fl.execution import ProcessPoolBackend, _KeptRows

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


class _SharedRows:
    """A ``process+shm`` worker's transport: the broadcast vector and the
    trained rows stay in the parent's shared blocks.

    Attaching normally registers a segment with the resource tracker,
    which would make worker exits unlink (or warn about) blocks they
    merely mapped (CPython issue bpo-38119). The parent alone owns
    unlinking, so registration is suppressed for the duration of the
    attach (Python 3.13's ``track=False``, backported by monkeypatch).
    """

    def __init__(self, broadcast_name: str, param_count: int) -> None:
        self.broadcast_name = broadcast_name
        self.param_count = param_count
        self._segments: dict = {}

    def _attach(self, name: str) -> shared_memory.SharedMemory:
        """Map (once) the parent-owned block ``name``; forget superseded ones."""
        segment = self._segments.get(name)
        if segment is None:
            from multiprocessing import resource_tracker

            original_register = resource_tracker.register
            resource_tracker.register = lambda *args, **kwargs: None
            try:
                segment = shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original_register
            for stale in set(self._segments) - {self.broadcast_name}:
                self._segments.pop(stale).close()
            self._segments[name] = segment
        return segment

    def open(self, result_name: str, first_slot: int, count: int):
        """The broadcast vector (read-only), the chunk's result rows, and
        no rows for the reply: they are already in the result block."""
        size = self.param_count
        global_params = np.ndarray(
            (size,), dtype=np.float64, buffer=self._attach(self.broadcast_name).buf
        )
        global_params.flags.writeable = False
        rows = np.ndarray(
            (count, size),
            dtype=np.float64,
            buffer=self._attach(result_name).buf,
            offset=first_slot * size * _FLOAT_BYTES,
        )
        return global_params, rows, None


class SharedMemoryProcessPoolBackend(ProcessPoolBackend):
    """The process pool whose parameter traffic runs through shared memory.

    Bitwise equivalent to every other backend: workers read the exact
    broadcast float64 vector the parent wrote and the parent reads back
    the exact trained vectors, so a fixed seed reproduces the identical
    history and ledger.

    Args:
        workers: number of worker processes; ``None`` uses ``os.cpu_count()``.
        log_level: when given, each worker process re-applies this
            logging level when it starts.
    """

    name = "process+shm"

    def __init__(self, workers: Optional[int] = None, log_level=None) -> None:
        super().__init__(workers, log_level)
        self._shm: Optional[SharedArrayPool] = None

    def _transport(self, param_count: int) -> _SharedRows:
        self._shm = SharedArrayPool(param_count)
        return _SharedRows(self._shm.broadcast_name, param_count)

    def _send_params(self, global_params: np.ndarray, count: int) -> str:
        self._shm.broadcast_view()[...] = np.asarray(global_params, dtype=np.float64).ravel()
        return self._shm.ensure_result_slots(count)

    def _rows(self, start: int, stop: int, replied, sink: RowSink) -> np.ndarray:
        rows = self._shm.result_view(stop)[start:stop]
        # A sink that keeps rows gets a copy: the shared block is reused
        # next round. The trainer's fold reads it in place.
        return rows.copy() if isinstance(sink, _KeptRows) else rows

    def close(self) -> None:
        super().close()
        if self._shm is not None:
            self._shm.close()
            self._shm = None
