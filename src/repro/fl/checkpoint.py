"""Atomic, checksummed trainer checkpoints and their append-only history.

A checkpoint freezes everything the training loop carries across
rounds — global model parameters, the energy ledger, battery charges,
channel gains, the selection strategy's counters/RNG streams, the
plateau detector — so a killed run resumes from its last checkpoint
bitwise-identical to an uninterrupted one. The rounds so far are not in
it: each round's :class:`~repro.fl.history.RoundRecord` is one line of
the history log beside it (:func:`history_path`), appended as the run
goes, and the checkpoint names the prefix of that log it covers.

Files (version :data:`CHECKPOINT_VERSION`)::

    checkpoint.json
    {"schema": "repro.trainer-checkpoint", "version": 2,
     "sha256": "<hex digest of the canonical state JSON>",
     "state": {..., "history": {"lines": 12, "sha256": "<hex>",
                                "size": 40960}}}

    checkpoint.history.jsonl    (one RoundRecord per line, round order)
    {"round_index": 1, "selected_ids": [...], "frequencies": {...}, ...}

Design rules:

* **Exactness.** Floats round-trip through JSON exactly (``repr``
  shortest round-trip); numpy arrays are stored as base64 of their
  little-endian bytes plus dtype/shape
  (:func:`repro.wire.encode_array`), so restored parameters are
  bitwise equal to the captured ones. A record's line keeps its
  ``frequencies`` in insertion order, so a resumed history's JSON is
  byte-equal to an uninterrupted one's.
* **O(N + P) per save.** The fleet-sized state — device ids, channel
  gains, battery charges, the ledger — is stored as ``encode_array``
  columns, and a save appends only the rounds since the previous save
  of the same run to the log, so its cost does not grow with the round
  count.
* **Atomicity.** The log's new lines are appended and fsynced before
  :func:`repro.wire.write_atomic` replaces the checkpoint that counts
  them, so a ``SIGKILL`` anywhere leaves the previous checkpoint (or
  none) and at worst lines past its count — the torn tail
  :func:`repro.campaign.runner.truncate_trace` cuts from traces, here
  cut by the stored byte count and dropped when the resumed run's
  first save rewrites the log.
* **Self-verification.** The sha256 over the canonical state lets
  :func:`load_checkpoint` reject truncated or bit-rotted files with a
  :class:`~repro.errors.SerializationError`; the log prefix is checked
  against its stored size and sha256 when it is read
  (:attr:`TrainerCheckpoint.history`). Callers then start the run
  over (see :mod:`repro.campaign.runner`).
* **Versioning.** The state layout is :class:`TrainerCheckpoint`'s
  fields plus ``history``; any change to it must bump
  :data:`CHECKPOINT_VERSION` (see CONTRIBUTING). Loaders reject
  versions they do not know instead of guessing.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import operator
import os
from dataclasses import InitVar, dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro import wire
from repro.errors import SerializationError
from repro.fl.history import RoundRecord, TrainingHistory

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CHECKPOINT_VERSION",
    "HistoryLog",
    "HistoryPrefix",
    "TrainerCheckpoint",
    "history_path",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_SCHEMA = "repro.trainer-checkpoint"
CHECKPOINT_VERSION = 2
"""Version 2 moved the history out of the state into the append-only
log and stores ids, channel gains, battery charges and the ledger as
columns. A version-1 state held the whole history and those as JSON
maps, so every save re-encoded every past round and two fleet-sized
maps; version-1 files still load (:func:`load_checkpoint`)."""

_EMPTY_SHA256 = hashlib.sha256().hexdigest()


def history_path(path: str) -> str:
    """The history log beside the checkpoint at ``path``:
    ``runs/a/checkpoint.json`` → ``runs/a/checkpoint.history.jsonl``."""
    return os.path.splitext(path)[0] + ".history.jsonl"


@wire.record
@dataclass(frozen=True)
class HistoryPrefix:
    """The part of a history log a checkpoint covers: its first
    ``lines`` lines, ``size`` bytes whose sha256 is ``sha256``."""

    lines: int = 0
    size: int = 0
    sha256: str = _EMPTY_SHA256


@wire.record
@dataclass(frozen=True, eq=False)
class TrainerCheckpoint:
    """Frozen mid-run trainer state, captured at a round boundary.

    Attributes:
        round_index: last fully completed round (1-based); resuming
            continues with ``round_index + 1``.
        label: the run's history label.
        strategy_class: class name of the selection strategy the
            snapshot belongs to — resuming under a different strategy
            is refused rather than silently wrong.
        model_params: flat global model parameters after aggregation.
        cumulative_time: simulated clock, seconds.
        cumulative_energy: total energy, joules.
        ledger: the energy ledger's
            :meth:`~repro.energy.accounting.EnergyLedger.column_state`.
        device_ids: the fleet's ids in population order.
        channel_gains: current channel gain per ``device_ids`` entry
            (NaN: not recorded).
        battery_charges: remaining charge (J) per ``device_ids`` entry,
            NaN for a device without a battery; None when none has one.
        selection_state: the strategy's ``state_dict()``.
        plateau: plateau-detector state (best/stale_count/converged),
            None when convergence checking is off.
        best_model_params: best-accuracy model snapshot (None unless
            ``keep_best_model`` captured one).
        best_model_accuracy: accuracy of ``best_model_params``.
        records: not state — the rounds so far (:attr:`history`), or a
            loaded checkpoint's reader of them.
    """

    round_index: int
    label: str
    strategy_class: str
    model_params: np.ndarray
    cumulative_time: float
    cumulative_energy: float
    ledger: dict
    device_ids: np.ndarray
    channel_gains: np.ndarray
    battery_charges: Optional[np.ndarray] = None
    selection_state: dict = field(default_factory=dict)
    plateau: Optional[dict] = None
    best_model_params: Optional[np.ndarray] = None
    best_model_accuracy: float = 0.0
    records: InitVar[
        Union[Sequence[RoundRecord], Callable[[], Tuple[RoundRecord, ...]]]
    ] = ()

    def __post_init__(self, records) -> None:
        object.__setattr__(self, "_records", records)

    @property
    def history(self) -> Tuple[RoundRecord, ...]:
        """The rounds so far, in round order.

        A :func:`load_checkpoint` result reads them from its history
        log on first access, cut to the prefix the checkpoint covers
        and verified against its sha256.

        Raises:
            SerializationError: the log is missing, shorter than the
                covered prefix, or fails its checksum.
        """
        records = self._records
        if callable(records):
            records = records()
            object.__setattr__(self, "_records", records)
        return tuple(records)

    def to_state(self) -> dict:
        """The JSON-ready state without its ``history`` entry (arrays
        encoded)."""
        return wire.dump(self)


@wire.record
@dataclass(frozen=True)
class _CheckpointFile(wire.Document):
    """The file around a state: marker, version, checksum (module
    docstring); the checksum is over :func:`_canonical` ``state``."""

    noun = "checkpoint"
    schema = CHECKPOINT_SCHEMA
    format = dict(sort_keys=True)

    version: int
    sha256: str
    state: dict


@wire.record
@dataclass(frozen=True, eq=False)
class _StateV1:
    """A version-1 state: the history and the per-device maps inline."""

    round_index: int
    label: str
    strategy_class: str
    model_params: np.ndarray
    history: TrainingHistory
    cumulative_time: float
    cumulative_energy: float
    ledger: dict
    batteries: Dict[int, float]
    channel_gains: Dict[int, float]
    selection_state: dict = field(default_factory=dict)
    plateau: Optional[dict] = None
    best_model_params: Optional[np.ndarray] = None
    best_model_accuracy: float = 0.0


def _canonical(state: dict) -> str:
    """The canonical JSON text the checksum is computed over."""
    return json.dumps(state, sort_keys=True, separators=(",", ":"))


def _digest(state: dict) -> str:
    return hashlib.sha256(_canonical(state).encode("utf-8")).hexdigest()


class HistoryLog:
    """What one run has written to a history log, so its next save
    appends only the new rounds.

    A trainer keeps one per run and hands it to every
    :func:`save_checkpoint`. The first save, a save to another file, or
    one that finds the file changed since (another inode or size)
    rewrites the file atomically; the others append and fsync.
    """

    def __init__(self) -> None:
        self._records: list = []  # what the file holds, in order
        self._file = None  # (path, inode, size) after the last write
        self._sha = hashlib.sha256()

    def sync(self, path: str, records: Sequence[RoundRecord]) -> HistoryPrefix:
        """Make ``path`` hold one line per record; the prefix it covers.
        No records need no file."""
        if not records:
            return HistoryPrefix()
        try:
            stat = os.stat(path)
            found = (path, stat.st_ino, stat.st_size)
        except FileNotFoundError:
            found = None
        written = self._records
        if not (
            found == self._file
            and len(written) <= len(records)
            and all(map(operator.is_, written, records))
        ):
            written, self._file, self._sha = [], None, hashlib.sha256()
            self._records = written
        new = records[len(written):]
        text = "".join(map(RoundRecord.__line__.line, new))
        data = text.encode("utf-8")
        if self._file is None:
            wire.write_atomic(path, text)
        elif data:
            with open(path, "ab") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
        written += new
        self._sha.update(data)
        stat = os.stat(path)
        self._file = (path, stat.st_ino, stat.st_size)
        return HistoryPrefix(len(written), stat.st_size, self._sha.hexdigest())


def _read_history(log_path: str, prefix: HistoryPrefix) -> Tuple[RoundRecord, ...]:
    """The records of ``log_path``'s first ``prefix.size`` bytes, which
    must be ``prefix.lines`` whole lines matching ``prefix.sha256``.
    Lines past them are a torn tail and never read."""
    try:
        with open(log_path, "rb") as handle:
            data = handle.read(prefix.size)
    except OSError as exc:
        raise SerializationError(f"history log {log_path}: cannot read: {exc}") from exc
    if len(data) < prefix.size:
        raise SerializationError(
            f"history log {log_path} holds {len(data)} bytes; its checkpoint "
            f"covers the first {prefix.size} ({prefix.lines} rounds)"
        )
    if hashlib.sha256(data).hexdigest() != prefix.sha256:
        raise SerializationError(
            f"history log {log_path} failed its checksum over the "
            f"{prefix.lines} rounds its checkpoint covers"
        )
    lines = data.decode("utf-8").splitlines(keepends=True)
    reader = wire.read_jsonl(
        lines, SerializationError, log_path, lambda payload: wire.load(RoundRecord, payload)
    )
    records = tuple(record for _, record in reader)
    if reader.torn is not None or len(records) != prefix.lines:
        raise SerializationError(
            f"history log {log_path} holds {len(records)} whole rounds where "
            f"its checkpoint covers {prefix.lines}"
        )
    return records


def save_checkpoint(
    path: str, checkpoint: TrainerCheckpoint, log: Optional[HistoryLog] = None
) -> None:
    """Bring the history log beside ``path`` up to ``checkpoint``'s
    rounds, then atomically write the checkpoint to ``path``.

    ``log`` is the run's :class:`HistoryLog`, through which a run's
    saves append only their new rounds; without one the log file is
    rewritten.

    The state is JSON-encoded once, with two control characters as
    separators: JSON escapes every control character inside a string,
    so those can only be separators, and replacing them gives both the
    canonical text the checksum covers and the file's spaced text. A
    crash at any point leaves the previous checkpoint (or nothing)
    intact (:func:`repro.wire.write_atomic`).
    """
    log = HistoryLog() if log is None else log
    prefix = log.sync(history_path(path), checkpoint.history)
    state = checkpoint.to_state()
    state["history"] = wire.dump(prefix)
    text = json.dumps(state, sort_keys=True, separators=("\x00", "\x01"))
    canonical = text.replace("\x00", ",").replace("\x01", ":")
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    # The file is _CheckpointFile.save's text with the state written in.
    head, tail = _CheckpointFile(CHECKPOINT_VERSION, digest, {}).to_json().split("{}")
    spaced = text.replace("\x00", ", ").replace("\x01", ": ")
    wire.write_atomic(path, "".join((head, spaced, tail, "\n")))


def _from_v1(state: dict, where: str) -> TrainerCheckpoint:
    """A version-1 state as a checkpoint; its history is inline. (Its
    ``frequencies`` maps were written key-sorted, so their original
    order is lost.)"""
    # Function-local: repro.energy's package init imports repro.fl.
    from repro.energy.accounting import EnergyLedger

    old = wire.load(_StateV1, state, where)
    ledger = EnergyLedger()
    ledger.load_state_dict(old.ledger)
    gains, batteries = old.channel_gains, old.batteries
    ids = list(dict.fromkeys([*gains, *batteries]))
    kept = (
        "round_index", "label", "strategy_class", "model_params",
        "cumulative_time", "cumulative_energy", "selection_state", "plateau",
        "best_model_params", "best_model_accuracy",
    )
    return TrainerCheckpoint(
        **{name: getattr(old, name) for name in kept},
        ledger=ledger.column_state(),
        device_ids=np.array(ids, dtype=np.int64),
        channel_gains=np.array([gains.get(i, np.nan) for i in ids], dtype=float),
        battery_charges=(
            np.array([batteries.get(i, np.nan) for i in ids], dtype=float)
            if batteries
            else None
        ),
        records=old.history.records,
    )


def load_checkpoint(path: str) -> TrainerCheckpoint:
    """Load and verify a checkpoint written by :func:`save_checkpoint`.

    Reads the checkpoint file and checks that its history log holds at
    least the covered prefix; the prefix itself is read and verified on
    the first access to :attr:`TrainerCheckpoint.history`, so loading
    costs O(N + P) whatever the round count. A version-1 file loads
    with its inline history.

    Raises:
        SerializationError: the file is not valid JSON, carries an
            unknown schema/version, fails its checksum (torn or
            bit-rotted), or decodes into a malformed state; or its
            history log is missing or shorter than the covered prefix.
        FileNotFoundError: no checkpoint exists at ``path``.
    """
    document = _CheckpointFile.load(path)
    if document.version not in (1, CHECKPOINT_VERSION):
        raise SerializationError(
            f"checkpoint {path} has version {document.version!r}; this "
            f"build reads versions 1 and {CHECKPOINT_VERSION}"
        )
    if _digest(document.state) != document.sha256:
        raise SerializationError(
            f"checkpoint {path} failed its checksum (torn write or "
            "corruption)"
        )
    where = f"checkpoint {path} state"
    if document.version == 1:
        return _from_v1(document.state, where)
    state = dict(document.state)
    prefix = wire.load(HistoryPrefix, state.pop("history", None), f"{where}.history")
    checkpoint = wire.load(TrainerCheckpoint, state, where)
    if not prefix.lines:
        return checkpoint
    log_path = history_path(path)
    try:
        size = os.path.getsize(log_path)
    except OSError as exc:
        raise SerializationError(
            f"checkpoint {path} covers {prefix.lines} rounds of history "
            f"log {log_path}, which cannot be read: {exc}"
        ) from exc
    if size < prefix.size:
        raise SerializationError(
            f"history log {log_path} holds {size} bytes; checkpoint "
            f"{path} covers the first {prefix.size} ({prefix.lines} rounds)"
        )
    return dataclasses.replace(
        checkpoint, records=functools.partial(_read_history, log_path, prefix)
    )
