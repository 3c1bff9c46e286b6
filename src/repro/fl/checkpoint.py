"""Atomic, checksummed trainer checkpoints.

A checkpoint freezes everything the training loop mutates across
rounds — global model parameters, the energy ledger, battery charges,
channel gains, the selection strategy's counters/RNG streams, the
plateau detector, and the history so far — so a killed run resumes
from its last checkpoint bitwise-identical to an uninterrupted one.

File format (version :data:`CHECKPOINT_VERSION`)::

    {"schema": "repro.trainer-checkpoint", "version": 1,
     "sha256": "<hex digest of the canonical state JSON>",
     "state": {...}}

Design rules:

* **Exactness.** Floats round-trip through JSON exactly (``repr``
  shortest round-trip); numpy arrays are stored as base64 of their
  little-endian bytes plus dtype/shape
  (:func:`repro.wire.encode_array`), so restored parameters are
  bitwise equal to the captured ones.
* **Atomicity.** :func:`save_checkpoint` writes through
  :func:`repro.wire.write_atomic` (temporary file in the target
  directory, fsync, ``os.replace``) — a ``SIGKILL`` mid-write leaves
  either the previous checkpoint or none, never a torn one.
* **Self-verification.** The sha256 over the canonical state JSON lets
  :func:`load_checkpoint` reject truncated or bit-rotted files with a
  :class:`~repro.errors.SerializationError`; callers then fall back to
  trace reconstruction (see :mod:`repro.campaign.resume`).
* **Versioning.** The state layout is :class:`TrainerCheckpoint`'s
  fields; any change to it must bump :data:`CHECKPOINT_VERSION` (see
  CONTRIBUTING); loaders reject versions they do not know instead of
  guessing.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro import wire
from repro.errors import SerializationError

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CHECKPOINT_VERSION",
    "TrainerCheckpoint",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_SCHEMA = "repro.trainer-checkpoint"
CHECKPOINT_VERSION = 1


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
        history: ``TrainingHistory.to_dict()`` of the rounds so far.
        cumulative_time: simulated clock, seconds.
        cumulative_energy: total energy, joules.
        ledger: per-device energy totals plus ``rounds_recorded``.
        batteries: remaining charge (J) per battery-backed device id.
        channel_gains: current channel gain per device id.
        selection_state: the strategy's ``state_dict()``.
        plateau: plateau-detector state (best/stale_count/converged),
            None when convergence checking is off.
        best_model_params: best-accuracy model snapshot (None unless
            ``keep_best_model`` captured one).
        best_model_accuracy: accuracy of ``best_model_params``.
    """

    round_index: int
    label: str
    strategy_class: str
    model_params: np.ndarray
    history: dict
    cumulative_time: float
    cumulative_energy: float
    ledger: dict
    batteries: Dict[int, float]
    channel_gains: Dict[int, float]
    selection_state: dict = field(default_factory=dict)
    plateau: Optional[dict] = None
    best_model_params: Optional[np.ndarray] = None
    best_model_accuracy: float = 0.0

    def to_state(self) -> dict:
        """The JSON-ready ``state`` payload (arrays encoded)."""
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


def _canonical(state: dict) -> str:
    """The canonical JSON text the checksum is computed over."""
    return json.dumps(state, sort_keys=True, separators=(",", ":"))


def _digest(state: dict) -> str:
    return hashlib.sha256(_canonical(state).encode("utf-8")).hexdigest()


def save_checkpoint(path: str, checkpoint: TrainerCheckpoint) -> None:
    """Atomically write ``checkpoint`` to ``path``.

    The state is JSON-encoded once, with two control characters as
    separators: JSON escapes every control character inside a string,
    so those can only be separators, and replacing them gives both the
    canonical text the checksum covers and the file's spaced text. A
    crash at any point leaves the previous checkpoint (or nothing)
    intact (:func:`repro.wire.write_atomic`).
    """
    text = json.dumps(checkpoint.to_state(), sort_keys=True, separators=("\x00", "\x01"))
    canonical = text.replace("\x00", ",").replace("\x01", ":")
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    # The file is _CheckpointFile.save's text with the state written in.
    head, tail = _CheckpointFile(CHECKPOINT_VERSION, digest, {}).to_json().split("{}")
    spaced = text.replace("\x00", ", ").replace("\x01", ": ")
    wire.write_atomic(path, "".join((head, spaced, tail, "\n")))


def load_checkpoint(path: str) -> TrainerCheckpoint:
    """Load and verify a checkpoint written by :func:`save_checkpoint`.

    Raises:
        SerializationError: the file is not valid JSON, carries an
            unknown schema/version, fails its checksum (torn or
            bit-rotted), or decodes into a malformed state.
        FileNotFoundError: no checkpoint exists at ``path``.
    """
    document = _CheckpointFile.load(path)
    if document.version != CHECKPOINT_VERSION:
        raise SerializationError(
            f"checkpoint {path} has version {document.version!r}; this "
            f"build reads version {CHECKPOINT_VERSION} only"
        )
    if _digest(document.state) != document.sha256:
        raise SerializationError(
            f"checkpoint {path} failed its checksum (torn write or "
            "corruption)"
        )
    where = f"checkpoint {path} state"
    return wire.load(TrainerCheckpoint, document.state, where)
