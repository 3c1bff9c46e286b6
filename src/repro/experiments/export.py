"""Saving and loading experiment artifacts.

Every run artifact (training histories, Fig. 2 / Table I / Fig. 3
results) serializes to a JSON document with a schema header, so result
directories survive library upgrades and can be diffed, archived, and
re-rendered without re-running experiments.

Layout convention::

    results/
      fig2_iid.json          # one document per artifact
      table1_noniid.json
      run_helcfl_iid.json

Each document carries ``{"schema": "...", "version": 1, "payload":
{...}}``; loaders validate the schema name before decoding.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Tuple, Union

from repro import wire
from repro.errors import SerializationError
from repro.experiments.fig2 import Fig2Result
from repro.experiments.fig3 import Fig3Result
from repro.experiments.table1 import Table1Result
from repro.fl.history import TrainingHistory

__all__ = [
    "save_history",
    "load_history",
    "save_fig2",
    "load_fig2",
    "save_table1",
    "load_table1",
    "save_fig3",
    "load_fig3",
]

_VERSION = 1
PathLike = Union[str, os.PathLike]


@wire.record
@dataclass(frozen=True)
class _Fig2Payload:
    """Fig. 2 on the wire. ``histories`` (strategy -> history) has no
    ``wire.SHAPES`` row; :func:`load_fig2` checks each value."""

    iid: bool
    histories: dict


@wire.record
@dataclass(frozen=True)
class _Table1Payload:
    """Table I on the wire. ``delays`` (strategy -> target -> seconds
    or null) has no ``wire.SHAPES`` row; :func:`load_table1` checks it."""

    iid: bool
    targets: Tuple[float, ...]
    delays: dict


@wire.record
@dataclass(frozen=True)
class _Artifact(wire.Document):
    """The envelope of every artifact file; a subclass names the
    ``schema`` marker and the record its ``payload`` ``holds``."""

    noun = "artifact"

    version: int
    payload: dict


class _HistoryFile(_Artifact):
    schema, holds = "repro.history", TrainingHistory


class _Fig2File(_Artifact):
    schema, holds = "repro.fig2", _Fig2Payload


class _Table1File(_Artifact):
    schema, holds = "repro.table1", _Table1Payload


class _Fig3File(_Artifact):
    schema, holds = "repro.fig3", Fig3Result


def _write(artifact: type, path: PathLike, payload) -> None:
    document = artifact(_VERSION, wire.dump(payload))
    wire.write_atomic(path, document.to_json())  # no trailing newline


def _read(artifact: type, path: PathLike):
    """The record in the payload of the ``artifact`` file at ``path``;
    every failure is a :class:`SerializationError` naming the file."""
    try:
        document = artifact.load(path)
    except FileNotFoundError as exc:
        raise SerializationError(
            f"cannot read artifact {path!r}: {exc}"
        ) from exc
    if document.version != _VERSION:
        raise SerializationError(
            f"artifact {path} has version {document.version}; this build "
            f"reads version {_VERSION} only"
        )
    return wire.load(artifact.holds, document.payload, f"artifact {path}.payload")


# ----------------------------------------------------------------------
# Training histories
# ----------------------------------------------------------------------
def save_history(history: TrainingHistory, path: PathLike) -> None:
    """Write one training history to ``path``."""
    _write(_HistoryFile, path, history)


def load_history(path: PathLike) -> TrainingHistory:
    """Load a history saved by :func:`save_history`."""
    return _read(_HistoryFile, path)


# ----------------------------------------------------------------------
# Fig. 2
# ----------------------------------------------------------------------
def save_fig2(result: Fig2Result, path: PathLike) -> None:
    """Write a Fig. 2 panel (all strategy histories) to ``path``."""
    histories = {
        name: history.to_dict() for name, history in result.histories.items()
    }
    _write(_Fig2File, path, _Fig2Payload(result.iid, histories))


def load_fig2(path: PathLike) -> Fig2Result:
    """Load a Fig. 2 panel saved by :func:`save_fig2`."""
    payload = _read(_Fig2File, path)
    where = f"artifact {path}.payload.histories"
    histories = {
        name: TrainingHistory.from_dict(raw, f"{where}[{name!r}]")
        for name, raw in payload.histories.items()
    }
    return Fig2Result(payload.iid, histories)


# ----------------------------------------------------------------------
# Table I
# ----------------------------------------------------------------------
def save_table1(result: Table1Result, path: PathLike) -> None:
    """Write a Table I half to ``path``."""
    delays = {
        name: {str(t): v for t, v in per_target.items()}
        for name, per_target in result.delays.items()
    }
    payload = _Table1Payload(result.iid, result.targets, delays)
    _write(_Table1File, path, payload)


def load_table1(path: PathLike) -> Table1Result:
    """Load a Table I half saved by :func:`save_table1`."""
    payload = _read(_Table1File, path)
    try:
        delays = {
            name: {
                float(t): (None if v is None else float(v))
                for t, v in per_target.items()
            }
            for name, per_target in payload.delays.items()
        }
    except (AttributeError, TypeError, ValueError) as exc:
        raise SerializationError(
            f"artifact {path}.payload.delays is not a strategy -> target "
            f"-> seconds map: {exc}"
        ) from exc
    return Table1Result(payload.iid, payload.targets, delays)


# ----------------------------------------------------------------------
# Fig. 3
# ----------------------------------------------------------------------
def save_fig3(result: Fig3Result, path: PathLike) -> None:
    """Write a Fig. 3 panel to ``path``."""
    _write(_Fig3File, path, result)


def load_fig3(path: PathLike) -> Fig3Result:
    """Load a Fig. 3 panel saved by :func:`save_fig3`."""
    return _read(_Fig3File, path)
