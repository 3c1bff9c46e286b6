"""Saving experiment artifacts.

Every run artifact (training histories, Fig. 2 / Table I / Fig. 3
results) serializes to a JSON document with a schema header, so result
directories can be diffed and archived.

Layout convention::

    results/
      fig2_iid.json          # one document per artifact
      table1_noniid.json
      run_helcfl_iid.json

Each document carries ``{"schema": "...", "version": 1, "payload":
{...}}``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Tuple, Union

from repro import wire
from repro.experiments.fig2 import Fig2Result
from repro.experiments.fig3 import Fig3Result
from repro.experiments.table1 import Table1Result
from repro.fl.history import TrainingHistory

__all__ = ["save_history", "save_fig2", "save_table1", "save_fig3"]

_VERSION = 1
PathLike = Union[str, os.PathLike]


@wire.record
@dataclass(frozen=True)
class _Fig2Payload:
    """Fig. 2 on the wire: ``histories`` maps strategy -> history."""

    iid: bool
    histories: dict


@wire.record
@dataclass(frozen=True)
class _Table1Payload:
    """Table I on the wire: ``delays`` maps strategy -> target ->
    seconds or null."""

    iid: bool
    targets: Tuple[float, ...]
    delays: dict


@wire.record
@dataclass(frozen=True)
class _Artifact(wire.Document):
    """The envelope of every artifact file; a subclass names the
    ``schema`` marker."""

    noun = "artifact"

    version: int
    payload: dict


class _HistoryFile(_Artifact):
    schema = "repro.history"


class _Fig2File(_Artifact):
    schema = "repro.fig2"


class _Table1File(_Artifact):
    schema = "repro.table1"


class _Fig3File(_Artifact):
    schema = "repro.fig3"


def _write(artifact: type, path: PathLike, payload) -> None:
    document = artifact(_VERSION, wire.dump(payload))
    wire.write_atomic(path, document.to_json())  # no trailing newline


def save_history(history: TrainingHistory, path: PathLike) -> None:
    """Write one training history to ``path``."""
    _write(_HistoryFile, path, history)


def save_fig2(result: Fig2Result, path: PathLike) -> None:
    """Write a Fig. 2 panel (all strategy histories) to ``path``."""
    histories = {
        name: history.to_dict() for name, history in result.histories.items()
    }
    _write(_Fig2File, path, _Fig2Payload(result.iid, histories))


def save_table1(result: Table1Result, path: PathLike) -> None:
    """Write a Table I half to ``path``."""
    delays = {
        name: {str(t): v for t, v in per_target.items()}
        for name, per_target in result.delays.items()
    }
    payload = _Table1Payload(result.iid, result.targets, delays)
    _write(_Table1File, path, payload)


def save_fig3(result: Fig3Result, path: PathLike) -> None:
    """Write a Fig. 3 panel to ``path``."""
    _write(_Fig3File, path, result)
