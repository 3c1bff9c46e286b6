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

import json
import os
from typing import Dict, Optional, Union

from repro import wire
from repro.errors import SerializationError
from repro.experiments.fig2 import Fig2Result
from repro.experiments.fig3 import Fig3Entry, Fig3Result
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


def _write(path: PathLike, schema: str, payload: dict) -> None:
    document = {"schema": schema, "version": _VERSION, "payload": payload}
    with open(os.fspath(path), "w", encoding="utf-8") as handle:
        json.dump(document, handle)


def _read(path: PathLike, schema: str) -> dict:
    try:
        document = wire.read_json(path, SerializationError, schema)
    except FileNotFoundError as exc:
        raise SerializationError(
            f"cannot read artifact {path!r}: {exc}"
        ) from exc
    payload = document.get("payload")
    if not isinstance(payload, dict):
        raise SerializationError(f"{path!r} carries no artifact payload")
    return payload


# ----------------------------------------------------------------------
# Training histories
# ----------------------------------------------------------------------
def save_history(history: TrainingHistory, path: PathLike) -> None:
    """Write one training history to ``path``."""
    _write(path, "repro.history", history.to_dict())


def load_history(path: PathLike) -> TrainingHistory:
    """Load a history saved by :func:`save_history`."""
    return TrainingHistory.from_dict(_read(path, "repro.history"), str(path))


# ----------------------------------------------------------------------
# Fig. 2
# ----------------------------------------------------------------------
def save_fig2(result: Fig2Result, path: PathLike) -> None:
    """Write a Fig. 2 panel (all strategy histories) to ``path``."""
    payload = {
        "iid": result.iid,
        "histories": {
            name: history.to_dict()
            for name, history in result.histories.items()
        },
    }
    _write(path, "repro.fig2", payload)


def load_fig2(path: PathLike) -> Fig2Result:
    """Load a Fig. 2 panel saved by :func:`save_fig2`."""
    payload = _read(path, "repro.fig2")
    return Fig2Result(
        iid=bool(payload["iid"]),
        histories={
            name: TrainingHistory.from_dict(raw)
            for name, raw in payload["histories"].items()
        },
    )


# ----------------------------------------------------------------------
# Table I
# ----------------------------------------------------------------------
def save_table1(result: Table1Result, path: PathLike) -> None:
    """Write a Table I half to ``path``."""
    payload = {
        "iid": result.iid,
        "targets": list(result.targets),
        "delays": {
            name: {str(t): v for t, v in per_target.items()}
            for name, per_target in result.delays.items()
        },
    }
    _write(path, "repro.table1", payload)


def load_table1(path: PathLike) -> Table1Result:
    """Load a Table I half saved by :func:`save_table1`."""
    payload = _read(path, "repro.table1")
    targets = tuple(float(t) for t in payload["targets"])
    delays: Dict[str, Dict[float, Optional[float]]] = {}
    for name, per_target in payload["delays"].items():
        delays[name] = {
            float(t): (None if v is None else float(v))
            for t, v in per_target.items()
        }
    return Table1Result(iid=bool(payload["iid"]), targets=targets, delays=delays)


# ----------------------------------------------------------------------
# Fig. 3
# ----------------------------------------------------------------------
def save_fig3(result: Fig3Result, path: PathLike) -> None:
    """Write a Fig. 3 panel to ``path``."""
    payload = {
        "iid": result.iid,
        "entries": [
            {
                "target": entry.target,
                "energy_with_dvfs": entry.energy_with_dvfs,
                "energy_without_dvfs": entry.energy_without_dvfs,
                "reduction_fraction": entry.reduction_fraction,
            }
            for entry in result.entries
        ],
        "dvfs_history": result.dvfs_history.to_dict(),
        "max_frequency_history": result.max_frequency_history.to_dict(),
    }
    _write(path, "repro.fig3", payload)


def load_fig3(path: PathLike) -> Fig3Result:
    """Load a Fig. 3 panel saved by :func:`save_fig3`."""
    payload = _read(path, "repro.fig3")
    entries = [
        Fig3Entry(
            target=float(raw["target"]),
            energy_with_dvfs=raw["energy_with_dvfs"],
            energy_without_dvfs=raw["energy_without_dvfs"],
            reduction_fraction=raw["reduction_fraction"],
        )
        for raw in payload["entries"]
    ]
    return Fig3Result(
        iid=bool(payload["iid"]),
        entries=entries,
        dvfs_history=TrainingHistory.from_dict(payload["dvfs_history"]),
        max_frequency_history=TrainingHistory.from_dict(
            payload["max_frequency_history"]
        ),
    )
