"""The version-1 checkpoint writer ``src/`` shipped until checkpoints
moved their history to an append-only log.

A version-1 state held the whole history, the ledger as its
``{id: totals}`` map and the batteries and channel gains as
``{id: value}`` maps, all inside one key-sorted, checksummed document.
Tests write version-1 files with it to check that they still load,
resume and re-save byte for byte.
"""

import hashlib
import json
import math

from repro import wire
from repro.energy.accounting import EnergyLedger
from repro.fl.checkpoint import CHECKPOINT_SCHEMA


def state_v1(checkpoint) -> dict:
    """``checkpoint``'s state in the version-1 layout."""
    ledger = EnergyLedger()
    ledger.load_column_state(checkpoint.ledger)
    ids = checkpoint.device_ids.tolist()
    gains = checkpoint.channel_gains.tolist()
    charges = (
        [math.nan] * len(ids)
        if checkpoint.battery_charges is None
        else checkpoint.battery_charges.tolist()
    )
    best = checkpoint.best_model_params
    return {
        "round_index": checkpoint.round_index,
        "label": checkpoint.label,
        "strategy_class": checkpoint.strategy_class,
        "model_params": wire.encode_array(checkpoint.model_params),
        "history": {
            "label": checkpoint.label,
            "stop_reason": None,
            "records": [wire.dump(record) for record in checkpoint.history],
        },
        "cumulative_time": checkpoint.cumulative_time,
        "cumulative_energy": checkpoint.cumulative_energy,
        "ledger": ledger.state_dict(),
        "batteries": {
            str(i): c for i, c in zip(ids, charges) if not math.isnan(c)
        },
        "channel_gains": {
            str(i): g for i, g in zip(ids, gains) if not math.isnan(g)
        },
        "selection_state": checkpoint.selection_state,
        "plateau": checkpoint.plateau,
        "best_model_params": None if best is None else wire.encode_array(best),
        "best_model_accuracy": checkpoint.best_model_accuracy,
    }


def save_checkpoint_v1(path: str, checkpoint) -> None:
    """Write ``checkpoint`` to ``path`` as a version-1 file."""
    state = state_v1(checkpoint)
    canonical = json.dumps(state, sort_keys=True, separators=(",", ":"))
    document = {
        "schema": CHECKPOINT_SCHEMA,
        "version": 1,
        "sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "state": state,
    }
    wire.write_atomic(path, json.dumps(document, sort_keys=True) + "\n")
