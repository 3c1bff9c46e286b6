"""Checkpoint cost against the length of the run.

Times :func:`repro.fl.checkpoint.save_checkpoint` and
:func:`~repro.fl.checkpoint.load_checkpoint` on synthetic state the size
of a paper-scale run — Q = 10⁴ devices, N = 1000 selected per round, a
P = 13002-parameter model — after R ∈ {1, 10, 30, 100, 300} rounds:

* ``save ms``: the save of round R, with the history log already
  holding rounds 1..R-1 from the same run, as the trainer pays it;
* ``load ms``: :func:`load_checkpoint` of that file;
* ``history ms``: the first ``checkpoint.history`` access after a load,
  which reads and verifies the R-round log prefix once, on resume;
* ``bytes``: the checkpoint file, then the history log.

The state other than the history (ledger and selection counters of N
rows, Q channel gains) is held fixed, so every difference across R is
the history's. Run it standalone::

    PYTHONPATH=src python benchmarks/bench_checkpoint_long.py
    PYTHONPATH=src python benchmarks/bench_checkpoint_long.py --rounds 1 10 --repeats 3

Under pytest, :func:`test_long_history_smoke` runs R ≤ 10.
"""

import argparse
import os
import statistics
import tempfile
import time

import numpy as np

from repro.energy.accounting import EnergyLedger
from repro.fl.checkpoint import (
    HistoryLog,
    TrainerCheckpoint,
    history_path,
    load_checkpoint,
    save_checkpoint,
)
from repro.fl.history import RoundRecord
from repro.network.tdma import RoundTimeline

USERS = 10_000
SELECTED = 1000
PARAMS = 13_002
ROUNDS = (1, 10, 30, 100, 300)


def synthetic_records(rounds, users=USERS, selected=SELECTED, seed=0):
    """``rounds`` records, each selecting ``selected`` of ``users`` ids."""
    rng = np.random.default_rng(seed)
    records = []
    for index in range(1, rounds + 1):
        ids = rng.choice(users, size=selected, replace=False).tolist()
        frequencies = rng.uniform(0.3e9, 2.0e9, size=selected).tolist()
        records.append(
            RoundRecord(
                round_index=index,
                selected_ids=tuple(ids),
                frequencies=dict(zip(ids, frequencies)),
                round_delay=float(rng.uniform(5, 50)),
                round_energy=float(rng.uniform(1, 10)),
                compute_energy=float(rng.uniform(0, 1)),
                upload_energy=float(rng.uniform(0, 1)),
                slack=float(rng.uniform(0, 5)),
                cumulative_time=float(index * 20.0),
                cumulative_energy=float(index * 5.0),
                train_loss=float(rng.uniform(0, 2)),
                test_accuracy=float(rng.uniform(0, 1)),
                test_loss=float(rng.uniform(0, 2)),
            )
        )
    return records


def synthetic_checkpoint(records, users=USERS, selected=SELECTED, seed=0):
    """A checkpoint after ``records``, with fixed-size state beside them."""
    rng = np.random.default_rng(seed + 1)
    ids = np.arange(users, dtype=np.int64)
    ledger = EnergyLedger()
    ledger.record_round(
        RoundTimeline(
            device_ids=rng.choice(users, size=selected, replace=False),
            compute_energy=rng.uniform(0, 1, size=selected),
            upload_energy=rng.uniform(0, 1, size=selected),
            slack=rng.uniform(0, 1, size=selected),
        )
    )
    return TrainerCheckpoint(
        round_index=len(records),
        label="HELCFL",
        strategy_class="GreedyDecaySelection",
        model_params=rng.normal(size=PARAMS),
        cumulative_time=float(len(records) * 20.0),
        cumulative_energy=float(len(records) * 5.0),
        ledger=ledger.column_state(),
        device_ids=ids,
        channel_gains=rng.uniform(1e-7, 1e-6, size=users),
        selection_state={
            "appearance_counts": {str(i): 1 for i in range(selected)}
        },
        records=records,
    )


def _median_ms(samples):
    return 1000.0 * statistics.median(samples)


def measure(rounds, directory, repeats=5):
    """The row of one round count: save/load/history ms and bytes."""
    records = synthetic_records(rounds)
    before = synthetic_checkpoint(records[:-1])
    after = synthetic_checkpoint(records)
    path = os.path.join(directory, f"r{rounds}.json")
    saves, loads, reads = [], [], []
    for _ in range(repeats):
        log = HistoryLog()
        save_checkpoint(path, before, log)  # the log holds rounds 1..R-1
        start = time.perf_counter()
        save_checkpoint(path, after, log)
        saves.append(time.perf_counter() - start)
        start = time.perf_counter()
        loaded = load_checkpoint(path)
        loads.append(time.perf_counter() - start)
        start = time.perf_counter()
        history = loaded.history
        reads.append(time.perf_counter() - start)
        assert history == tuple(records)
    return {
        "rounds": rounds,
        "save_ms": _median_ms(saves),
        "load_ms": _median_ms(loads),
        "history_ms": _median_ms(reads),
        "checkpoint_bytes": os.path.getsize(path),
        "history_bytes": os.path.getsize(history_path(path)),
    }


def table(rows):
    lines = [
        "| rounds in history | " + " | ".join(str(r["rounds"]) for r in rows) + " |",
        "|---|" + "---|" * len(rows),
    ]
    for key, label, fmt in (
        ("checkpoint_bytes", "checkpoint bytes", "{:,.0f}"),
        ("history_bytes", "history log bytes", "{:,.0f}"),
        ("save_ms", "save ms", "{:.1f}"),
        ("load_ms", "load ms", "{:.1f}"),
        ("history_ms", "history read ms (on resume)", "{:.1f}"),
    ):
        cells = " | ".join(fmt.format(row[key]) for row in rows)
        lines.append(f"| {label} | {cells} |")
    return "\n".join(lines)


def test_long_history_smoke(tmp_path):
    rows = [measure(rounds, str(tmp_path), repeats=2) for rounds in (1, 10)]
    sizes = [row["checkpoint_bytes"] for row in rows]
    assert max(sizes) - min(sizes) <= 8  # only digits of counts move


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, nargs="+", default=list(ROUNDS))
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as directory:
        rows = [measure(rounds, directory, args.repeats) for rounds in args.rounds]
    print(table(rows))
    first, last = rows[0], rows[-1]
    print(
        f"R={last['rounds']} / R={first['rounds']}: save "
        f"{last['save_ms'] / first['save_ms']:.2f}x, load "
        f"{last['load_ms'] / first['load_ms']:.2f}x"
    )


if __name__ == "__main__":
    main()
