"""Per-device energy ledger.

Aggregates the per-round TDMA timelines of a training run into
per-device compute/communication energy totals — useful for fairness
analyses ("which devices pay for training?") and for battery studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, NoReturn

import numpy as np

from repro import wire
from repro.errors import SerializationError, TrainingError
from repro.network.tdma import RoundTimeline
from repro.sequential import sequential_sum

__all__ = ["DeviceEnergy", "EnergyLedger"]


@dataclass
class DeviceEnergy:
    """Accumulated energy of one device across a run.

    Attributes:
        device_id: the device.
        compute_joules: total Eq. (5) energy.
        upload_joules: total Eq. (8) energy.
        rounds: number of rounds the device participated in.
        slack_seconds: total idle wait accumulated.
    """

    device_id: int
    compute_joules: float = 0.0
    upload_joules: float = 0.0
    rounds: int = 0
    slack_seconds: float = 0.0

    @property
    def total_joules(self) -> float:
        """Compute plus upload energy."""
        return self.compute_joules + self.upload_joules


# The ledger's columns, in :class:`DeviceEnergy`'s field order.
_COLUMNS = (
    "device_ids", "compute_joules", "upload_joules", "rounds", "slack_seconds"
)

_TABLE_IDS = 1 << 20
"""Ids in ``[0, _TABLE_IDS)`` find their row in an id-indexed int64
table, so the table never exceeds 8 MiB; the first id outside switches
a ledger to a sorted index for good."""


def _in_window(ids: np.ndarray) -> bool:
    """Whether every id of the non-empty ``ids`` has a table entry."""
    return int(ids.min()) >= 0 and int(ids.max()) < _TABLE_IDS


def _refuse_repeated(device_id) -> NoReturn:
    raise TrainingError(f"a round's timeline lists device {int(device_id)} twice")


class EnergyLedger:
    """Run-level energy accounting across all devices.

    Feed it every round's :class:`~repro.network.tdma.RoundTimeline`
    via :meth:`record_round`. The totals are five parallel arrays, one
    row per device in the order devices first appeared (ids are
    arbitrary int64; the ledger knows no population); a round is four
    fancy-indexed ``+=``, one add per device, since a timeline that
    repeats an id is refused.

    A round finds its rows with one gather from a private id-indexed
    table holding ``row + 1`` (0: not seen yet), which serves ids in
    ``[0, 2**20)`` and grows by doubling to the largest id seen. The
    first id outside that window (negative, or ``2**40``) switches the
    ledger to a sorted index of its ids for good. Neither is part of
    :meth:`state_dict` or :meth:`column_state`; a loaded snapshot picks
    its lookup from its ids.

    Attributes:
        device_ids: int64 ids, one row per device seen so far.
        compute_joules: total Eq. (5) energy per row.
        upload_joules: total Eq. (8) energy per row.
        rounds: int64 rounds each device participated in.
        slack_seconds: total idle wait per row.
        rounds_recorded: rounds folded in so far.
    """

    def __init__(self) -> None:
        self.load_state_dict({})  # no rows yet

    def _set_columns(self, rounds_recorded: int, *columns: np.ndarray) -> None:
        self.rounds_recorded = rounds_recorded
        for name, column in zip(_COLUMNS, columns):
            setattr(self, name, column)
        ids = self.device_ids
        self._table = np.zeros(0, dtype=np.int64)
        self._sorted_ids = self._sorted_rows = None
        if ids.shape[0] == 0 or _in_window(ids):
            self._grow_table(int(ids.max(initial=-1)))
            self._table[ids] = np.arange(1, ids.shape[0] + 1)
        else:
            self._sort_index()

    def _grow_table(self, top: int) -> None:
        """Make the id table cover ``top``, doubling (up to the window)."""
        size = self._table.shape[0]
        if top >= size:
            grown = np.zeros(min(max(2 * size, top + 1), _TABLE_IDS), dtype=np.int64)
            grown[:size] = self._table
            self._table = grown

    def _sort_index(self) -> None:
        """Leave the id table for good: the ids sorted, and the row each
        one lives in."""
        self._table = None
        self._sorted_rows = np.argsort(self.device_ids)
        self._sorted_ids = self.device_ids[self._sorted_rows]

    def _rows(self, order=slice(None)) -> Iterable[tuple]:
        """``(id, compute, upload, rounds, slack)`` per row, as scalars."""
        return zip(*(getattr(self, name)[order].tolist() for name in _COLUMNS))

    @property
    def devices(self) -> Dict[int, DeviceEnergy]:
        """Per-device :class:`DeviceEnergy` view of the columns, keyed by
        id in first-appearance order. Built on each access, for reports
        and tests; changing an entry does not change the ledger."""
        return {row[0]: DeviceEnergy(*row) for row in self._rows()}

    def _rows_of(self, ids: np.ndarray) -> np.ndarray:
        """Rows of ``ids``, adding a zeroed row per unseen id in timeline
        order; ids that repeat are refused before anything changes."""
        if ids.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        if self._table is not None:
            if _in_window(ids):
                return self._table_rows(ids)
            self._sort_index()
        return self._sorted_rows_of(ids)

    def _table_rows(self, ids: np.ndarray) -> np.ndarray:
        self._grow_table(int(ids.max()))
        table = self._table
        found = table[ids]  # row + 1, 0 for an unseen id
        # Uniqueness without a sort: each id's entry is written with its
        # position and read back (a repeated id reads another's), then
        # restored.
        order = np.arange(ids.shape[0])
        table[ids] = order
        back = table[ids]
        table[ids] = found
        if not np.array_equal(back, order):
            _refuse_repeated(ids[np.argmax(back != order)])
        rows = found - 1
        fresh = np.flatnonzero(found == 0)
        if fresh.shape[0]:
            start = self.device_ids.shape[0]
            rows[fresh] = np.arange(start, start + fresh.shape[0])
            table[ids[fresh]] = rows[fresh] + 1
            self._append(ids[fresh])
        return rows

    def _sorted_rows_of(self, ids: np.ndarray) -> np.ndarray:
        # Sorted needles let searchsorted walk forward: 4x faster at 10^4.
        by_id = np.argsort(ids)
        needles = ids[by_id]
        repeated = needles[1:] == needles[:-1]
        if repeated.any():
            _refuse_repeated(needles[np.argmax(repeated)])
        slot = np.empty_like(by_id)
        slot[by_id] = np.searchsorted(self._sorted_ids, needles)
        known = slot < self._sorted_ids.shape[0]
        known[known] = self._sorted_ids[slot[known]] == ids[known]
        rows = np.empty(ids.shape[0], dtype=np.int64)
        rows[known] = self._sorted_rows[slot[known]]
        if not known.all():
            fresh = by_id[~known[by_id]]  # unseen ids, ascending
            start = self.device_ids.shape[0]
            rows[~known] = np.arange(start, start + fresh.shape[0])
            self._append(ids[~known])
            # Two sorted runs: a stable sort merges them in one pass.
            merged = np.concatenate((self._sorted_ids, ids[fresh]))
            merge = np.argsort(merged, kind="stable")
            self._sorted_ids = merged[merge]
            self._sorted_rows = np.concatenate((self._sorted_rows, rows[fresh]))[merge]
        return rows

    def _append(self, ids: np.ndarray) -> None:
        """New zeroed rows for ``ids``, in the order given."""
        self.device_ids = np.concatenate((self.device_ids, ids))
        for name in _COLUMNS[1:]:
            column = getattr(self, name)
            zeros = np.zeros(ids.shape[0], column.dtype)
            setattr(self, name, np.concatenate((column, zeros)))

    def record_round(self, timeline: RoundTimeline) -> None:
        """Accumulate one round's per-user energies.

        Raises:
            TrainingError: when the timeline lists a device twice; the
                ledger is left as it was.
        """
        rows = self._rows_of(timeline.device_ids)
        self.compute_joules[rows] += timeline.compute_energy
        self.upload_joules[rows] += timeline.upload_energy
        self.slack_seconds[rows] += timeline.slack
        self.rounds[rows] += 1
        self.rounds_recorded += 1

    def record_rounds(self, timelines: Iterable[RoundTimeline]) -> None:
        """Accumulate a sequence of rounds."""
        for timeline in timelines:
            self.record_round(timeline)

    def state_dict(self) -> Dict:
        """JSON-serializable snapshot of the totals (checkpoint/resume).

        The layout is part of the checkpoint format: changing it means
        bumping :data:`repro.fl.checkpoint.CHECKPOINT_VERSION`.
        """
        return {
            "rounds_recorded": self.rounds_recorded,
            "devices": {
                str(device_id): {
                    "compute_joules": compute,
                    "upload_joules": upload,
                    "slack_seconds": slack,
                    "rounds": rounds,
                }
                for device_id, compute, upload, rounds, slack in self._rows(
                    np.argsort(self.device_ids)
                )
            },
        }

    def load_state_dict(self, state: Dict) -> None:
        """Replace the totals with a :meth:`state_dict` snapshot.

        Raises:
            SerializationError: when ``state`` is not such a snapshot,
                or holds a negative or non-finite total; the ledger is
                left as it was.
        """
        try:
            entries = state.get("devices", {})
            raws = list(entries.values())
            columns = (
                np.array([int(key) for key in entries], np.int64),
                np.array([float(raw["compute_joules"]) for raw in raws]),
                np.array([float(raw["upload_joules"]) for raw in raws]),
                np.array([int(raw["rounds"]) for raw in raws], np.int64),
                np.array([float(raw["slack_seconds"]) for raw in raws]),
            )
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise SerializationError(f"malformed energy-ledger state: {exc!r}") from exc
        self._load_columns(state, columns)

    def column_state(self) -> Dict:
        """The totals as :func:`repro.wire.encode_array` columns in row
        order, plus ``rounds_recorded``: what a checkpoint stores
        (:data:`repro.fl.checkpoint.CHECKPOINT_VERSION` 2), with no
        per-row object on either side."""
        state = {name: wire.encode_array(getattr(self, name)) for name in _COLUMNS}
        state["rounds_recorded"] = self.rounds_recorded
        return state

    def load_column_state(self, state: Dict) -> None:
        """Replace the totals with a :meth:`column_state` snapshot.

        Raises:
            SerializationError: as :meth:`load_state_dict`, and for a
                column of the wrong dtype or length.
        """
        try:
            columns = tuple(
                wire.decode_array(state[name]).astype(
                    np.int64 if name in ("device_ids", "rounds") else np.float64,
                    casting="safe",
                )
                for name in _COLUMNS
            )
        except (KeyError, TypeError) as exc:
            raise SerializationError(f"malformed energy-ledger state: {exc!r}") from exc
        if any(column.ndim != 1 or column.shape != columns[0].shape for column in columns):
            raise SerializationError(
                "malformed energy-ledger state: columns of shapes "
                f"{[column.shape for column in columns]}"
            )
        self._load_columns(state, columns)

    def _load_columns(self, state: Dict, columns: tuple) -> None:
        """Check a snapshot's ``rounds_recorded`` and columns, then
        adopt them (the ledger is left as it was when they fail)."""
        try:
            rounds_recorded = int(state.get("rounds_recorded", 0))
        except (AttributeError, OverflowError, TypeError, ValueError) as exc:
            raise SerializationError(f"malformed energy-ledger state: {exc!r}") from exc
        device_ids, compute, upload, rounds, slack = columns
        # Tested as "inside" so NaN, which fails every comparison, is
        # rejected along with +inf.
        inside = rounds >= 0
        for column in (compute, upload, slack):
            inside &= (column >= 0) & (column < np.inf)
        if not inside.all():
            raise SerializationError(
                f"malformed energy-ledger state: device {device_ids[inside.argmin()]} "
                "has a negative or non-finite total"
            )
        if rounds_recorded < 0:
            raise SerializationError(
                f"malformed energy-ledger state: rounds_recorded is {rounds_recorded}"
            )
        if np.unique(device_ids).shape != device_ids.shape:
            raise SerializationError("malformed energy-ledger state: a device id is listed twice")
        self._set_columns(rounds_recorded, *columns)

    # Left-to-right totals over rows in first-appearance order, as the
    # object ledger summed its devices.
    @property
    def total_joules(self) -> float:
        """Total energy across every device."""
        return sequential_sum(self.compute_joules + self.upload_joules)

    @property
    def total_compute_joules(self) -> float:
        """Total compute energy across every device."""
        return sequential_sum(self.compute_joules)

    @property
    def total_upload_joules(self) -> float:
        """Total upload energy across every device."""
        return sequential_sum(self.upload_joules)

    def heaviest_devices(self, count: int = 5) -> list:
        """The ``count`` devices with the highest total energy."""
        if count <= 0:
            raise TrainingError(f"count must be positive, got {count}")
        # A stable sort, as ``sorted(key=-total)`` over the rows was.
        total = self.compute_joules + self.upload_joules
        ranked = np.argsort(-total, kind="stable")[:count]
        return [DeviceEnergy(*row) for row in self._rows(ranked)]

    def fairness_gini(self) -> float:
        """Gini coefficient of per-device total energy (0 = equal).

        Returns 0 for fewer than two devices.
        """
        values = sorted((self.compute_joules + self.upload_joules).tolist())
        n = len(values)
        if n < 2:
            return 0.0
        total = sequential_sum(values)
        if total == 0:
            return 0.0
        cumulative = 0.0
        weighted = 0.0
        for rank, value in enumerate(values, start=1):
            weighted += rank * value
            cumulative += value
        return (2.0 * weighted) / (n * total) - (n + 1.0) / n
