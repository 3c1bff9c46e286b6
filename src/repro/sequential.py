"""Exact array forms of the simulator's sequential float code.

The recorded histories were produced by scalar code: sorts keyed on
``(delay, id)``, left-to-right totals, and FIFO channel scans. The
helpers here compute the same results with array operations and
return the same bits, not merely close ones:

* :func:`rank_by` is ``np.lexsort((ids, keys))``, built from plain
  ``argsort`` calls on large inputs.
* :func:`sequential_sum` is the left fold ``0.0 + x0 + x1 + ...``.
  ``np.sum`` adds pairwise, and builtin ``sum`` adds with Neumaier
  compensation since Python 3.12; both round differently.
* :func:`queued_run` folds the stretch of a FIFO scan in which the
  channel stays busy. Each element is accepted only after the scalar
  loop's own comparison has been checked on it (see there).
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence, Tuple

import numpy as np

__all__ = ["ARGSORT_MIN", "MIN_RUN", "rank_by", "sequential_sum", "rows", "queued_run"]

MIN_RUN = 32
"""Consecutive queued scalar steps after which a scan tries
:func:`queued_run`, and that function's first window. Below it a scan
stays on plain Python floats."""

ARGSORT_MIN = 1000
"""Sorts of fewer keys call ``np.lexsort``: below about 1000 keys with
ties (a few hundred without) its cost is lower than that of the two
``argsort`` passes in :func:`rank_by`."""

_BLOCK = 256


def rank_by(keys: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Positions in ascending ``(key, id)`` order: ``np.lexsort((ids, keys))``.

    A plain ``argsort`` of ``keys`` is that order whenever the sorted
    keys strictly increase, since no two keys can then swap. Otherwise
    the keys are replaced by their dense rank (equal keys, ``-0.0`` and
    ``0.0`` included, share one) and the integers ``rank * span +
    (id - min id)`` are sorted instead; when they are distinct their
    order is the ``(key, id)`` order. Fewer than :data:`ARGSORT_MIN`
    keys, NaN keys, repeated ``(key, id)`` pairs and an id span that
    would overflow int64 are left to ``np.lexsort`` itself.
    """
    if keys.shape[0] >= ARGSORT_MIN:
        order = np.argsort(keys)
        ordered = keys[order]
        if (ordered[1:] > ordered[:-1]).all():
            return order
        if ordered[-1] == ordered[-1]:  # argsort puts a NaN last
            low = int(ids.min())
            span = int(ids.max()) - low + 1
            ranks = np.empty(ordered.shape[0], dtype=np.int64)
            ranks[0] = 0
            np.cumsum(ordered[1:] != ordered[:-1], out=ranks[1:])
            if int(ranks[-1]) * span + span <= 2**63:  # the largest key fits int64
                combined = ranks * span + (ids[order].astype(np.int64) - low)
                second = np.argsort(combined)
                combined = combined[second]
                if (combined[1:] > combined[:-1]).all():
                    return order[second]
    return np.lexsort((ids, keys))


def sequential_sum(values) -> float:
    """``0.0 + x0 + x1 + ...`` added left to right, as a Python float.

    This is the total builtin ``sum`` gave before Python 3.12. One
    ``np.add.accumulate`` performs the same additions in the same
    order; its chain starts at ``x0`` instead of ``0.0 + x0``, which
    differs only while every element so far is ``-0.0``, and the final
    ``+ 0.0`` restores that sign. An empty input totals ``0.0``.
    """
    column = np.asarray(values, dtype=np.float64)
    if column.shape[0] == 0:
        return 0.0
    return float(np.add.accumulate(column)[-1]) + 0.0


def rows(columns: Sequence[np.ndarray], start: int) -> Iterator[tuple]:
    """The rows of the equal-length ``columns`` from ``start`` on, as
    tuples of Python scalars, converted a block at a time: a scan that
    leaves for :func:`queued_run` has paid only for what it read."""
    size = columns[0].shape[0]
    if size - start <= _BLOCK:
        return zip(*(column[start:].tolist() for column in columns))
    return _blocks(columns, start, size)


def _blocks(columns: Sequence[np.ndarray], start: int, size: int) -> Iterator[tuple]:
    for lo in range(start, size, _BLOCK):
        yield from zip(*(column[lo : lo + _BLOCK].tolist() for column in columns))


def queued_run(
    free: float,
    held: np.ndarray,
    start: int,
    waits: Callable[[np.ndarray, int, int], np.ndarray],
) -> Tuple[np.ndarray, float]:
    """Fold the queued stretch of a FIFO scan that begins at ``start``.

    The scalar scan grants element ``i`` the channel at ``free`` when
    it has to wait, and the channel then frees at ``free + held[i]``.
    While elements keep waiting, the free times are the running sums
    ``free, free + held[start], ...``; ``np.add.accumulate`` computes
    exactly those additions, left to right. Over a window of elements
    the candidates are computed at once and ``waits(before, lo, hi)``
    applies the scalar loop's own comparison to each element of
    ``[lo, hi)``, given the free time ``before`` it would see. Only the
    prefix of elements that wait is accepted: by induction each of
    them sees the same free time as in the scalar loop, so the prefix
    is bit for bit the scalar result. The window starts at
    :data:`MIN_RUN` elements and doubles while every element waits.

    Returns:
        ``(grants, free)``: the grant times of the accepted elements
        ``start, start + 1, ...`` and the free time after the last of
        them. The caller takes the next element, the first that did
        not wait, with one scalar step.
    """
    size = held.shape[0]
    runs = []
    width = MIN_RUN
    while start < size:
        stop = min(start + width, size)
        chain = np.empty(stop - start + 1)
        chain[0] = free
        chain[1:] = held[start:stop]
        np.add.accumulate(chain, out=chain)
        waited = waits(chain[:-1], start, stop)
        accepted = int(waited.argmin()) if not waited.all() else stop - start
        runs.append(chain[:accepted])
        free = float(chain[accepted])
        start += accepted
        if start < stop:
            break
        width *= 2
    return np.concatenate(runs), free
