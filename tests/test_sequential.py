"""``repro.sequential`` returns the bits of the scalar code it replaces.

``rank_by`` against ``np.lexsort``, ``sequential_sum`` against a Python
left fold, ``queued_run`` against the FIFO loop. Every comparison is
``==`` on positions or on ``repr`` of floats — never ``isclose``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.selection import top_utility_positions
from repro.sequential import ARGSORT_MIN, MIN_RUN, queued_run, rank_by, sequential_sum
from tests.oracles import left_fold

TIE_PRONE = (0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan)


@st.composite
def keyed_ids(draw):
    """Keys full of ties (``±0.0``, infinities, NaN) or all distinct,
    with ids that may be negative, repeated or span int64, on both
    sides of ``ARGSORT_MIN``."""
    size = draw(st.sampled_from((0, 1, 2, 7, ARGSORT_MIN - 1, ARGSORT_MIN, 3000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("tied", "distinct", "distinct_nan")))
    if kind == "tied":
        keys = rng.choice(np.array(TIE_PRONE), size=size)
    else:
        keys = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
        if kind == "distinct_nan" and size:
            keys[rng.integers(size)] = np.nan
    span = draw(st.sampled_from(("unique", "repeated", "wide")))
    if span == "unique":
        ids = rng.permutation(4 * size + 1)[:size] - 2 * size
    elif span == "repeated":
        ids = rng.integers(-3, 3, size=size)
    else:
        ids = rng.integers(-(2**63), 2**63 - 1, size=size, dtype=np.int64)
    return keys, ids.astype(np.int64)


class TestRankBy:
    @given(keyed_ids())
    @settings(max_examples=200, deadline=None)
    def test_is_lexsort(self, case):
        keys, ids = case
        assert rank_by(keys, ids).tolist() == np.lexsort((ids, keys)).tolist()

    @pytest.mark.parametrize("size", [1_000, 10_000])
    def test_many_users_tied_at_one_delay(self, size):
        """DVFS floors thousands of users at one key; ids break the tie."""
        rng = np.random.default_rng(size)
        keys = np.where(rng.random(size) < 0.9, 0.25, rng.random(size))
        ids = rng.permutation(10 * size)[:size].astype(np.int64) - 5 * size
        assert rank_by(keys, ids).tolist() == np.lexsort((ids, keys)).tolist()
        assert rank_by(-keys, ids).tolist() == np.lexsort((ids, -keys)).tolist()

    @pytest.mark.parametrize("ids_kind", ["repeated", "wide", "nan_key"])
    def test_lexsort_cases_above_the_cutover(self, ids_kind):
        """Repeated ``(key, id)`` pairs keep position order, an id span
        past int64 and a NaN key fall back, all among tied keys."""
        rng = np.random.default_rng(3)
        size = 3 * ARGSORT_MIN
        keys = rng.choice(np.array([0.0, -0.0, 1.0, 2.5]), size=size)
        ids = rng.permutation(size).astype(np.int64)
        if ids_kind == "repeated":
            ids = rng.integers(-3, 3, size=size)
        elif ids_kind == "wide":
            ids[:2] = (-(2**62), 2**62)
        else:
            keys[5] = np.nan
        assert rank_by(keys, ids).tolist() == np.lexsort((ids, keys)).tolist()

    @pytest.mark.parametrize("count", [1, 3, 6])
    def test_top_utility_positions_up_to_the_whole_population(self, count):
        scores = np.array([0.0, -0.0, 2.0, 2.0, -np.inf, 0.0])
        ids = np.array([4, -7, 9, 1, 0, -2])
        ranked = np.lexsort((ids, -scores))
        assert top_utility_positions(scores, ids, count).tolist() == (
            ranked[:count].tolist()
        )


class TestSequentialSum:
    @given(
        st.lists(
            st.one_of(
                # Bounded, so no finite total overflows (numpy would warn).
                st.floats(-1e300, 1e300),
                st.sampled_from((0.0, -0.0, 0.1, 1e16, -1e16, np.inf)),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_is_the_left_fold(self, values):
        total = sequential_sum(np.array(values, dtype=np.float64))
        assert type(total) is float
        assert repr(total) == repr(left_fold(values))

    def test_not_pairwise_or_compensated(self):
        values = [0.1] * 10
        assert sequential_sum(values) == 0.9999999999999999
        assert repr(sequential_sum([-0.0, -0.0])) == "0.0"
        assert sequential_sum([]) == 0.0


def fifo_grants(compute_end, held):
    """The FIFO channel loop: ``(grant times, final free time)``."""
    grants, free = [], 0.0
    for end, hold in zip(compute_end, held):
        granted = free if free > end else end
        grants.append(granted)
        free = granted + hold
    return grants, free


class TestQueuedRun:
    @given(
        size=st.integers(1, 300),
        idle_at=st.lists(st.integers(0, 299), max_size=4),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_accepts_exactly_the_waiting_prefix(self, size, idle_at, seed):
        """Everyone waits except the users in ``idle_at``, who arrive
        after the channel freed: the fold stops right before the first
        of them, with the loop's free time."""
        rng = np.random.default_rng(seed)
        held = rng.random(size) * np.where(rng.random(size) < 0.1, 0.0, 1.0)
        compute_end = np.zeros(size)
        free = 0.5
        for position in sorted(set(idle_at)):
            if position < size:
                compute_end[position] = free + held.sum() + 1.0
        grants, after = queued_run(
            free, held, 0, lambda before, lo, hi: before > compute_end[lo:hi]
        )
        expected, _ = fifo_grants([-1.0] + compute_end.tolist(), [free] + held.tolist())
        stop = grants.shape[0]
        assert repr(grants.tolist()) == repr(expected[1 : stop + 1])
        chain = [free] + held[:stop].tolist()
        assert repr(after) == repr(left_fold(chain))
        waits = (np.array(expected[1:]) > compute_end).tolist()
        assert stop == (waits.index(False) if False in waits else size)

    def test_window_grows_past_the_first(self):
        held = np.full(10 * MIN_RUN, 0.125)
        grants, free = queued_run(
            1.0, held, 3, lambda before, lo, hi: np.ones(hi - lo, dtype=bool)
        )
        assert grants.shape[0] == 10 * MIN_RUN - 3
        assert free == 1.0 + 0.125 * (10 * MIN_RUN - 3)
