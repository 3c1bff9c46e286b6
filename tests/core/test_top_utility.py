"""Algorithm 2's top ``N`` equals the full sort, and refuses a bad count.

``top_utility_positions`` takes the winners from one ``np.argpartition``
when the ``N``-th largest score is unique and goes through the entries
tied with it otherwise; both must give exactly the first ``count``
positions of ``np.lexsort((ids, -scores))``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.selection import top_utility_positions
from repro.errors import ConfigurationError
from repro.sequential import ARGSORT_MIN, rank_by

SIZES = (1, 2, 7, ARGSORT_MIN - 1, ARGSORT_MIN, 3000)
TIE_PRONE = np.array([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf])


def full_sort(scores, ids, count):
    return np.lexsort((ids, -scores))[:count].tolist()


def kth_multiplicity(scores, count):
    """How many scores equal the ``count``-th largest (``±0.0`` alike)."""
    kth = np.sort(scores)[scores.shape[0] - count]
    return int(np.count_nonzero(scores == kth))


@st.composite
def ranked_cases(draw):
    """Unique ids (negative ones too), and scores that are all distinct,
    drawn from a few tie-prone values, or from a handful of integers."""
    size = draw(st.sampled_from(SIZES))
    count = draw(st.integers(1, size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("distinct", "tie_prone", "few_values")))
    if kind == "distinct":
        scores = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
    elif kind == "tie_prone":
        scores = rng.choice(TIE_PRONE, size=size)
    else:
        scores = rng.integers(0, 4, size=size).astype(np.float64)
    ids = (rng.permutation(4 * size + 1)[:size] - 2 * size).astype(np.int64)
    return scores, ids, count


class TestAgainstFullSort:
    @given(ranked_cases())
    @settings(max_examples=300, deadline=None)
    def test_is_the_head_of_lexsort(self, case):
        scores, ids, count = case
        assert top_utility_positions(scores, ids, count).tolist() == full_sort(
            scores, ids, count
        )

    @pytest.mark.parametrize("size", SIZES[2:])
    @pytest.mark.parametrize("share", [0.0, 0.1, 0.5, 0.99])
    def test_unique_kth(self, size, share):
        """Distinct scores: the partition's tail is the winners."""
        rng = np.random.default_rng(size)
        scores = rng.permutation(size).astype(np.float64) - size / 2
        ids = rng.permutation(size).astype(np.int64)
        count = max(1, int(share * size))
        assert kth_multiplicity(scores, count) == 1
        assert top_utility_positions(scores, ids, count).tolist() == full_sort(
            scores, ids, count
        )

    @pytest.mark.parametrize("size", SIZES[2:])
    @pytest.mark.parametrize("kth_value", [0.0, 3.0, np.inf])
    def test_tie_at_kth(self, size, kth_value):
        """A block of equal scores straddles the cut; ids pick the rest."""
        rng = np.random.default_rng(size + 1)
        scores = rng.standard_normal(size) - 10.0
        tied = rng.permutation(size)[: max(2, size // 3)]
        scores[tied] = kth_value
        if kth_value == 0.0:
            scores[tied[0]] = -0.0  # a ±0.0 pair is a tie
        above = np.setdiff1d(np.arange(size), tied)[: size // 4 if kth_value < np.inf else 0]
        scores[above] = 20.0 + rng.random(above.shape[0])
        ids = (rng.permutation(2 * size)[:size] - size).astype(np.int64)
        count = above.shape[0] + 1
        assert kth_multiplicity(scores, count) > 1
        assert top_utility_positions(scores, ids, count).tolist() == full_sort(
            scores, ids, count
        )


class TestRankingIgnoresInputOrder:
    @given(ranked_cases(), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_shuffled_winners_rank_identically(self, case, shuffle_seed):
        """(score, id) keys are unique, so the winners' final ranking is
        the same whatever order the partition leaves them in."""
        scores, ids, count = case
        chosen = np.asarray(full_sort(scores, ids, count))
        shuffled = np.random.default_rng(shuffle_seed).permutation(chosen)
        ranked = shuffled[rank_by(-scores[shuffled], ids[shuffled])]
        assert ranked.tolist() == chosen.tolist()


class TestCountMustBeAnIntegerInRange:
    SCORES = np.array([1.0, 5.0, 3.0, 2.0, 4.0, 0.5])
    IDS = np.arange(6)

    @pytest.mark.parametrize(
        "count", [0, -1, 7, np.int64(0), np.int64(7), 2.5, 3.0, True, False, np.True_, "3", None]
    )
    def test_refused(self, count):
        with pytest.raises(ConfigurationError):
            top_utility_positions(self.SCORES, self.IDS, count)

    @pytest.mark.parametrize("count", [np.int64(3), np.int32(3), np.uint8(3)])
    def test_numpy_integers_accepted(self, count):
        assert top_utility_positions(self.SCORES, self.IDS, count).tolist() == [1, 4, 2]

    def test_small_integer_type_on_a_large_fleet(self):
        scores = np.arange(300, dtype=np.float64)
        assert top_utility_positions(scores, np.arange(300), np.uint8(3)).tolist() == [
            299, 298, 297
        ]
