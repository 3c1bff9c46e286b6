"""Tests for greedy-decay user selection (Algorithm 2)."""

import numpy as np
import pytest

from repro.core.selection import GreedyDecaySelection
from repro.core.utility import utility_scores
from repro.devices.population import DevicePopulation
from repro.errors import ConfigurationError, SelectionError
from repro.fl.strategy import selection_count
from tests.conftest import make_heterogeneous_devices, selected_ids

PAYLOAD = 1e6
BANDWIDTH = 2e6


def strategy(fraction=0.25, decay=0.7):
    return GreedyDecaySelection(fraction, decay, PAYLOAD, BANDWIDTH)


class TestSelectionCount:
    def test_paper_formula(self):
        assert selection_count(100, 0.1) == 10

    def test_at_least_one(self):
        assert selection_count(100, 0.001) == 1

    def test_capped_at_population(self):
        assert selection_count(5, 1.0) == 5

    def test_invalid_fraction(self):
        with pytest.raises(SelectionError):
            selection_count(10, 0.0)
        with pytest.raises(SelectionError):
            selection_count(10, 1.5)

    def test_invalid_population(self):
        with pytest.raises(SelectionError):
            selection_count(0, 0.5)


class TestGreedyDecay:
    def test_selects_top_utility_first_round(self):
        devices = make_heterogeneous_devices(8)
        strat = strategy(fraction=0.25)
        selected = selected_ids(strat, 1, devices)
        scores = utility_scores(
            DevicePopulation.from_devices(devices), {}, PAYLOAD, BANDWIDTH, 0.7
        )
        expected = sorted(devices, key=lambda d: -scores[d.device_id])[:2]
        assert set(selected) == {d.device_id for d in expected}

    def test_selection_size(self):
        devices = make_heterogeneous_devices(10)
        assert len(selected_ids(strategy(fraction=0.3), 1, devices)) == 3

    def test_counters_incremented(self):
        devices = make_heterogeneous_devices(8)
        strat = strategy()
        for device_id in selected_ids(strat, 1, devices):
            assert strat.appearance_counts[device_id] == 1

    def test_matches_iterative_argmax_reference(self):
        """One-pass top-N equals Algorithm 2's iterative loop exactly."""
        devices = make_heterogeneous_devices(10, seed=3)
        strat = strategy(fraction=0.4, decay=0.6)

        # Reference: literal Algorithm 2 (argmax, remove, repeat).
        counts = {}
        reference_rounds = []
        for _ in range(5):
            selectable = list(devices)
            chosen = []
            n = selection_count(len(devices), 0.4)
            while n > 0:
                scores = utility_scores(
                    DevicePopulation.from_devices(selectable),
                    counts,
                    PAYLOAD,
                    BANDWIDTH,
                    0.6,
                )
                best = min(
                    enumerate(selectable),
                    key=lambda pair: (-scores[pair[0]], pair[1].device_id),
                )[1]
                selectable.remove(best)
                chosen.append(best.device_id)
                counts[best.device_id] = counts.get(best.device_id, 0) + 1
                n -= 1
            reference_rounds.append(sorted(chosen))

        for round_index, expected in enumerate(reference_rounds, start=1):
            assert sorted(selected_ids(strat, round_index, devices)) == expected

    def test_rotation_incorporates_all_users(self):
        """The paper's core claim: decay eventually selects everyone."""
        devices = make_heterogeneous_devices(10, seed=1)
        strat = strategy(fraction=0.2, decay=0.5)
        seen = set()
        for round_index in range(1, 40):
            seen.update(selected_ids(strat, round_index, devices))
        assert seen == {d.device_id for d in devices}

    def test_small_decay_rotates_faster(self):
        devices = make_heterogeneous_devices(10, seed=2)

        def rounds_to_full_coverage(decay):
            strat = strategy(fraction=0.2, decay=decay)
            seen = set()
            for round_index in range(1, 200):
                seen.update(selected_ids(strat, round_index, devices))
                if len(seen) == len(devices):
                    return round_index
            return 200

        assert rounds_to_full_coverage(0.2) <= rounds_to_full_coverage(0.95)

    def test_reset_clears_counters(self):
        devices = make_heterogeneous_devices(6)
        strat = strategy()
        selected_ids(strat, 1, devices)
        strat.reset()
        assert strat.appearance_counts == {}

    def test_counter_mirror_zero_fills_then_rebuilds_from_the_dict(self):
        """With no counters the aligned ``alpha_q`` mirror is a plain
        zero array; after a checkpoint restore it is rebuilt from the
        dict, and the run continues as if never interrupted."""
        population = DevicePopulation.from_devices(
            make_heterogeneous_devices(12)
        )
        straight = strategy()
        first = straight.select_population(1, population)
        counts = np.zeros(12, dtype=np.int64)
        counts[first] = 1
        assert np.array_equal(straight.scores(population), utility_scores(
            population, counts, PAYLOAD, BANDWIDTH, 0.7
        ))
        resumed = strategy()
        resumed.load_state_dict(straight.state_dict())
        for round_index in range(2, 6):
            assert np.array_equal(
                resumed.select_population(round_index, population),
                straight.select_population(round_index, population),
            )
        assert resumed.appearance_counts == straight.appearance_counts

    def test_deterministic(self):
        devices = make_heterogeneous_devices(8)
        a = strategy()
        b = strategy()
        for round_index in range(1, 6):
            assert selected_ids(a, round_index, devices) == selected_ids(
                b, round_index, devices
            )

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            GreedyDecaySelection(0.0, 0.7, PAYLOAD, BANDWIDTH)
        with pytest.raises(ConfigurationError):
            GreedyDecaySelection(0.1, 1.0, PAYLOAD, BANDWIDTH)
        with pytest.raises(ConfigurationError):
            GreedyDecaySelection(0.1, 0.7, 0.0, BANDWIDTH)

    @pytest.mark.parametrize("field", ["payload_bits", "bandwidth_hz"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_link_rejected_by_name(self, field, value):
        link = {"payload_bits": PAYLOAD, "bandwidth_hz": BANDWIDTH}
        link[field] = value
        with pytest.raises(ConfigurationError, match=field):
            GreedyDecaySelection(0.1, 0.7, **link)

    def test_full_fraction_selects_everyone(self):
        devices = make_heterogeneous_devices(5)
        strat = strategy(fraction=1.0)
        assert len(selected_ids(strat, 1, devices)) == 5
