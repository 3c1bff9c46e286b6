"""The ``alpha_q`` counters as one pair of arrays, and the ranking's and
the utility's refusal of values that have no rank."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.core.selection import GreedyDecaySelection, top_utility_positions
from repro.core.utility import decay_powers, utility_scores
from repro.devices.fleet import FleetSpec
from repro.devices.population import DevicePopulation
from repro.errors import ConfigurationError
from tests.conftest import make_heterogeneous_devices
from tests.oracles import object_scheduler as oracle

REPO_ROOT = Path(__file__).parents[2]
PAYLOAD = 1e6
BANDWIDTH = 2e6


def strategy(fraction=0.25, decay=0.7):
    return GreedyDecaySelection(fraction, decay, PAYLOAD, BANDWIDTH)


def fleet(size=12, seed=3):
    return DevicePopulation.from_spec(
        FleetSpec(channel_gain_range=(0.5, 2.0)),
        np.arange(20, 20 + size),
        seed=seed,
    )


class TestCounterArrays:
    def test_view_lists_exactly_the_selected_devices(self):
        population = fleet()
        strat = strategy()
        assert strat.appearance_counts == {}
        expected = {}
        for round_index in range(1, 9):
            positions = strat.select_population(round_index, population)
            for device_id in population.device_ids[positions].tolist():
                expected[device_id] = expected.get(device_id, 0) + 1
            assert strat.appearance_counts == expected
        assert all(type(key) is int for key in strat.appearance_counts)
        assert 0 not in strat.appearance_counts.values()

    def test_view_is_read_only_state(self):
        population = fleet()
        strat = strategy()
        strat.select_population(1, population)
        before = strat.state_dict()
        strat.appearance_counts.clear()
        strat.appearance_counts[99] = 5
        assert strat.state_dict() == before

    def test_counters_survive_devices_leaving_and_coming_back(self):
        """Churn: against the dict-of-counters oracle, which never
        forgets an id, over populations that shrink, reorder and grow."""
        population = fleet(16)
        devices_by_position = list(range(16))
        views = [
            devices_by_position,
            [1, 3, 5, 7, 9, 11],  # most devices leave
            [11, 9, 0, 2, 4, 7],  # some come back, reordered
            devices_by_position[::-1],  # everyone back, reversed
            [15],
            devices_by_position,
        ]
        strat = strategy(fraction=0.5, decay=0.6)
        counts = {}
        round_index = 0
        for view in views:
            current = population.take(view)
            for _ in range(3):
                round_index += 1
                positions = strat.select_population(round_index, current)
                for device_id in current.device_ids[positions].tolist():
                    counts[device_id] = counts.get(device_id, 0) + 1
                assert strat.appearance_counts == counts
            # The scores the next round ranks are the dict's scores.
            assert np.array_equal(
                strat.scores(current),
                utility_scores(current, counts, PAYLOAD, BANDWIDTH, 0.6),
            )
        assert sum(counts.values()) > len(counts)  # counters above one

    def test_churn_selection_equals_object_oracle(self):
        devices = make_heterogeneous_devices(14, seed=9)
        strat = strategy(fraction=0.3, decay=0.5)
        counts = {}
        round_index = 0
        for view in (devices, devices[4:11], devices[::2], devices[::-1]):
            population = DevicePopulation.from_devices(view)
            for _ in range(4):
                round_index += 1
                expected = [
                    d.device_id
                    for d in oracle.greedy_decay_select(
                        view, counts, 0.3, PAYLOAD, BANDWIDTH, 0.5
                    )
                ]
                positions = strat.select_population(round_index, population)
                assert population.device_ids[positions].tolist() == expected
                assert strat.appearance_counts == counts

    def test_load_then_reset(self):
        population = fleet()
        strat = strategy()
        for round_index in range(1, 5):
            strat.select_population(round_index, population)
        state = json.loads(json.dumps(strat.state_dict()))
        keys = list(state["appearance_counts"])
        assert keys == sorted(keys, key=int)
        resumed = strategy()
        resumed.load_state_dict(state)
        # Before any round: the view already reads the loaded counters.
        assert resumed.appearance_counts == strat.appearance_counts
        assert resumed.state_dict() == state
        assert np.array_equal(resumed.scores(population), strat.scores(population))
        # A counter for a device this fleet does not hold is kept.
        resumed.load_state_dict({"appearance_counts": {"-5": 2, "3": 1}})
        resumed.select_population(1, population)
        assert resumed.appearance_counts[-5] == 2
        resumed.reset()
        assert resumed.appearance_counts == {}
        assert resumed.state_dict() == {"appearance_counts": {}}
        assert np.array_equal(resumed.scores(population), strategy().scores(population))


class TestDecayPowers:
    @pytest.mark.parametrize("decay", [0.9, 0.7, 0.5, 1e-3, 1 - 2**-40])
    def test_equals_scalar_power_up_to_2000(self, decay):
        alphas = np.arange(2001, dtype=np.int64)
        powers = decay_powers(decay, alphas)
        assert powers.dtype == np.float64
        assert powers.tolist() == [decay**k for k in range(2001)]

    def test_shuffled_repeated_and_empty(self):
        rng = np.random.default_rng(0)
        alphas = rng.integers(0, 300, size=5000)
        assert decay_powers(0.8, alphas).tolist() == [
            0.8 ** int(k) for k in alphas
        ]
        assert decay_powers(0.8, np.empty(0, dtype=np.int64)).shape == (0,)

    def test_hostile_checkpoint_counter_selects_in_bounded_memory(self):
        # Under an address-space cap, so a table sized to the counter
        # fails fast with MemoryError instead of exhausting the host.
        script = textwrap.dedent(
            """
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            import numpy as np
            from repro.core.selection import GreedyDecaySelection
            from repro.core.utility import decay_powers
            from repro.devices.fleet import FleetSpec
            from repro.devices.population import DevicePopulation
            from tests.oracles.closed_forms import decayed_utility

            decay = 1 - 2**-40
            alphas = np.array([2**40, 3, 2**16, 2**16 - 1, 2**62, 0])
            assert decay_powers(decay, alphas).tolist() == [
                decay ** int(k) for k in alphas
            ]
            population = DevicePopulation.from_spec(
                FleetSpec(channel_gain_range=(0.5, 2.0)),
                np.arange(20, 40),
                seed=3,
            )
            strat = GreedyDecaySelection(0.25, decay, 1e6, 2e6)
            strat.load_state_dict({"appearance_counts": {"7": 2**40}})
            assert len(strat.select_population(1, population)) == 5
            position = population.position_of(7)
            expected = decayed_utility(
                strat.appearance_counts[7],
                float(population.compute_delay()[position]),
                float(population.upload_delay(1e6, 2e6)[position]),
                decay,
            )
            assert strat.scores(population)[position] == expected, expected
            print("ok", expected)
            """
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT), env.get("PYTHONPATH", "")]
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        # (1 - 2^-40)^(2^40) is about 1/e: a real power, not an underflow.
        status, utility = result.stdout.split()
        assert status == "ok" and 0.0 < float(utility) < np.inf

    @pytest.mark.parametrize(
        "alpha", [2**16 - 1, 2**16, 2**16 + 1, 2**17, 2**40, 2**62]
    )
    def test_counters_either_side_of_the_table_cap(self, alpha):
        decay = 1 - 2**-40
        alphas = np.array([0, 7, alpha, 3, alpha], dtype=np.int64)
        assert decay_powers(decay, alphas).tolist() == [
            decay ** int(k) for k in alphas
        ]

    def test_result_is_the_callers_own_array(self):
        first = decay_powers(0.9, np.array([0, 1, 2]))
        first[:] = -1.0
        assert decay_powers(0.9, np.array([0, 1, 2])).tolist() == [
            1.0, 0.9, 0.9**2
        ]


class TestRankingRefusesNaN:
    def test_the_six_element_case(self):
        scores = np.array([1.0, 5.0, np.nan, 3.0, 2.0, np.nan])
        with pytest.raises(ConfigurationError, match="NaN.*position 2"):
            top_utility_positions(scores, np.arange(6), 3)

    @pytest.mark.parametrize("count", [1, 2, 4, 6])
    def test_any_count(self, count):
        scores = np.array([1.0, 1.0, np.nan, 1.0, 2.0, 1.0])
        with pytest.raises(ConfigurationError, match="NaN"):
            top_utility_positions(scores, np.arange(6), count)

    @pytest.mark.parametrize("count", range(1, 7))
    def test_returns_exactly_count_with_infinities_and_ties(self, count):
        scores = np.array([np.inf, 2.0, 2.0, -np.inf, 2.0, np.inf])
        ids = np.array([5, 4, 3, 2, 1, 0])
        positions = top_utility_positions(scores, ids, count)
        assert positions.tolist() == [5, 0, 4, 2, 1, 3][:count]


class TestUtilityRefusesUnrankableDelays:
    # Through the cached Eq. (6) term: device 3 uploads in
    # payload / (Z * log2_snr1) seconds.
    @pytest.mark.parametrize(
        "log2_snr1, cycles",
        [
            (np.nan, 1e9),  # NaN delay: passes every ``<= 0`` test
            (0.0, 1e9),  # +inf delay
            (-1e-9, 1e9),  # negative delay
            (np.inf, 0.0),  # exactly zero
        ],
    )
    def test_total_delay_must_be_finite_and_positive(self, log2_snr1, cycles):
        population = fleet(6)
        population.log2_snr1[3] = log2_snr1
        population.cycles[3] = cycles
        with np.errstate(divide="ignore"):
            with pytest.raises(ConfigurationError, match="finite and positive"):
                utility_scores(population, {}, PAYLOAD, BANDWIDTH, 0.7)
            with pytest.raises(ConfigurationError, match="finite and positive"):
                strategy().select_population(1, population)
