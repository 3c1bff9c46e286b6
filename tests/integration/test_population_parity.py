"""Property-style parity suite: the population scheduler is bitwise
identical to the paper's per-device pseudocode.

``src/`` schedules over :class:`DevicePopulation` arrays only; the
scalar reference lives in :mod:`tests.oracles.object_scheduler`. On
seeded random fleets, selection sets, over-selection padding,
frequency assignments and TDMA timelines must match it to the last
bit, with and without a seeded fault plan, on every execution
backend. Every other shipped selection strategy must rank the same
users its object ``select`` body picked, on the whole fleet and on
random sub-populations of it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import frequency as frequency_module
from repro.core.frequency import (
    HelcflDvfsPolicy,
    determine_frequencies,
    determine_frequencies_population,
)
from repro.baselines.classic import RandomSelection
from repro.baselines.fedcs import FedCsSelection, fedcs_deadline_for_count
from repro.core.selection import GreedyDecaySelection
from repro.core.utility import utility_scores
from repro.data.dataset import ArrayDataset
from repro.devices.fleet import FleetSpec, make_fleet
from repro.devices.population import DevicePopulation
from repro.extensions.oort import OortSelection
from repro.faults import (
    ChannelFault,
    DropoutFault,
    FaultPlan,
    StragglerFault,
)
from repro.fl.execution import create_backend
from repro.fl.server import FederatedServer
from repro.fl.strategy import over_selection_extras_population
from repro.fl.trainer import FederatedTrainer, TrainerConfig
from repro.network.channel import RayleighFadingChannel
from repro.network.tdma import simulate_tdma_round
from repro.nn.architectures import build_mlp
from repro.rng import ensure_generator
from tests.oracles import object_scheduler as oracle

PAYLOAD = 1e6
BANDWIDTH = 2e6
SEEDS = (0, 1, 2)


def random_fleet(seed, count=40, ladders=False):
    """A seeded heterogeneous fleet with varied dataset sizes."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(20, 200, size=count)
    partitions = [
        ArrayDataset(
            rng.normal(size=(int(s), 4)), rng.integers(0, 3, size=int(s))
        )
        for s in sizes
    ]
    spec = FleetSpec(
        channel_gain_range=(1e-7, 1e-6),
        frequency_levels=(0.25, 0.5, 0.75, 1.0) if ladders else None,
    )
    return make_fleet(partitions, spec, seed=seed + 1000)


def long_chain_fleet(count, slow_links, tied, ladders, seed):
    """``count`` devices with empty datasets, sized for long chains.

    ``slow_links`` draws the channel gains of ``random_fleet``. A
    ``tied`` fleet is two clusters of equal devices, 20 and 2000
    samples: each ties on its compute delay, the first floors at f_min
    and queues, and the second starts only after that queue drained, so
    the fold stops at its first user and its next, tied user lands its
    compute on that user's upload end.
    """
    rng = np.random.default_rng(seed)
    if tied:
        sizes = np.where(rng.random(count) < 0.5, 20, 2000)
    else:
        sizes = rng.integers(20, 200, size=count)
    spec = FleetSpec(
        channel_gain_range=(1e-7, 1e-6) if slow_links else (0.5, 2.0),
        frequency_levels=(0.25, 0.5, 0.75, 1.0) if ladders else None,
        **(dict(f_max_low_hz=1.0e9, f_max_high_hz=1.0e9) if tied else {}),
    )
    partitions = [
        ArrayDataset(np.zeros((size, 1)), np.zeros(size, dtype=np.int64))
        for size in sizes.tolist()
    ]
    return make_fleet(partitions, spec, seed=seed + 1000)


class TestUtilityParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_scores_bitwise_equal(self, seed):
        devices = random_fleet(seed)
        population = DevicePopulation.from_devices(devices)
        rng = np.random.default_rng(seed)
        counts = {
            d.device_id: int(rng.integers(0, 6)) for d in devices
        }
        by_id = oracle.utility_scores(
            devices, counts, PAYLOAD, BANDWIDTH, 0.7
        )
        array = utility_scores(population, counts, PAYLOAD, BANDWIDTH, 0.7)
        for position, device in enumerate(devices):
            assert array[position] == by_id[device.device_id]


class TestSelectionParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_rounds_of_selection_bitwise_equal(self, seed):
        devices = random_fleet(seed)
        population = DevicePopulation.from_devices(devices)
        strategy = GreedyDecaySelection(0.2, 0.6, PAYLOAD, BANDWIDTH)
        counts = {}
        for round_index in range(1, 16):
            expected = [
                d.device_id
                for d in oracle.greedy_decay_select(
                    devices, counts, 0.2, PAYLOAD, BANDWIDTH, 0.6
                )
            ]
            positions = strategy.select_population(round_index, population)
            assert population.device_ids[positions].tolist() == expected
            assert strategy.appearance_counts == counts

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("margin", (0, 1, 5, 100))
    def test_over_selection_padding_bitwise_equal(self, seed, margin):
        devices = random_fleet(seed)
        population = DevicePopulation.from_devices(devices)
        positions = np.random.default_rng(seed).permutation(len(devices))[:8]
        expected = oracle.over_selection_extras(
            devices,
            [devices[position] for position in positions.tolist()],
            margin,
            PAYLOAD,
            BANDWIDTH,
        )
        extras = over_selection_extras_population(
            population, positions, margin, PAYLOAD, BANDWIDTH
        )
        assert population.device_ids[extras].tolist() == [
            d.device_id for d in expected
        ]


def round_views(seed, size, rounds=8):
    """Per round, the positions a strategy is handed: the whole fleet
    on odd rounds, a random sub-fleet in random order on even ones."""
    rng = np.random.default_rng(seed + 500)
    for round_index in range(1, rounds + 1):
        if round_index % 2:
            yield round_index, np.arange(size)
        else:
            count = int(rng.integers(3, size))
            yield round_index, rng.permutation(size)[:count]


def assert_strategy_parity(seed, devices, strategy, expected_for, feedback=None):
    """``strategy`` ranks each round's view exactly as ``expected_for``
    (the object body, given the view's devices) picks; ``feedback``
    gets each round's picked ids after both have chosen."""
    population = DevicePopulation.from_devices(devices)
    for round_index, view in round_views(seed, len(devices)):
        sub = population.take(view)
        expected = [
            d.device_id
            for d in expected_for([devices[p] for p in view.tolist()])
        ]
        positions = strategy.select_population(round_index, sub)
        assert sub.device_ids[positions].tolist() == expected
        if feedback is not None:
            feedback(expected, round_index)


class TestStrategyParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random(self, seed):
        rng = ensure_generator(seed)
        assert_strategy_parity(
            seed,
            random_fleet(seed),
            RandomSelection(0.3, seed=seed),
            lambda devices: oracle.random_select(rng, devices, 0.3),
        )

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("fraction", (0.2, 0.5))
    def test_greedy_decay_on_sub_populations(self, seed, fraction):
        """Appearance counts carry across rounds whose views differ in
        size and order; ``N`` is rounded from each view's size."""
        strategy = GreedyDecaySelection(fraction, 0.6, PAYLOAD, BANDWIDTH)
        counts = {}
        assert_strategy_parity(
            seed,
            random_fleet(seed),
            strategy,
            lambda view: oracle.greedy_decay_select(
                view, counts, fraction, PAYLOAD, BANDWIDTH, 0.6
            ),
        )
        assert strategy.appearance_counts == counts

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "candidate_fraction,max_users", ((None, None), (0.5, None), (None, 3))
    )
    def test_fedcs(self, seed, candidate_fraction, max_users):
        devices = random_fleet(seed)
        deadline = fedcs_deadline_for_count(devices, PAYLOAD, BANDWIDTH, 8)
        rng = ensure_generator(seed)
        assert_strategy_parity(
            seed,
            devices,
            FedCsSelection(
                deadline,
                PAYLOAD,
                BANDWIDTH,
                max_users=max_users,
                candidate_fraction=candidate_fraction,
                seed=seed,
            ),
            lambda view: oracle.fedcs_select(
                rng,
                view,
                deadline,
                PAYLOAD,
                BANDWIDTH,
                max_users=max_users,
                candidate_fraction=candidate_fraction,
            ),
        )

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("preferred,exponent", ((None, 1.0), (30.0, 2.5)))
    def test_oort_with_losses_fed_back(self, seed, preferred, exponent):
        kwargs = dict(
            fraction=0.25,
            payload_bits=PAYLOAD,
            bandwidth_hz=BANDWIDTH,
            preferred_round_s=preferred,
            penalty_exponent=exponent,
        )
        strategy = OortSelection(seed=seed, **kwargs)
        rng = ensure_generator(seed)
        last_losses, ever_selected = {}, set()
        loss_rng = np.random.default_rng(seed + 9)

        def feedback(picked_ids, round_index):
            losses = {
                device_id: float(loss_rng.uniform(0.1, 3.0))
                for device_id in picked_ids
            }
            strategy.observe_losses(losses)
            last_losses.update(losses)

        assert_strategy_parity(
            seed,
            random_fleet(seed),
            strategy,
            lambda view: oracle.oort_select(
                rng, view, last_losses, ever_selected, **kwargs
            ),
            feedback,
        )
        assert strategy.ever_selected == ever_selected


class TestFrequencyParity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "clamp,quantize", ((True, False), (False, False), (True, True))
    )
    def test_algorithm3_bitwise_equal(self, seed, clamp, quantize):
        devices = random_fleet(seed, ladders=quantize)
        population = DevicePopulation.from_devices(devices)
        by_id = oracle.determine_frequencies(
            devices, PAYLOAD, BANDWIDTH, clamp=clamp, quantize=quantize
        )
        array = determine_frequencies_population(
            population, PAYLOAD, BANDWIDTH, clamp=clamp, quantize=quantize
        )
        for position, device in enumerate(devices):
            assert array[position] == by_id[device.device_id]
        adapter = determine_frequencies(
            devices, PAYLOAD, BANDWIDTH, clamp=clamp, quantize=quantize
        )
        assert adapter == by_id
        assert list(adapter) == list(by_id)

    @given(
        count=st.integers(50, 2000),
        payload=st.sampled_from((3e4, 1e5, 1e6)),
        tied=st.booleans(),
        mode=st.sampled_from(
            (
                (True, False, False),
                (False, False, False),
                (True, True, False),
                (True, True, True),
                (True, False, True),
            )
        ),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_algorithm3_long_chains(self, count, payload, tied, mode, seed):
        """Chains of up to 2000 users. The heavier the payload, the more
        of them are floored at f_min and wait in the channel queue, the
        runs ``queued_run`` folds; see ``long_chain_fleet`` for the
        tied fleet, whose queue drains part-way."""
        clamp, quantize, ladders = mode
        devices = long_chain_fleet(count, payload > 1e5, tied, ladders, seed)
        by_id = oracle.determine_frequencies(
            devices, payload, BANDWIDTH, clamp=clamp, quantize=quantize
        )
        array = determine_frequencies_population(
            DevicePopulation.from_devices(devices),
            payload,
            BANDWIDTH,
            clamp=clamp,
            quantize=quantize,
        )
        assert array.tolist() == [by_id[d.device_id] for d in devices]
        adapter = determine_frequencies(
            devices, payload, BANDWIDTH, clamp=clamp, quantize=quantize
        )
        assert list(adapter.items()) == list(by_id.items())

    def test_long_chain_folds_partial_runs(self, monkeypatch):
        """A chain whose queue drains now and then: the fold is entered
        several times and stops part-way through a window."""
        folded = []

        def counting(free, held, start, waits):
            grants, free = queued_run(free, held, start, waits)
            folded.append(grants.shape[0])
            return grants, free

        queued_run = frequency_module.queued_run
        monkeypatch.setattr(frequency_module, "queued_run", counting)
        devices = long_chain_fleet(2000, False, False, False, 0)
        by_id = oracle.determine_frequencies(devices, 3e4, BANDWIDTH)
        array = determine_frequencies_population(
            DevicePopulation.from_devices(devices), 3e4, BANDWIDTH
        )
        assert array.tolist() == [by_id[d.device_id] for d in devices]
        assert len(folded) > 1
        assert any(0 < accepted < 32 for accepted in folded)

    def test_policy_dict_matches_object_path_exactly(self):
        devices = random_fleet(4, ladders=True)
        population = DevicePopulation.from_devices(devices)
        policy = HelcflDvfsPolicy(quantize=True)
        expected = oracle.determine_frequencies(
            devices, PAYLOAD, BANDWIDTH, quantize=True
        )
        assigned = policy.assign(
            devices, PAYLOAD, BANDWIDTH, population=population
        )
        assert assigned == expected
        # Key order is part of the trace contract.
        assert list(assigned) == list(expected)


class TestTdmaParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_timeline_bitwise_equal(self, seed):
        devices = random_fleet(seed, count=20)
        population = DevicePopulation.from_devices(devices)
        frequencies = determine_frequencies(devices, PAYLOAD, BANDWIDTH)
        plain = oracle.simulate_tdma_round(
            devices, PAYLOAD, BANDWIDTH, frequencies
        )
        for snapshot in (None, population):
            assert plain == simulate_tdma_round(
                devices, PAYLOAD, BANDWIDTH, frequencies, population=snapshot
            )

    def test_timeline_with_faults_bitwise_equal(self):
        devices = random_fleet(5, count=16)
        population = DevicePopulation.from_devices(devices)
        frequencies = determine_frequencies(devices, PAYLOAD, BANDWIDTH)
        ids = [d.device_id for d in devices]
        kwargs = dict(
            compute_scale={ids[0]: 2.0},
            drop_during={ids[1]: 0.5},
            upload_outage={ids[2]},
            upload_scale={ids[3]: 0.5},
            round_deadline=30.0,
        )
        plain = oracle.simulate_tdma_round(
            devices, PAYLOAD, BANDWIDTH, frequencies, **kwargs
        )
        vector = simulate_tdma_round(
            devices,
            PAYLOAD,
            BANDWIDTH,
            frequencies,
            population=population,
            **kwargs,
        )
        assert vector == plain


FRACTION = 0.4
DECAY = 0.7
MARGIN = 1
ROUNDS = 4


class ShadowOracle:
    """Re-derives each round of a live run from the scalar oracle.

    Wraps the three scheduler calls ``FederatedTrainer.run`` makes —
    ``selection.select_population``, ``frequency_policy.assign`` and
    ``simulate_tdma_round`` — and asserts each result ``==`` the
    oracle's, evaluated on ``trainer.devices``' live state (so per-round
    fading must have reached the population snapshot too).
    """

    def __init__(self, trainer, monkeypatch):
        self.trainer = trainer
        self.counts = {}
        self.expected_selected = None
        self.selections = self.assignments = self.timelines = 0
        self._select = trainer.selection.select_population
        self._assign = trainer.frequency_policy.assign
        monkeypatch.setattr(
            trainer.selection, "select_population", self.select_population
        )
        monkeypatch.setattr(trainer.frequency_policy, "assign", self.assign)
        monkeypatch.setattr(
            "repro.fl.trainer.simulate_tdma_round", self.simulate_tdma_round
        )

    def select_population(self, round_index, population):
        positions = self._select(round_index, population)
        devices = self.trainer.devices
        chosen = oracle.greedy_decay_select(
            devices, self.counts, FRACTION, PAYLOAD, BANDWIDTH, DECAY
        )
        assert population.device_ids[positions].tolist() == [
            d.device_id for d in chosen
        ]
        self.expected_selected = chosen + oracle.over_selection_extras(
            devices, chosen, MARGIN, PAYLOAD, BANDWIDTH
        )
        self.selections += 1
        return positions

    def assign(self, selected, payload_bits, bandwidth_hz, **kwargs):
        if self.expected_selected is not None:
            # First assignment of the round: selection plus padding.
            assert list(selected) == self.expected_selected
            self.expected_selected = None
        assigned = self._assign(selected, payload_bits, bandwidth_hz, **kwargs)
        expected = oracle.determine_frequencies(
            selected, payload_bits, bandwidth_hz
        )
        assert assigned == expected
        assert list(assigned) == list(expected)
        assert kwargs["population"].device_ids.tolist() == [
            d.device_id for d in selected
        ]
        self.assignments += 1
        return assigned

    def simulate_tdma_round(self, devices, *args, population, **kwargs):
        timeline = simulate_tdma_round(
            devices, *args, population=population, **kwargs
        )
        assert timeline == oracle.simulate_tdma_round(devices, *args, **kwargs)
        self.timelines += 1
        return timeline


def run_shadowed(seed, monkeypatch, backend=None, faults=None):
    """One short seeded run under a :class:`ShadowOracle`."""
    devices = random_fleet(seed, count=12)
    rng = np.random.default_rng(seed + 77)
    test = ArrayDataset(
        rng.normal(size=(40, 4)), rng.integers(0, 3, size=40)
    )
    model = build_mlp(4, 3, hidden_sizes=(8,), seed=seed)
    server = FederatedServer(model, test_dataset=test, payload_bits=PAYLOAD)
    trainer = FederatedTrainer(
        server=server,
        devices=devices,
        selection=GreedyDecaySelection(FRACTION, DECAY, PAYLOAD, BANDWIDTH),
        frequency_policy=HelcflDvfsPolicy(),
        config=TrainerConfig(
            rounds=ROUNDS,
            bandwidth_hz=BANDWIDTH,
            learning_rate=0.2,
            over_select_margin=MARGIN,
            round_deadline_s=80.0,
        ),
        channel_models={
            d.device_id: RayleighFadingChannel(
                mean_gain=1.0, seed=300 + d.device_id
            )
            for d in devices
        },
        backend=backend,
        faults=faults,
    )
    shadow = ShadowOracle(trainer, monkeypatch)
    history = trainer.run()
    assert len(history) == shadow.selections == ROUNDS
    return shadow


def lossy_plan():
    return FaultPlan(
        seed=21,
        faults=(
            DropoutFault(phase="before_compute", probability=0.2),
            DropoutFault(
                phase="during_compute", progress=0.5, probability=0.1
            ),
            StragglerFault(slowdown=2.0, probability=0.2),
            ChannelFault(mode="degrade", rate_scale=0.5, probability=0.2),
            ChannelFault(mode="outage", probability=0.1),
        ),
    )


class TestTrainerParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_histories_and_ledgers_bitwise_equal(self, seed, monkeypatch):
        shadow = run_shadowed(seed, monkeypatch)
        assert shadow.assignments == shadow.timelines == ROUNDS

    def test_parity_holds_under_seeded_faults(self, monkeypatch):
        shadow = run_shadowed(9, monkeypatch, faults=lossy_plan())
        # Pre-compute dropouts forced at least one Algorithm 3 replan.
        assert shadow.assignments > ROUNDS

    @pytest.mark.parametrize("backend_name", ("serial", "thread", "process"))
    def test_parity_on_every_backend(self, backend_name, monkeypatch):
        with create_backend(backend_name, workers=2) as backend:
            shadow = run_shadowed(
                2, monkeypatch, backend=backend, faults=lossy_plan()
            )
        assert shadow.timelines > 0
