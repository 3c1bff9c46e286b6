"""Tests for the strategy registry."""

import pytest

from repro.baselines.classic import RandomSelection
from repro.baselines.fedcs import FedCsSelection
from repro.baselines.fedl import FedlClosedFormPolicy
from repro.baselines.registry import build_strategy, strategy_labels
from repro.core.frequency import HelcflDvfsPolicy
from repro.core.selection import GreedyDecaySelection
from repro.errors import ConfigurationError
from repro.experiments.runner import STRATEGY_NAMES
from repro.fl.strategy import MaxFrequencyPolicy
from tests.conftest import make_heterogeneous_devices

ARGS = dict(fraction=0.2, payload_bits=1e6, bandwidth_hz=2e6)


def build(name, **kwargs):
    devices = make_heterogeneous_devices(10)
    return build_strategy(name, devices=devices, **{**ARGS, **kwargs})


class TestRegistry:
    def test_available_names(self):
        """The registry builds every scheme the runner names but SL
        (which the runner trains itself); ``full`` is not one."""
        for name in STRATEGY_NAMES:
            if name != "sl":
                selection, policy = build(name)
                assert selection is not None and policy is not None
        with pytest.raises(ConfigurationError, match="unknown strategy 'full'"):
            build("full")

    def test_helcfl(self):
        selection, policy = build("helcfl")
        assert isinstance(selection, GreedyDecaySelection)
        assert isinstance(policy, HelcflDvfsPolicy)

    def test_helcfl_nodvfs(self):
        selection, policy = build("helcfl-nodvfs")
        assert isinstance(selection, GreedyDecaySelection)
        assert isinstance(policy, MaxFrequencyPolicy)

    def test_classic(self):
        selection, policy = build("classic", seed=0)
        assert isinstance(selection, RandomSelection)
        assert isinstance(policy, MaxFrequencyPolicy)

    def test_fedcs(self):
        selection, policy = build("fedcs")
        assert isinstance(selection, FedCsSelection)
        assert isinstance(policy, MaxFrequencyPolicy)

    def test_fedcs_candidate_fraction_forwarded(self):
        selection, _ = build("fedcs", fedcs_candidate_fraction=0.4)
        assert selection.candidate_fraction == 0.4

    def test_fedl(self):
        selection, policy = build("fedl", seed=0, fedl_kappa=0.5)
        assert isinstance(selection, RandomSelection)
        assert isinstance(policy, FedlClosedFormPolicy)
        assert policy.kappa == 0.5

    def test_case_insensitive(self):
        selection, _ = build("HELCFL")
        assert isinstance(selection, GreedyDecaySelection)

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            build("nope")

    def test_sl_not_in_registry(self):
        with pytest.raises(ConfigurationError):
            build("sl")

    def test_labels_cover_all_strategies(self):
        assert set(strategy_labels()) == set(STRATEGY_NAMES)
