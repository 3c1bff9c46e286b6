"""Substrate microbenchmarks.

Not a paper artifact — these time the building blocks every experiment
leans on (conv forward/backward, a Mini-SqueezeNet training step, the
TDMA simulator, Algorithm 3 at the paper's 100-user scale) so
performance regressions in the substrate are visible.
"""

import numpy as np

from repro.core.frequency import determine_frequencies
from repro.data.dataset import ArrayDataset
from repro.data.partition import iid_partition
from repro.devices.fleet import FleetSpec, make_fleet
from repro.network.tdma import simulate_tdma_round
from repro.nn.architectures import build_mini_squeezenet
from repro.nn.conv import Conv2D
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.optimizers import Sgd

PAYLOAD = 5e6
BANDWIDTH = 2e6


def paper_scale_fleet(num_users=100, seed=0):
    rng = np.random.default_rng(seed)
    dataset = ArrayDataset(
        rng.normal(size=(num_users * 40, 4)),
        rng.integers(0, 10, size=num_users * 40),
    )
    spec = FleetSpec(cycles_per_sample=1.25e8)
    return make_fleet(iid_partition(dataset, num_users, seed=seed), spec, seed=seed)


def test_conv_forward(benchmark):
    conv = Conv2D(16, 32, 3, padding=1, seed=0)
    x = np.random.default_rng(0).normal(size=(32, 16, 8, 8))
    benchmark(lambda: conv.forward(x))


def test_conv_forward_backward(benchmark):
    conv = Conv2D(16, 32, 3, padding=1, seed=0)
    x = np.random.default_rng(0).normal(size=(32, 16, 8, 8))

    def step():
        out = conv.forward(x, training=True)
        conv.backward(np.ones_like(out))

    benchmark(step)


def test_squeezenet_training_step(benchmark):
    model = build_mini_squeezenet(seed=0)
    loss = SoftmaxCrossEntropy()
    opt = Sgd(0.1)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(40, 3, 8, 8))
    y = rng.integers(0, 10, size=40)

    def step():
        logits = model.forward(x, training=True)
        _, grad = loss.loss_and_grad(logits, y)
        model.backward(grad)
        opt.step(model)

    benchmark(step)


def test_tdma_simulation_10_users(benchmark):
    devices = paper_scale_fleet(10)
    benchmark(lambda: simulate_tdma_round(devices, PAYLOAD, BANDWIDTH))


def test_algorithm3_at_paper_scale(benchmark):
    """Algorithm 3 over a full 100-user selection."""
    devices = paper_scale_fleet(100)
    result = benchmark(
        lambda: determine_frequencies(devices, PAYLOAD, BANDWIDTH)
    )
    assert len(result) == 100


def test_algorithm2_selection_at_paper_scale(benchmark):
    from repro.core.selection import GreedyDecaySelection
    from repro.devices.population import DevicePopulation

    population = DevicePopulation.from_devices(paper_scale_fleet(100))
    strategy = GreedyDecaySelection(0.1, 0.9, PAYLOAD, BANDWIDTH)

    def round_select():
        return strategy.select_population(1, population)

    selected = benchmark(round_select)
    assert len(selected) == 10
