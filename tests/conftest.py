"""Shared fixtures for the HELCFL reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import ArrayDataset
from repro.devices.cpu import DvfsCpu
from repro.devices.device import UserDevice
from repro.devices.population import DevicePopulation
from repro.devices.radio import Radio


def make_device(
    device_id: int = 0,
    f_max: float = 1.0e9,
    f_min: float = 0.3e9,
    num_samples: int = 40,
    cycles_per_sample: float = 1e7,
    transmit_power: float = 0.2,
    channel_gain: float = 1.0,
    noise_power: float = 1e-2,
    input_dim: int = 4,
    num_classes: int = 3,
    seed: int = 0,
) -> UserDevice:
    """Build a small fully-specified device for unit tests."""
    rng = np.random.default_rng(seed + device_id)
    inputs = rng.normal(size=(num_samples, input_dim))
    labels = rng.integers(0, num_classes, size=num_samples)
    return UserDevice(
        device_id=device_id,
        cpu=DvfsCpu(f_min=f_min, f_max=f_max, cycles_per_sample=cycles_per_sample),
        radio=Radio(
            transmit_power=transmit_power,
            channel_gain=channel_gain,
            noise_power=noise_power,
        ),
        dataset=ArrayDataset(inputs, labels),
    )


def make_heterogeneous_devices(count: int = 6, seed: int = 0):
    """A small fleet with spread-out maximum frequencies."""
    rng = np.random.default_rng(seed)
    devices = []
    for idx in range(count):
        f_max = float(rng.uniform(0.4e9, 2.0e9))
        devices.append(make_device(device_id=idx, f_max=f_max, seed=seed))
    return devices


def selected_ids(strategy, round_index: int, devices) -> list:
    """The ids ``strategy`` selects from ``devices`` (a device list or a
    :class:`DevicePopulation`) in round ``round_index``, in rank order."""
    population = (
        devices
        if isinstance(devices, DevicePopulation)
        else DevicePopulation.from_devices(devices)
    )
    positions = strategy.select_population(round_index, population)
    return population.device_ids[positions].tolist()


def assign(policy, devices, payload_bits: float, bandwidth_hz: float, **kwargs):
    """``policy.assign`` over ``devices`` with their population slice."""
    return policy.assign(
        devices,
        payload_bits,
        bandwidth_hz,
        population=DevicePopulation.from_devices(devices),
        **kwargs,
    )


@pytest.fixture
def device():
    """A single mid-range device."""
    return make_device()


@pytest.fixture
def hetero_devices():
    """Six devices with heterogeneous maximum frequencies."""
    return make_heterogeneous_devices()


@pytest.fixture
def tiny_dataset():
    """A 30-sample, 3-class, 4-feature dataset."""
    rng = np.random.default_rng(1)
    inputs = rng.normal(size=(30, 4))
    labels = rng.integers(0, 3, size=30)
    return ArrayDataset(inputs, labels)
