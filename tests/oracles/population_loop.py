"""``DevicePopulation.from_devices`` as the per-device loop ``src/``
shipped until it built each column with one comprehension.

Nine numpy scalar stores per device into preallocated columns, with
``|D_q|`` read through ``UserDevice.num_samples``. The column-wise
builder must produce the same arrays byte for byte, and
``tests/devices/test_population.py`` asserts exactly that.
"""

from typing import List, Optional

import numpy as np

from repro.devices.population import DevicePopulation, _pack_ladders


def from_devices_loop(devices) -> DevicePopulation:
    size = len(devices)
    ids = np.empty(size, dtype=np.int64)
    f_min = np.empty(size)
    f_max = np.empty(size)
    cps = np.empty(size)
    cap = np.empty(size)
    samples = np.empty(size, dtype=np.int64)
    power = np.empty(size)
    gain = np.empty(size)
    noise = np.empty(size)
    ladders: List[Optional[np.ndarray]] = []
    for position, device in enumerate(devices):
        ids[position] = device.device_id
        f_min[position] = device.cpu.f_min
        f_max[position] = device.cpu.f_max
        cps[position] = device.cpu.cycles_per_sample
        cap[position] = device.cpu.switched_capacitance
        samples[position] = device.num_samples
        power[position] = device.radio.transmit_power
        gain[position] = device.radio.channel_gain
        noise[position] = device.radio.noise_power
        ladders.append(device.cpu.frequency_levels)
    ladder, sizes = _pack_ladders(ladders)
    return DevicePopulation(
        ids, f_min, f_max, cps, cap, samples, power, gain, noise,
        ladder=ladder, ladder_sizes=sizes,
    )
