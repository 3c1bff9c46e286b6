"""Wireless-network substrate: channel models and TDMA scheduling.

The paper's MEC system grants its ``Z`` resource blocks to one uploader
at a time (TDMA). :mod:`repro.network.tdma` simulates the resulting
per-round timeline — compute in parallel, upload sequentially — and
measures the slack time that HELCFL's Algorithm 3 converts into energy
savings.
"""

from repro.network.channel import RayleighFadingChannel
from repro.network.tdma import RoundTimeline, UserTimeline, simulate_tdma_round

__all__ = [
    "RayleighFadingChannel",
    "UserTimeline",
    "RoundTimeline",
    "simulate_tdma_round",
]
