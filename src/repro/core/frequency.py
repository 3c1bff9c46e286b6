"""Algorithm 3 — DVFS-enabled operating frequency determination.

The selected users are sorted by their max-frequency compute delays.
The first (fastest) user has no slack and runs at ``f_max``. Every
subsequent user's frequency is lowered so its local update completes
exactly when the previous user's upload completes::

    f_{q+1} = pi * |D_{q+1}| / T_q,    T_q = T_q^cal(f_q) + T_q^com

(the paper's line 9 with Eq. 9). By induction ``T_q`` equals user
``q``'s upload-completion time measured from the round start, so each
user's compute lands exactly at its channel-grant instant and the
quadratic compute energy (Eq. 5) shrinks without delaying the round.

Practical guards the paper leaves implicit:

* the target frequency is clamped into ``[f_min, f_max]`` — a user that
  cannot finish by the previous upload's end even at ``f_max`` simply
  runs at ``f_max`` (it will wait less or queue), and a user with huge
  slack is floored at ``f_min``;
* on CPUs with discrete DVFS ladders the frequency is rounded *up* to
  the next level so the schedule stays feasible.

With clamping, the recursion tracks the *actual* upload-finish time
(computed via the true queueing dynamics) rather than the idealized
``T_q``, so Algorithm 3 never lengthens the round when clamps bind.

It is energy-optimal at that round delay only when the ``f_max``
channel is busy from the first grant on. Where the channel idles, the
earlier users could start later too: Eq. (11) charges nothing for
waiting. An as-late-as-possible pass (same grant order; each user
finishes computing when its upload must start for the uploads to end
at the ``f_max`` round end ``T``) lengthened no round and used 40.4 %
less compute energy than Algorithm 3 over a 300-round HELCFL run at the
default profile (seed 7, IID), and 0.0 % less at
``ExperimentSettings.paper_scale``, whose channel never idles.

:func:`determine_frequencies_population` is the implementation: the
O(Q) inputs of the recursion — Eq. (4) delays at ``f_max``, the sort
(:func:`repro.sequential.rank_by`), Eq. (7) upload delays — are array
expressions over a :class:`~repro.devices.DevicePopulation`. The
Eq. (9) prefix scan over the sorted delay chain is sequential, and its
operation order is the bitwise contract with the reference in
``tests/oracles``. It takes scalar steps over plain floats where users
finish computing at the previous upload's end. A run of users floored
at ``f_min`` who wait for the channel is folded at once by
:func:`repro.sequential.queued_run`: their finishes are a running sum
of upload delays, and each user is checked with the loop's own
division and comparisons. :func:`determine_frequencies` and
:class:`HelcflDvfsPolicy` are adapters that return the same chain
keyed by device id.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.devices.device import UserDevice
from repro.devices.population import DevicePopulation
from repro.errors import ConfigurationError, SelectionError
from repro.fl.strategy import FrequencyPolicy
from repro.sequential import MIN_RUN, queued_run, rank_by, rows

__all__ = [
    "determine_frequencies",
    "determine_frequencies_population",
    "HelcflDvfsPolicy",
]

_QUANTIZE_EPS = 1e-12  # DvfsCpu.quantize's round-up tolerance


def _check_modes(clamp: bool, quantize: bool) -> None:
    if quantize and not clamp:
        raise ConfigurationError(
            "quantize=True requires clamp=True: DVFS ladders only cover "
            "[f_min, f_max], which the unclamped recursion may leave"
        )


def determine_frequencies(
    selected: Sequence[UserDevice],
    payload_bits: float,
    bandwidth_hz: float,
    clamp: bool = True,
    quantize: bool = False,
) -> Dict[int, float]:
    """Run Algorithm 3 on a selected set given as device objects.

    Thin adapter: snapshots ``selected`` into a
    :class:`~repro.devices.DevicePopulation` and runs the one
    implementation, :func:`determine_frequencies_population`.

    Args:
        selected: the round's selected user set ``Gamma_j``.
        payload_bits: model payload ``C_model`` in bits.
        bandwidth_hz: uplink resource blocks ``Z`` in Hz.
        clamp: clamp each derived frequency into the device's
            ``[f_min, f_max]`` (True for real devices; False reproduces
            the paper's idealized unclamped recursion and may return
            out-of-range frequencies).
        quantize: additionally snap frequencies up onto each device's
            discrete DVFS ladder when it has one.

    Returns:
        Mapping from device id to its determined operating frequency,
        keyed in ascending (``f_max`` compute delay, id) chain order.

    Raises:
        SelectionError: for an empty selection.
        ConfigurationError: for ``quantize=True`` with ``clamp=False``
            — ladder quantization snaps onto levels inside
            ``[f_min, f_max]``, which the unclamped idealized recursion
            may leave, so the combination is incoherent.
    """
    _check_modes(clamp, quantize)
    if not selected:
        raise SelectionError("cannot determine frequencies for no devices")
    return _chain_frequencies_by_id(
        DevicePopulation.from_devices(selected),
        payload_bits,
        bandwidth_hz,
        clamp,
        quantize,
    )


def _chain_frequencies(
    population: DevicePopulation,
    payload_bits: float,
    bandwidth_hz: float,
    clamp: bool,
    quantize: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """Algorithm 3's chain: ``(order, frequencies)``.

    ``order`` lists population positions in ascending (``f_max``
    compute delay, id) order — line 1's sort — and ``frequencies[r]``
    is the frequency of the device at ``order[r]``.
    """
    _check_modes(clamp, quantize)
    order = rank_by(population.compute_delay(), population.device_ids)
    staged = tuple(
        column[order]
        for column in (
            population.cycles,
            population.f_min,
            population.f_max,
            population.upload_delay(payload_bits, bandwidth_hz),
            population.ladder_sizes,
        )
    )
    all_cycles, all_low, all_high, all_uploads, all_widths = staged

    def targets(finishes: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Line 9 and the clamps for chain ranks ``[lo, hi)``."""
        freq = all_cycles[lo:hi] / finishes
        if clamp:
            low, high = all_low[lo:hi], all_high[lo:hi]
            freq = np.where(low > freq, low, freq)
            freq = np.where(high < freq, high, freq)
        return freq

    def waits(finishes: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """The loop's ``previous_finish > upload_start`` per rank; a
        ladder rank is left to the loop."""
        waited = finishes > all_cycles[lo:hi] / targets(finishes, lo, hi)
        if quantize:
            waited &= all_widths[lo:hi] == 0
        return waited

    # The Eq. (9) chain over plain CPython floats, in the paper's order.
    # The comparisons are the ones ``max``/``min`` perform (ties and NaN
    # keep the first argument), written inline: at N = 10^4 the builtin
    # calls were a third of the scan. Once MIN_RUN users in a row have
    # waited for the channel, ``queued_run`` folds the run: each waiting
    # user's finish is the previous finish plus its upload, and
    # ``targets``/``waits`` are this loop body as array operations.
    size = order.shape[0]
    frequencies = np.empty(size, dtype=np.float64)
    # Lines 3-4: the first user has no slack. (Clamping its f_max into
    # its own range changes nothing, so the loop treats it like the rest.)
    freq = float(all_high[0])
    previous_finish = 0.0
    rank = 0
    while rank < size:
        run = 0  # users in a row that waited for the channel
        for cycles, f_low, f_high, upload_delay, width in rows(staged, rank):
            if rank:
                # Line 9: finish computing when the previous upload ends.
                freq = cycles / previous_finish
            if clamp:
                if f_low > freq:
                    freq = f_low
                if f_high < freq:
                    freq = f_high
            if quantize and width:
                row = population.ladder[order[rank], :width]
                idx = int(np.searchsorted(row, freq - _QUANTIZE_EPS))
                freq = float(row[idx if idx < width else width - 1])
                run = -1  # ladder ranks stay in this loop
            frequencies[rank] = freq
            # Line 8 generalized: the user's actual upload-finish time
            # under FIFO channel queueing. Without clamping this reduces
            # to the paper's T_q = T_q^cal + T_q^com exactly (compute
            # lands at the previous finish, so upload_start ==
            # compute_end).
            upload_start = cycles / freq
            if previous_finish > upload_start:
                upload_start = previous_finish
                run += 1
            else:
                run = 0
            previous_finish = upload_start + upload_delay
            rank += 1
            if run == MIN_RUN and rank < size:
                finishes, previous_finish = queued_run(
                    previous_finish, all_uploads, rank, waits
                )
                stop = rank + finishes.shape[0]
                frequencies[rank:stop] = targets(finishes, rank, stop)
                rank = stop
                break
    return order, frequencies


def _chain_frequencies_by_id(
    population: DevicePopulation,
    payload_bits: float,
    bandwidth_hz: float,
    clamp: bool,
    quantize: bool,
) -> Dict[int, float]:
    """Algorithm 3 as an id-keyed dict in chain order.

    The one place the dict form is built: key order is what
    ``FrequencyAssignmentEvent.frequencies`` serializes, so the adapter
    and the policy must not each derive it.
    """
    order, frequencies = _chain_frequencies(
        population, payload_bits, bandwidth_hz, clamp, quantize
    )
    return dict(zip(population.device_ids[order].tolist(), frequencies.tolist()))


def determine_frequencies_population(
    population: DevicePopulation,
    payload_bits: float,
    bandwidth_hz: float,
    clamp: bool = True,
    quantize: bool = False,
) -> np.ndarray:
    """Run Algorithm 3 over a selected-set population slice.

    Eq. (4) delays, the (delay, id) sort, and Eq. (7) upload delays are
    array expressions; the Eq. (9) finish-time recursion walks the
    sorted chain as float ops in the paper's order, folding runs of
    users who wait for the channel (see the module docstring).

    Args:
        population: the selected set ``Gamma_j`` as a population slice
            (e.g. ``fleet_population.take(selected_positions)``).
        payload_bits: model payload ``C_model`` in bits.
        bandwidth_hz: uplink resource blocks ``Z`` in Hz.
        clamp: as in :func:`determine_frequencies`.
        quantize: as in :func:`determine_frequencies`.

    Returns:
        Operating frequencies as a float64 ndarray aligned with
        ``population`` order (position ``q`` serves
        ``population.device_ids[q]``).
    """
    order, frequencies = _chain_frequencies(
        population, payload_bits, bandwidth_hz, clamp, quantize
    )
    assigned = np.empty(len(population), dtype=np.float64)
    assigned[order] = frequencies
    return assigned


class HelcflDvfsPolicy(FrequencyPolicy):
    """Algorithm 3 packaged as a :class:`FrequencyPolicy`.

    Args:
        clamp: see :func:`determine_frequencies`; policies used inside
            a real trainer must clamp (the TDMA simulator validates
            frequencies against device ranges).
        quantize: snap onto discrete DVFS ladders when present.
    """

    def __init__(self, clamp: bool = True, quantize: bool = False) -> None:
        _check_modes(clamp, quantize)
        self.clamp = bool(clamp)
        self.quantize = bool(quantize)

    def assign(
        self,
        selected: Sequence[UserDevice],
        payload_bits: float,
        bandwidth_hz: float,
        *,
        round_index: int = 0,
        population: DevicePopulation,
    ) -> Dict[int, float]:
        del selected, round_index  # Algorithm 3 is stateless across rounds.
        return _chain_frequencies_by_id(
            population, payload_bits, bandwidth_hz, self.clamp, self.quantize
        )
