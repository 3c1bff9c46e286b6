"""Struct-of-arrays view of a device fleet (population-scale core).

A :class:`DevicePopulation` holds one numpy array per device attribute
— maximum/minimum CPU frequencies, effective switched capacitance,
local dataset sizes ``|D_q|``, channel gains, transmit/noise powers
— so the paper's cost model (Eqs. 4–11) and the
schedulers built on it (Algorithms 2 and 3) evaluate as array
expressions over the whole fleet instead of Python loops over
:class:`~repro.devices.device.UserDevice` objects. This is what lets
selection and DVFS scale to Q ≈ 10⁵–10⁶ users.

Bitwise parity with the per-device scalar methods is a hard contract
here: every array expression mirrors the exact floating-point
operation order of the corresponding ``UserDevice``/``DvfsCpu``/``Radio``
code, and the parity tests (against ``tests/oracles``) assert equality
to the last bit. Two operations need care:

* ``numpy.log2`` and ``math.log2`` round differently on some inputs,
  so the Eq. (6) term ``log2(1 + p h² / N0)`` is precomputed per device
  with ``math.log2`` at construction (and on channel-gain updates) and
  cached in :attr:`log2_snr1`;
* ``ndarray ** 2`` does not always match Python's scalar ``**``;
  ``numpy.float_power`` does, so squares use it (decay powers are
  looked up in a table of Python-scalar ``eta ** k``, see
  :func:`repro.core.utility.decay_powers`).

Construction is O(Q) Python once (``from_devices``) or fully
vectorized (``from_spec``, which replays ``make_fleet``'s RNG stream
bitwise without materializing any ``UserDevice``); everything after
that is numpy.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.devices.device import UserDevice
from repro.devices.fleet import FleetSpec
from repro.errors import ConfigurationError, DeviceError, FrequencyRangeError
from repro.rng import SeedLike, ensure_generator

__all__ = ["DevicePopulation"]

_QUANTIZE_EPS = 1e-12  # matches DvfsCpu.quantize's round-up tolerance

# Every position-aligned 1-D array a population holds (``ladder`` is the
# one 2-D array); ``take`` slices exactly these.
_ALIGNED_ARRAYS = (
    "device_ids",
    "f_min",
    "f_max",
    "cycles_per_sample",
    "switched_capacitance",
    "num_samples",
    "cycles",
    "transmit_power",
    "channel_gain",
    "noise_power",
    "ladder_sizes",
    "log2_snr1",
)


class DevicePopulation:
    """A numpy struct-of-arrays snapshot of a device fleet.

    All arrays are aligned: position ``q`` describes the same device in
    every array, and scheduler APIs that return "array scores" index by
    this position. Selection state (the appearance counters
    ``alpha_q``) lives in the strategy, aligned to :attr:`device_ids`.

    Construct via :meth:`from_devices` or :meth:`from_spec`; the
    constructor itself takes pre-built arrays and is mostly internal.

    Attributes:
        device_ids: int64 device ids (the paper's subscript ``q``).
        f_min: per-device lowest operating frequency in Hz.
        f_max: per-device highest operating frequency in Hz.
        cycles_per_sample: the paper's ``pi`` per device.
        switched_capacitance: the paper's ``alpha`` per device.
        num_samples: local dataset sizes ``|D_q|`` (int64).
        cycles: precomputed ``pi * |D_q|`` per device.
        transmit_power: uplink power ``p`` in watts.
        channel_gain: amplitude channel gain ``h``.
        noise_power: background noise power ``N0`` in watts.
        log2_snr1: cached ``log2(1 + p h²/N0)`` per device, computed
            with ``math.log2`` for bitwise parity with ``Radio``.

    The Eq. (9) delay at ``f_max``, Algorithm 2's Eq. (20) denominator,
    is cached too, per ``(payload_bits, bandwidth_hz)``, on first
    :meth:`max_frequency_delay`; :meth:`set_channel_gains` drops it and
    :meth:`take` children start without it.
    """

    def __init__(
        self,
        device_ids: np.ndarray,
        f_min: np.ndarray,
        f_max: np.ndarray,
        cycles_per_sample: np.ndarray,
        switched_capacitance: np.ndarray,
        num_samples: np.ndarray,
        transmit_power: np.ndarray,
        channel_gain: np.ndarray,
        noise_power: np.ndarray,
        ladder: Optional[np.ndarray] = None,
        ladder_sizes: Optional[np.ndarray] = None,
    ) -> None:
        self.device_ids = np.asarray(device_ids, dtype=np.int64)
        size = self.device_ids.shape[0]
        if size == 0:
            raise DeviceError("cannot build a population of zero devices")
        self.f_min = np.asarray(f_min, dtype=np.float64)
        self.f_max = np.asarray(f_max, dtype=np.float64)
        self.cycles_per_sample = np.asarray(cycles_per_sample, dtype=np.float64)
        self.switched_capacitance = np.asarray(
            switched_capacitance, dtype=np.float64
        )
        self.num_samples = np.asarray(num_samples, dtype=np.int64)
        self.transmit_power = np.asarray(transmit_power, dtype=np.float64)
        self.channel_gain = np.asarray(channel_gain, dtype=np.float64)
        self.noise_power = np.asarray(noise_power, dtype=np.float64)
        for name in (
            "f_min",
            "f_max",
            "cycles_per_sample",
            "switched_capacitance",
            "num_samples",
            "transmit_power",
            "channel_gain",
            "noise_power",
        ):
            if getattr(self, name).shape != (size,):
                raise DeviceError(
                    f"population array {name!r} has shape "
                    f"{getattr(self, name).shape}, expected ({size},)"
                )
        if np.any(self.num_samples < 0):
            raise DeviceError("num_samples must be non-negative")
        # Eq. (4) numerator pi * |D_q|: float * int, exact below 2**53.
        self.cycles = self.cycles_per_sample * self.num_samples
        # Discrete DVFS ladders, padded to a rectangle with +inf so
        # padding never wins a searchsorted; sizes hold the true per-row
        # ladder lengths (0 = continuous DVFS for that device).
        self.ladder = None if ladder is None else np.asarray(ladder, np.float64)
        if self.ladder is not None:
            if ladder_sizes is None:
                raise DeviceError("ladder requires ladder_sizes")
            self.ladder_sizes = np.asarray(ladder_sizes, dtype=np.int64)
        else:
            self.ladder_sizes = np.zeros(size, dtype=np.int64)
        self._refresh_log2_snr1()
        self._position_by_id: Optional[dict] = None
        self._fmax_delay: Optional[Tuple[Tuple[float, float], np.ndarray]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_devices(cls, devices: Sequence[UserDevice]) -> "DevicePopulation":
        """Snapshot an existing object fleet into arrays.

        O(Q) Python, paid once per run; every scheduler call afterwards
        is vectorized. Channel-gain changes on the objects after the
        snapshot must be mirrored via :meth:`set_channel_gains`.
        """
        if not devices:
            raise DeviceError("cannot build a population of zero devices")
        # One comprehension per column: a list of Python scalars becomes
        # the array in one conversion, as each per-element store would.
        cpus = [device.cpu for device in devices]
        radios = [device.radio for device in devices]
        ids = np.array([device.device_id for device in devices], dtype=np.int64)
        f_min = np.array([cpu.f_min for cpu in cpus], dtype=np.float64)
        f_max = np.array([cpu.f_max for cpu in cpus], dtype=np.float64)
        cps = np.array([cpu.cycles_per_sample for cpu in cpus], dtype=np.float64)
        cap = np.array([cpu.switched_capacitance for cpu in cpus], dtype=np.float64)
        # |D_q| straight from the dataset, not via UserDevice.num_samples.
        samples = np.array([len(device.dataset) for device in devices], dtype=np.int64)
        power = np.array([radio.transmit_power for radio in radios], dtype=np.float64)
        gain = np.array([radio.channel_gain for radio in radios], dtype=np.float64)
        noise = np.array([radio.noise_power for radio in radios], dtype=np.float64)
        ladders = [cpu.frequency_levels for cpu in cpus]
        ladder, sizes = _pack_ladders(ladders)
        return cls(
            ids,
            f_min,
            f_max,
            cps,
            cap,
            samples,
            power,
            gain,
            noise,
            ladder=ladder,
            ladder_sizes=sizes,
        )

    @classmethod
    def from_spec(
        cls,
        spec: Optional[FleetSpec],
        num_samples: Union[Sequence[int], np.ndarray],
        seed: SeedLike = None,
    ) -> "DevicePopulation":
        """Draw a fleet directly into arrays, bitwise-matching ``make_fleet``.

        Replays :func:`repro.devices.fleet.make_fleet`'s per-device RNG
        stream with bulk draws (``uniform(size=Q)``, or one
        ``random(2Q)`` block when channel gains are heterogeneous and
        the draws interleave), so ``from_spec(spec, sizes, seed)``
        equals ``from_devices(make_fleet(partitions, spec, seed))``
        bit-for-bit without building ``Q`` Python objects — the
        constructor for the Q ≈ 10⁵–10⁶ scalability studies.

        Args:
            spec: population parameters; None means ``FleetSpec()``.
            num_samples: per-device local dataset sizes ``|D_q|``
                (their length fixes Q and device ids ``0..Q-1``).
            seed: seed for the heterogeneity draws.
        """
        spec = spec or FleetSpec()
        samples = np.asarray(num_samples, dtype=np.int64)
        if samples.ndim != 1 or samples.shape[0] == 0:
            raise DeviceError(
                "num_samples must be a non-empty 1-D sequence of "
                "per-device dataset sizes"
            )
        size = samples.shape[0]
        rng = ensure_generator(seed)
        gain_low, gain_high = spec.channel_gain_range
        if gain_low == gain_high:
            # make_fleet draws only f_max per device.
            f_max = rng.uniform(spec.f_max_low_hz, spec.f_max_high_hz, size)
            gain = np.full(size, float(gain_low))
        else:
            # make_fleet interleaves f_max and gain draws; one raw block
            # plus uniform's own affine map reproduces both streams.
            raw = rng.random(2 * size)
            f_max = spec.f_max_low_hz + (
                spec.f_max_high_hz - spec.f_max_low_hz
            ) * raw[0::2]
            gain = gain_low + (gain_high - gain_low) * raw[1::2]
        f_max = np.asarray(f_max, dtype=np.float64)
        ladder = sizes = None
        if spec.frequency_levels is not None:
            # make_fleet: sorted(frac * f_max) then clip into
            # [f_min, f_max]; multiplying the pre-sorted fractions by a
            # positive f_max yields the same ascending values, and
            # clipping preserves the order.
            fractions = np.sort(
                np.asarray(spec.frequency_levels, dtype=np.float64)
            )
            ladder = fractions[np.newaxis, :] * f_max[:, np.newaxis]
            ladder = np.maximum(
                spec.f_min_hz, np.minimum(ladder, f_max[:, np.newaxis])
            )
            sizes = np.full(size, fractions.shape[0], dtype=np.int64)
        return cls(
            np.arange(size, dtype=np.int64),
            np.full(size, float(spec.f_min_hz)),
            f_max,
            np.full(size, float(spec.cycles_per_sample)),
            np.full(size, float(spec.switched_capacitance)),
            samples,
            np.full(size, float(spec.transmit_power_w)),
            gain,
            np.full(size, float(spec.noise_power_w)),
            ladder=ladder,
            ladder_sizes=sizes,
        )

    # ------------------------------------------------------------------
    # Views and updates
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.device_ids.shape[0])

    def take(self, positions: Union[Sequence[int], np.ndarray]) -> "DevicePopulation":
        """Sub-population at ``positions`` (e.g. a round's selected set)."""
        idx = np.asarray(positions, dtype=np.int64)
        if idx.ndim != 1 or idx.size == 0:
            raise DeviceError(
                "cannot take an empty sub-population: positions must be a "
                "non-empty 1-D sequence"
            )
        # Slices of validated arrays need no second validation, and the
        # child keeps the parent's cached Eq. (6) terms: going through
        # __init__ would re-evaluate math.log2 per selected device.
        child = object.__new__(DevicePopulation)
        for name in _ALIGNED_ARRAYS:
            setattr(child, name, getattr(self, name)[idx])
        child.ladder = None if self.ladder is None else self.ladder[idx]
        child._position_by_id = None
        child._fmax_delay = None
        return child

    def position_of(self, device_id: int) -> int:
        """Array position of ``device_id`` (built lazily, cached)."""
        if self._position_by_id is None:
            self._position_by_id = {
                int(did): pos for pos, did in enumerate(self.device_ids)
            }
        try:
            return self._position_by_id[int(device_id)]
        except KeyError:
            raise DeviceError(
                f"device id {device_id} not in population"
            ) from None

    def set_channel_gains(
        self,
        positions: Sequence[int],
        gains: Sequence[float],
    ) -> None:
        """Update channel gains (per-round fading) and refresh Eq. (6).

        Only the touched devices' cached ``log2(1 + snr)`` terms are
        recomputed (with ``math.log2``, keeping radio parity); the cached
        :meth:`max_frequency_delay` column is dropped.
        """
        self._fmax_delay = None
        for position, gain in zip(positions, gains):
            value = float(gain)
            # Tested as "inside" so NaN is rejected along with +inf.
            if not 0.0 < value < math.inf:
                raise DeviceError(f"channel_gain must be finite and positive, got {value}")
            self.channel_gain[position] = value
            snr = (
                self.transmit_power[position] * value**2
                / self.noise_power[position]
            )
            self.log2_snr1[position] = math.log2(1.0 + snr)

    def _refresh_log2_snr1(self) -> None:
        snr = self.snr
        self.log2_snr1 = np.fromiter(
            (math.log2(1.0 + value) for value in snr.tolist()),
            dtype=np.float64,
            count=snr.shape[0],
        )

    # ------------------------------------------------------------------
    # Cost model, Eqs. (4)–(9), vectorized
    # ------------------------------------------------------------------
    @property
    def snr(self) -> np.ndarray:
        """Eq. (6) SNR ``p h² / N0`` per device."""
        return (
            self.transmit_power
            * np.float_power(self.channel_gain, 2.0)
            / self.noise_power
        )

    def compute_delay(
        self, frequencies: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Eq. (4) per device at ``frequencies`` (default ``f_max``)."""
        if frequencies is None:
            return self.cycles / self.f_max
        return self.cycles / self.validate_frequencies(frequencies)

    def compute_energy(
        self, frequencies: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Eq. (5) per device at ``frequencies`` (default ``f_max``)."""
        freqs = (
            self.f_max
            if frequencies is None
            else self.validate_frequencies(frequencies)
        )
        return (
            0.5
            * self.switched_capacitance
            * self.cycles
            * np.float_power(freqs, 2.0)
        )

    def upload_rate(self, bandwidth_hz: float) -> np.ndarray:
        """Eq. (6) uplink rate per device in bits/second."""
        if bandwidth_hz <= 0:
            raise DeviceError(f"bandwidth must be positive, got {bandwidth_hz}")
        return bandwidth_hz * self.log2_snr1

    def upload_delay(
        self,
        payload_bits: Union[float, np.ndarray],
        bandwidth_hz: float,
    ) -> np.ndarray:
        """Eq. (7) per device; ``payload_bits`` may be per-device.

        Raises:
            DeviceError: if a payload is not finite and non-negative.
        """
        payload = np.asarray(payload_bits, dtype=np.float64)
        # One pass, tested as "inside" so NaN is rejected with +-inf.
        if not ((payload >= 0.0) & (payload < np.inf)).all():
            raise DeviceError("payload must be finite and non-negative")
        return payload / self.upload_rate(bandwidth_hz)

    def upload_energy(
        self,
        payload_bits: Union[float, np.ndarray],
        bandwidth_hz: float,
    ) -> np.ndarray:
        """Eq. (8) per device."""
        return self.transmit_power * self.upload_delay(
            payload_bits, bandwidth_hz
        )

    def max_frequency_delay(
        self, payload_bits: float, bandwidth_hz: float
    ) -> np.ndarray:
        """Eq. (9) ``T_q`` per device at ``f_max`` (Algorithm 2, lines 3-4).

        It depends only on the device and its link, so it is computed
        once per ``(payload_bits, bandwidth_hz)`` and kept as a
        read-only column until :meth:`set_channel_gains` moves a gain.

        Raises:
            DeviceError: if ``payload_bits`` is not finite and
                non-negative.
            ConfigurationError: if a delay is not finite and positive
                (NaN or +inf would poison the Eq. 20 ranking).
        """
        key = (float(payload_bits), float(bandwidth_hz))
        cached = self._fmax_delay
        if cached is None or cached[0] != key:
            delay = self.compute_delay() + self.upload_delay(*key)
            # Tested as "inside" so NaN, which fails every comparison,
            # is rejected along with +inf.
            if not ((delay > 0) & (delay < np.inf)).all():
                raise ConfigurationError("total delay must be finite and positive")
            delay.flags.writeable = False
            self._fmax_delay = cached = (key, delay)
        return cached[1]

    def total_delay(
        self,
        payload_bits: float,
        bandwidth_hz: float,
        frequencies: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Eq. (9) ``T_q = T_q^cal + T_q^com`` per device."""
        return self.compute_delay(frequencies) + self.upload_delay(
            payload_bits, bandwidth_hz
        )

    # ------------------------------------------------------------------
    # Frequency handling (DvfsCpu semantics, array-wise)
    # ------------------------------------------------------------------
    def validate_frequencies(self, frequencies: np.ndarray) -> np.ndarray:
        """Array twin of ``DvfsCpu.validate_frequency``."""
        freqs = np.asarray(frequencies, dtype=np.float64)
        tolerance = 1e-9 * self.f_max
        # Tested as "inside" so NaN, which fails every comparison, is
        # rejected along with +-inf.
        inside = (freqs >= self.f_min - tolerance) & (
            freqs <= self.f_max + tolerance
        )
        if not inside.all():
            position = int(np.flatnonzero(~inside)[0])
            raise FrequencyRangeError(
                f"frequency {freqs[position]:.4g} Hz outside "
                f"[{self.f_min[position]:.4g}, {self.f_max[position]:.4g}] Hz"
            )
        return self.clamp(freqs)

    def clamp(self, frequencies: np.ndarray) -> np.ndarray:
        """Array twin of ``DvfsCpu.clamp``."""
        freqs = np.asarray(frequencies, dtype=np.float64)
        return np.minimum(np.maximum(freqs, self.f_min), self.f_max)

    def quantize(self, frequencies: np.ndarray) -> np.ndarray:
        """Array twin of ``DvfsCpu.quantize`` (snap up onto ladders)."""
        freqs = self.clamp(frequencies)
        if self.ladder is None:
            return freqs
        # searchsorted-left per row: count of levels strictly below the
        # (tolerance-shifted) request; +inf padding never counts.
        targets = freqs - _QUANTIZE_EPS
        counts = np.sum(self.ladder < targets[:, np.newaxis], axis=1)
        sizes = np.maximum(self.ladder_sizes, 1)
        idx = np.minimum(counts, sizes - 1)
        snapped = self.ladder[np.arange(len(self)), idx]
        return np.where(self.ladder_sizes > 0, snapped, freqs)

    def __repr__(self) -> str:
        return (
            f"DevicePopulation(Q={len(self)}, "
            f"f_max=[{self.f_max.min() / 1e9:.2f}, "
            f"{self.f_max.max() / 1e9:.2f}]GHz)"
        )


def _pack_ladders(
    ladders: Sequence[Optional[np.ndarray]],
) -> "tuple[Optional[np.ndarray], Optional[np.ndarray]]":
    """Pad ragged per-device DVFS ladders into one rectangular array."""
    widths = [0 if levels is None else int(levels.shape[0]) for levels in ladders]
    max_width = max(widths)
    if max_width == 0:
        return None, None
    packed = np.full((len(ladders), max_width), np.inf)
    for row, levels in enumerate(ladders):
        if levels is not None:
            packed[row, : widths[row]] = levels
    return packed, np.asarray(widths, dtype=np.int64)
