"""Composable, declarative fault plans.

A :class:`FaultPlan` describes *what can go wrong* in a training run:
which devices drop out (before or during their local update), which
ones straggle (compute-delay multipliers), which uploads the channel
kills or degrades, and which batteries die mid-round. Plans are pure
data — frozen dataclasses with a JSON round-trip — so a chaos scenario
can live in version control next to the experiment that runs it and
two runs of the same plan are comparable line by line.

Each :class:`FaultSpec` targets either one device (``device_id``) or
every selected device (``device_id=None``), either specific rounds
(``rounds``) or every round (``rounds=None``), and fires either always
(``probability=1``) or per-``(spec, round, device)`` with a
deterministic seeded coin flip (see
:class:`~repro.faults.injector.FaultInjector`). An empty plan is a
strict no-op: the trainer's outputs are bitwise identical to running
without a plan at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Dict, Optional, Tuple

from repro import wire
from repro.errors import ConfigurationError

__all__ = [
    "FaultSpec",
    "DropoutFault",
    "StragglerFault",
    "ChannelFault",
    "BatteryDeathFault",
    "FaultPlan",
    "FAULT_TYPES",
    "PHASE_BEFORE_COMPUTE",
    "PHASE_DURING_COMPUTE",
    "MODE_OUTAGE",
    "MODE_DEGRADE",
]

PHASE_BEFORE_COMPUTE = "before_compute"
PHASE_DURING_COMPUTE = "during_compute"
MODE_OUTAGE = "outage"
MODE_DEGRADE = "degrade"


@dataclass(frozen=True)
class FaultSpec(wire.Tagged, tag="type"):
    """Common targeting knobs shared by every fault type.

    Declaring a fault type is subclassing this (see
    :class:`repro.wire.Tagged`): give the class a ``kind`` (the
    ``"type"`` key of the serialized form), annotate its fields, and
    validate their domain in ``__post_init__``. Registration in
    :data:`FAULT_TYPES`, the JSON round trip and unknown-field
    rejection are derived. Do not decorate subclasses.

    Attributes:
        device_id: target device; ``None`` targets every selected
            device of the matching rounds.
        rounds: 1-based round indices the fault is armed in; ``None``
            arms it every round.
        probability: chance the armed fault actually fires for one
            ``(round, device)`` pair. Draws come from a generator
            derived from the plan seed, the spec's position, the round,
            and the device id, so firing is deterministic and
            independent of evaluation order.
    """

    kind: ClassVar[str] = "fault"

    device_id: Optional[int] = None
    rounds: Optional[Tuple[int, ...]] = None
    probability: float = 1.0

    def __post_init__(self) -> None:
        if self.device_id is not None and self.device_id < 0:
            raise ConfigurationError(
                f"device_id must be non-negative, got {self.device_id}"
            )
        if self.rounds is not None:
            object.__setattr__(
                self, "rounds", tuple(int(r) for r in self.rounds)
            )
            if not self.rounds:
                raise ConfigurationError(
                    "rounds must be None (every round) or non-empty"
                )
            if any(r <= 0 for r in self.rounds):
                raise ConfigurationError(
                    f"rounds must be positive, got {self.rounds}"
                )
        if not 0.0 < self.probability <= 1.0:
            raise ConfigurationError(
                f"probability must be in (0, 1], got {self.probability}"
            )

    def armed_in_round(self, round_index: int) -> bool:
        """Whether this spec is armed in 1-based round ``round_index``."""
        return self.rounds is None or round_index in self.rounds


class DropoutFault(FaultSpec):
    """A device vanishes from the round.

    Attributes:
        phase: ``"before_compute"`` — the device never starts its local
            update (no compute energy, and the FLCC re-plans the DVFS
            slack schedule over the survivors); ``"during_compute"`` —
            the device dies partway through training (it burns
            ``progress`` of its compute energy, never uploads, and
            never contends for the channel).
        progress: fraction of the local update completed before a
            during-compute death, in ``(0, 1]``.
    """

    kind = "dropout"

    phase: str = PHASE_BEFORE_COMPUTE
    progress: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.phase not in (PHASE_BEFORE_COMPUTE, PHASE_DURING_COMPUTE):
            raise ConfigurationError(
                f"phase must be {PHASE_BEFORE_COMPUTE!r} or "
                f"{PHASE_DURING_COMPUTE!r}, got {self.phase!r}"
            )
        if not 0.0 < self.progress <= 1.0:
            raise ConfigurationError(
                f"progress must be in (0, 1], got {self.progress}"
            )


class StragglerFault(FaultSpec):
    """A device's local update takes ``slowdown`` times longer.

    Models background load / thermal throttling: the CPU stays busy at
    the operating frequency for the stretched window, so both the
    compute delay (Eq. 4) and the compute energy (Eq. 5) scale by the
    factor. A straggler first eats its own DVFS slack; past that it
    delays its channel grant and every successor's (the Algorithm 3
    schedule was planned without knowing about the slowdown).

    Attributes:
        slowdown: compute-delay multiplier, ``>= 1``.
    """

    kind = "straggler"

    slowdown: float = 2.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (math.isfinite(self.slowdown) and self.slowdown >= 1.0):
            raise ConfigurationError(
                f"slowdown must be >= 1, got {self.slowdown}"
            )


class ChannelFault(FaultSpec):
    """The TDMA upload path fails or degrades for a device.

    Attributes:
        mode: ``"outage"`` — the upload fails at the device's channel
            grant (full compute energy spent, no upload energy, the
            channel is not occupied, the update is lost);
            ``"degrade"`` — the achieved uplink rate drops to
            ``rate_scale`` of nominal, stretching the upload delay and
            energy (Eqs. 7–8) by ``1 / rate_scale``.
        rate_scale: achieved fraction of the nominal uplink rate for
            ``"degrade"``, in ``(0, 1]``; ignored for ``"outage"``.
    """

    kind = "channel"

    mode: str = MODE_OUTAGE
    rate_scale: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.mode not in (MODE_OUTAGE, MODE_DEGRADE):
            raise ConfigurationError(
                f"mode must be {MODE_OUTAGE!r} or {MODE_DEGRADE!r}, "
                f"got {self.mode!r}"
            )
        if not 0.0 < self.rate_scale <= 1.0:
            raise ConfigurationError(
                f"rate_scale must be in (0, 1], got {self.rate_scale}"
            )


class BatteryDeathFault(FaultSpec):
    """A device's battery dies mid-round.

    The device completes its round work, but its battery empties at
    the end of the round (``Battery.kill``), so its update is dropped
    from aggregation — and with ``enforce_battery`` it stays dead for
    the rest of the run. Devices without a battery still lose the
    round's update (sudden shutdown).
    """

    kind = "battery_death"


FAULT_TYPES: Dict[str, type] = FaultSpec.__members__
"""Registry mapping each fault ``kind`` to its dataclass.

Filled by subclassing :class:`FaultSpec`, in declaration order.
"""


@wire.record
@dataclass(frozen=True)
class FaultPlan(wire.Document):
    """A seeded, ordered collection of fault specs.

    Attributes:
        seed: roots every probabilistic firing decision (specs with
            ``probability=1`` never consult it).
        faults: the specs, in declaration order. Effects on one device
            compose: straggler slowdowns multiply, channel degradations
            multiply, and terminal faults (dropout, outage) take
            precedence over degradations.
    """

    noun = "fault plan"
    error = ConfigurationError
    format = dict(indent=2)

    seed: int = 0
    faults: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for spec in self.faults:
            if not isinstance(spec, FaultSpec):
                raise ConfigurationError(
                    f"faults must be FaultSpec instances, got "
                    f"{type(spec).__name__}"
                )

    def __len__(self) -> int:
        return len(self.faults)

    def __bool__(self) -> bool:
        return bool(self.faults)

    @property
    def is_empty(self) -> bool:
        """True when the plan injects nothing (a guaranteed no-op)."""
        return not self.faults
