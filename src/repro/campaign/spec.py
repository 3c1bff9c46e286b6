"""Declarative campaign specifications.

A :class:`CampaignSpec` is pure data (like
:class:`~repro.faults.FaultPlan`): seeds × strategies × config
overrides × fault plans, JSON round-trippable, expanding into a
deterministic :class:`RunSpec` matrix. Two processes loading the same
spec file always agree on the run ids, their order, and every run's
exact configuration — the property the resumable manifest
(:mod:`repro.campaign.manifest`) is built on.

Spec JSON shape::

    {"name": "smoke",
     "profile": "quick",            # quick | default | paper
     "iid": true,
     "seeds": [0, 1],
     "strategies": ["helcfl", "classic"],
     "overrides": [{"settings": {"num_users": 10}, "trainer": {}}],
     "fault_plans": [null],
     "backend": "serial",           # per-run execution backend
     "workers": null,               # backend pool size
     "checkpoint_every": 1,
     "pool_workers": 2,             # campaign worker processes
     "max_retries": 2}

Every list is a matrix axis; the expansion is their ordered product
(seeds outermost, fault plans innermost).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro import wire
from repro.errors import ConfigurationError
from repro.experiments.settings import ExperimentSettings
from repro.faults import FaultPlan
from repro.fl.execution import BACKEND_NAMES
from repro.fl.trainer import TrainerConfig

__all__ = ["CampaignSpec", "RunSpec"]

_PROFILES = ("quick", "default", "paper")
_OVERRIDE_SECTIONS = {
    "settings": frozenset(
        f.name for f in dataclasses.fields(ExperimentSettings)
    ),
    "trainer": frozenset(f.name for f in dataclasses.fields(TrainerConfig)),
}


def _base_settings(profile: str) -> ExperimentSettings:
    if profile == "quick":
        return ExperimentSettings.quick()
    if profile == "paper":
        return ExperimentSettings.paper_scale()
    return ExperimentSettings()


def _check_override(override: dict, position: int) -> Dict[str, dict]:
    where = f"overrides[{position}]"
    if not isinstance(override, dict):
        raise ConfigurationError(
            f"{where} must be an object, got {type(override).__name__}"
        )
    wire.reject_unknown(
        override, _OVERRIDE_SECTIONS, where, ConfigurationError, "sections"
    )
    checked = {}
    for section, known in _OVERRIDE_SECTIONS.items():
        fields = override.get(section, {})
        if not isinstance(fields, dict):
            raise ConfigurationError(
                f"{where}.{section} must be an object, got "
                f"{type(fields).__name__}"
            )
        wire.reject_unknown(
            fields, known, f"{where}.{section}", ConfigurationError
        )
        checked[section] = dict(fields)
    return checked


@wire.record
@dataclass(frozen=True)
class RunSpec(wire.Document):
    """One fully resolved run of a campaign's matrix.

    Its :meth:`to_dict` form is how runs ship to worker processes.

    Attributes:
        run_id: deterministic id, unique within the campaign —
            ``s<seed>-<strategy>-c<override index>-f<fault index>``.
        seed: the run's experiment seed.
        strategy: trainer strategy name.
        iid: partition regime.
        profile: settings baseline (``quick``/``default``/``paper``).
        settings_overrides: field overrides applied to the baseline.
        trainer_overrides: keyword overrides for the trainer config.
        fault_plan: the run's fault plan payload (``FaultPlan.to_dict``
            shape) or None.
        backend: per-run execution backend name.
        workers: backend pool size (None = backend default).
        checkpoint_every: rounds between checkpoint writes.
    """

    noun = "run spec"
    error = ConfigurationError

    run_id: str
    seed: int
    strategy: str
    iid: bool
    profile: str
    settings_overrides: dict = field(default_factory=dict)
    trainer_overrides: dict = field(default_factory=dict)
    fault_plan: Optional[dict] = None
    backend: str = "serial"
    workers: Optional[int] = None
    checkpoint_every: int = 1

    def build_settings(self) -> ExperimentSettings:
        """The run's :class:`ExperimentSettings` (seed applied last)."""
        overrides = dict(self.settings_overrides)
        if "image_shape" in overrides:
            overrides["image_shape"] = tuple(overrides["image_shape"])
        overrides["seed"] = self.seed
        return replace(_base_settings(self.profile), **overrides)

    def build_fault_plan(self) -> Optional[FaultPlan]:
        """The run's :class:`FaultPlan`, or None when faults are off."""
        if self.fault_plan is None:
            return None
        return FaultPlan.from_dict(self.fault_plan)


@wire.record
@dataclass(frozen=True)
class CampaignSpec(wire.Document):
    """A declarative multi-run experiment campaign.

    Attributes:
        name: campaign label (also the aggregate's label).
        profile: settings baseline every run starts from.
        iid: partition regime for every run.
        seeds: experiment seeds (matrix axis).
        strategies: trainer strategy names (matrix axis; ``sl`` is not
            campaignable — its loop has no checkpoint support).
        overrides: config-override variants (matrix axis), each an
            object with optional ``settings`` and ``trainer`` sections.
        fault_plans: fault-plan payloads or None entries (matrix axis).
        backend: per-run execution backend name.
        workers: backend pool size (None = backend default).
        checkpoint_every: rounds between checkpoint writes in each run.
        pool_workers: campaign worker processes running runs in
            parallel.
        max_retries: times a dead/failed run is requeued before the
            campaign marks it permanently failed.
    """

    noun = "campaign spec"
    error = ConfigurationError
    format = dict(sort_keys=True, indent=2)

    name: str
    profile: str = "quick"
    iid: bool = True
    seeds: Tuple[int, ...] = (0,)
    strategies: Tuple[str, ...] = ("helcfl",)
    overrides: Tuple[dict, ...] = ({},)
    fault_plans: Tuple[Optional[dict], ...] = (None,)
    backend: str = "serial"
    workers: Optional[int] = None
    checkpoint_every: int = 1
    pool_workers: int = 2
    max_retries: int = 2

    def __post_init__(self) -> None:
        from repro.experiments.runner import STRATEGY_NAMES

        if not self.name:
            raise ConfigurationError("campaign name must be non-empty")
        if self.profile not in _PROFILES:
            raise ConfigurationError(
                f"profile must be one of {_PROFILES}, got {self.profile!r}"
            )
        if not self.seeds:
            raise ConfigurationError("campaign needs at least one seed")
        if not self.strategies:
            raise ConfigurationError("campaign needs at least one strategy")
        trainable = tuple(n for n in STRATEGY_NAMES if n != "sl")
        for strategy in self.strategies:
            if strategy not in trainable:
                raise ConfigurationError(
                    f"strategy {strategy!r} is not campaignable; expected "
                    f"one of {trainable}"
                )
        if not self.overrides:
            raise ConfigurationError(
                "campaign needs at least one override variant (use [{}] "
                "for none)"
            )
        if not self.fault_plans:
            raise ConfigurationError(
                "campaign needs at least one fault-plan entry (use [null] "
                "for none)"
            )
        if self.backend not in BACKEND_NAMES:
            raise ConfigurationError(
                f"backend must be one of {BACKEND_NAMES}, got "
                f"{self.backend!r}"
            )
        if self.checkpoint_every <= 0:
            raise ConfigurationError(
                "checkpoint_every must be positive, got "
                f"{self.checkpoint_every}"
            )
        if self.pool_workers <= 0:
            raise ConfigurationError(
                f"pool_workers must be positive, got {self.pool_workers}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be non-negative, got {self.max_retries}"
            )
        for position, override in enumerate(self.overrides):
            _check_override(override, position)
        for position, payload in enumerate(self.fault_plans):
            if payload is not None:
                FaultPlan.from_dict(payload, f"fault_plans[{position}]")

    def expand(self) -> Tuple[RunSpec, ...]:
        """The deterministic run matrix, seeds outermost.

        Expansion order (and hence manifest/aggregate order) is the
        ordered product seeds × strategies × overrides × fault_plans.
        """
        runs: List[RunSpec] = []
        for seed in self.seeds:
            for strategy in self.strategies:
                for override_index, override in enumerate(self.overrides):
                    checked = _check_override(override, override_index)
                    for fault_index, fault_plan in enumerate(
                        self.fault_plans
                    ):
                        runs.append(
                            RunSpec(
                                run_id=(
                                    f"s{seed}-{strategy}"
                                    f"-c{override_index}-f{fault_index}"
                                ),
                                seed=int(seed),
                                strategy=strategy,
                                iid=self.iid,
                                profile=self.profile,
                                settings_overrides=checked["settings"],
                                trainer_overrides=checked["trainer"],
                                fault_plan=fault_plan,
                                backend=self.backend,
                                workers=self.workers,
                                checkpoint_every=self.checkpoint_every,
                            )
                        )
        return tuple(runs)
