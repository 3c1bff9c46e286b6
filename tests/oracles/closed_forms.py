"""The paper's scalar closed forms, one user at a time.

``src/`` evaluates Eq. (20) and FEDL's frequency for a whole
:class:`~repro.devices.DevicePopulation` at once; these are the
per-user formulas it must agree with, written with Python's scalar
``**`` and no validation (the population code owns the checks).
"""

from repro.devices.cpu import DvfsCpu


def decayed_utility(
    appearance_count: int,
    compute_delay: float,
    upload_delay: float,
    decay: float,
) -> float:
    """Eq. (20): ``eta^alpha / (T_cal + T_com)`` for one user."""
    return decay**appearance_count / (compute_delay + upload_delay)


def fedl_optimal_frequency(cpu: DvfsCpu, kappa: float) -> float:
    """FEDL's optimum of ``E_cal(f) + kappa * T_cal(f)``:
    ``(kappa / alpha)^(1/3)``, clamped into ``[f_min, f_max]``.

    The unclamped optimum is independent of ``|D|``: dataset size
    scales both cost terms identically, so it cancels.
    """
    return cpu.clamp((kappa / cpu.switched_capacitance) ** (1.0 / 3.0))
