#!/usr/bin/env python
"""Fig. 3 scenario: how much energy does Algorithm 3's DVFS save?

Runs HELCFL with the DVFS frequency-determination (Algorithm 3), replays
the same rounds with every device at max frequency (the traditional
TDMA FL behaviour), and reports the energy spent to reach each accuracy
target plus the per-round frequency assignments of one example round.

Usage::

    python examples/energy_saving.py
"""

from repro.experiments import (
    ExperimentSettings,
    derive_fig3,
    format_fig3_table,
    run_fig2,
)


def main() -> None:
    # Select half the 20-user population per round so the TDMA channel
    # genuinely queues (that queueing slack is what Algorithm 3 converts
    # into energy savings).
    settings = ExperimentSettings.quick(seed=0, rounds=60, fraction=0.5)
    sweep = run_fig2(settings, iid=True, strategies=("helcfl",))
    result = derive_fig3(sweep)

    print(format_fig3_table(result))

    # Show what Algorithm 3 actually did in one round.
    devices = {d.device_id: d for d in sweep.environment.devices}
    record = result.dvfs_history.records[0]
    print("\nRound 1 frequency assignments (Algorithm 3):")
    print("  device   assigned f      f_max    fraction")
    for device_id, freq in sorted(record.frequencies.items()):
        f_max = devices[device_id].cpu.f_max
        print(
            f"  {device_id:6d}  {freq / 1e9:9.3f}GHz  "
            f"{f_max / 1e9:8.3f}GHz  {100 * freq / f_max:8.1f}%"
        )

    print(
        f"\nWhole-run energy saving from DVFS: "
        f"{100 * result.total_energy_reduction:.2f}%"
    )
    print(
        "Accuracy curves are identical by construction - Algorithm 3 "
        "only changes CPU frequencies, never the training mathematics."
    )


if __name__ == "__main__":
    main()
