#!/usr/bin/env python
"""Failure injection: battery-constrained devices shutting down mid-training.

The paper motivates energy optimization with the observation that user
energy "is quickly exhausted or even device shutdown occurs during FL
training" (Section I). This example gives every device a finite
battery, enables battery enforcement in the trainer, and compares how
long the fleet survives with and without Algorithm 3's DVFS — the
energy saved translates directly into extra training rounds before
devices start dropping out.

Usage::

    python examples/battery_shutdown.py
"""

from repro.devices.battery import Battery
from repro.experiments import ExperimentSettings, build_environment, build_trainer


def run_with_batteries(settings, environment, capacity_joules, dvfs):
    # Fresh batteries each run.
    for device in environment.devices:
        device.battery = Battery(capacity_joules)
    trainer = build_trainer(
        "helcfl" if dvfs else "helcfl-nodvfs",
        settings,
        environment,
        config_overrides={"enforce_battery": True},
    )
    return trainer.run()


def main() -> None:
    # Half the population per round: heavy channel queueing gives
    # Algorithm 3 real slack to reclaim, which is what stretches the
    # batteries.
    settings = ExperimentSettings.quick(seed=5, rounds=80, fraction=0.5)
    environment = build_environment(settings, iid=True)

    # Budget sized so max-frequency operation exhausts batteries
    # mid-run: roughly a dozen max-frequency participations per device.
    sample_device = environment.devices[0]
    per_round = sample_device.compute_energy() + sample_device.upload_energy(
        settings.payload_bits, settings.bandwidth_hz
    )
    capacity = 12.0 * per_round

    for dvfs in (False, True):
        history = run_with_batteries(settings, environment, capacity, dvfs)
        drops = sum(len(r.dropped_ids) for r in history.records)
        first_drop = next(
            (r.round_index for r in history.records if r.dropped_ids), None
        )
        label = "with DVFS   " if dvfs else "max frequency"
        print(
            f"{label}: best acc={100 * history.best_accuracy:6.2f}%  "
            f"dropped updates={drops:3d}  "
            f"first shutdown round={first_drop}  "
            f"energy={history.total_energy:8.3f}J"
        )

    print(
        "\nDVFS stretches the same batteries further: fewer updates are "
        "dropped to shutdowns, so more data keeps reaching the server "
        "and accuracy holds up longer."
    )


if __name__ == "__main__":
    main()
