"""Extension — HELCFL robustness under per-round channel fading.

The paper treats channel gains as static (Eq. 6). Real uplinks fade;
HELCFL's utility (Eq. 20) and Algorithm 3's schedule are computed from
the gains the FLCC polled *this* round, so fading makes its plans
slightly stale but never invalid. This bench runs HELCFL with static
channels versus per-round Rayleigh fading (same mean gain) and checks:

* training still converges to a comparable ceiling;
* round delays become variable (fading is actually happening);
* the DVFS guarantee (energy saving at zero delay cost versus the
  matched max-frequency run) survives fading.
"""

from repro.experiments.runner import build_environment, build_trainer
from repro.experiments.settings import ExperimentSettings
from repro.network.channel import RayleighFadingChannel


def run_fading_study():
    settings = ExperimentSettings.quick(seed=7, rounds=60, fraction=0.3)
    environment = build_environment(settings, iid=True)

    def run(models, dvfs):
        name = "helcfl" if dvfs else "helcfl-nodvfs"
        trainer = build_trainer(name, settings, environment)
        trainer.channel_models = dict(models or {})
        return trainer.run()

    static = run(None, dvfs=True)

    def fading_models():
        return {
            d.device_id: RayleighFadingChannel(
                mean_gain=1.0, seed=1000 + d.device_id
            )
            for d in environment.devices
        }

    faded = run(fading_models(), dvfs=True)
    faded_maxfreq = run(fading_models(), dvfs=False)
    return static, faded, faded_maxfreq


def test_fading_extension(benchmark):
    static, faded, faded_maxfreq = benchmark.pedantic(
        run_fading_study, rounds=1, iterations=1
    )
    # Comparable learning under fading (selection/training unaffected).
    assert faded.best_accuracy > static.best_accuracy - 0.1
    # Fading actually varies the rounds.
    static_delays = {round(r.round_delay, 9) for r in static.records}
    faded_delays = {round(r.round_delay, 9) for r in faded.records}
    assert len(faded_delays) > len(static_delays)
    # The DVFS saving survives fading (identical fading seeds, so the
    # two faded runs see the same gains round by round).
    assert faded.total_energy < faded_maxfreq.total_energy
    assert faded.total_time <= faded_maxfreq.total_time * 1.01

    print()
    print(
        f"  static:        best={100 * static.best_accuracy:.2f}% "
        f"energy={static.total_energy:.2f}J time={static.total_time / 60:.2f}min"
    )
    print(
        f"  rayleigh:      best={100 * faded.best_accuracy:.2f}% "
        f"energy={faded.total_energy:.2f}J time={faded.total_time / 60:.2f}min"
    )
    saving = 1.0 - faded.total_energy / faded_maxfreq.total_energy
    print(f"  DVFS saving under fading: {100 * saving:.1f}%")
