"""Extension — multi-seed statistical validation of the Fig. 2 claim.

A single seed's HELCFL-vs-Classic-FL accuracy gap can land inside
evaluation noise. This bench repeats the comparison as one Fig. 2 sweep
per seed (each re-deriving data, partition, fleet, and model init) and
checks the claims that should hold statistically:

* HELCFL's *time*-to-accuracy beats Classic FL on every seed (the
  systems-level claim the paper's Table I quantifies);
* HELCFL's mean accuracy ceiling is at most 5 pp below Classic FL's;
* HELCFL's DVFS saves energy on every seed, against its own run
  replayed at ``f_max``.
"""

from dataclasses import replace

from repro.analysis.stats import mean_std, paired_gap
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import max_frequency_history
from repro.experiments.settings import ExperimentSettings

SEEDS = (0, 1, 2, 3)


def run_sweep():
    settings = ExperimentSettings.quick(seed=0, rounds=80)
    return tuple(
        run_fig2(replace(settings, seed=seed), iid=True, strategies=("helcfl", "classic"))
        for seed in SEEDS
    )


def test_multiseed_validation(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    helcfl = [result.histories["helcfl"] for result in results]
    classic = [result.histories["classic"] for result in results]

    # Time-to-accuracy: evaluate at 70% of each seed's HELCFL ceiling.
    time_wins = 0
    comparisons = 0
    for h, c in zip(helcfl, classic):
        target = 0.7 * h.best_accuracy
        t_h = h.time_to_accuracy(target)
        t_c = c.time_to_accuracy(target)
        if t_h is not None and t_c is not None:
            comparisons += 1
            if t_h < t_c:
                time_wins += 1
    assert comparisons >= len(SEEDS) - 1
    assert time_wins / comparisons >= 0.75

    # Accuracy ceiling: the mean gap stays above -5 pp.
    best = {
        "helcfl": [h.best_accuracy for h in helcfl],
        "classic": [c.best_accuracy for c in classic],
    }
    gap_mean, gap_std, _ = paired_gap(best["helcfl"], best["classic"])
    assert gap_mean > -0.05

    # DVFS saves energy on every seed (a deterministic guarantee).
    at_fmax = [
        max_frequency_history(result.histories["helcfl"], result.environment).total_energy
        for result in results
    ]
    with_dvfs = [h.total_energy for h in helcfl]
    energy_gap, _, wins = paired_gap(at_fmax, with_dvfs)
    assert wins == 1.0
    assert energy_gap > 0
    dvfs_saves = sum(f > d for f, d in zip(at_fmax, with_dvfs))

    print()
    for name in ("helcfl", "classic"):
        mean, std = mean_std(best[name])
        print(f"  {name:8s} best accuracy: {100 * mean:.2f}% +/- {100 * std:.2f}%")
    print(
        f"  HELCFL time-to-accuracy wins: {time_wins}/{comparisons} seeds; "
        f"accuracy gap {100 * gap_mean:+.2f} +/- {100 * gap_std:.2f} pp; "
        f"DVFS saves energy on {dvfs_saves}/{len(SEEDS)} seeds"
    )
    classic_higher = sum(c > h for h, c in zip(best["helcfl"], best["classic"]))
    print(f"  Classic FL best accuracy above HELCFL's on {classic_higher}/{len(SEEDS)} seeds")
