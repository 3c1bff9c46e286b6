"""Fig. 3 — energy-cost reduction via the DVFS frequency determination.

Regenerates both panels of the paper's Fig. 3: training energy spent to
reach each accuracy target with Algorithm 3 versus max-frequency
operation. The max-frequency side is the HELCFL run replayed at
``f_max``; per regime, the bench also trains the ``helcfl-nodvfs`` twin
and asserts the replay equals it record for record (the 300-round
check of the quick-profile test in ``tests/experiments/test_figures.py``).
Asserts the paper's qualitative shape:

* DVFS reduces energy at every reachable target (paper: up to 58.25%);
* accuracy trajectories are bit-identical (frequency scaling never
  touches the learning math);
* round delays never increase.
"""

import pytest

from benchmarks.conftest import run_sweep
from repro.experiments.fig3 import derive_fig3
from repro.experiments.runner import run_strategy
from repro.experiments.reporting import format_fig3_table


def _check_shape(result):
    # Positive saving at every reached target.
    reached = [e for e in result.entries if e.reduction_fraction is not None]
    assert reached, "no accuracy target was reached"
    for entry in reached:
        assert entry.reduction_fraction > 0.05
    # Whole-run saving positive too.
    assert result.total_energy_reduction > 0.05
    # Identical learning trajectories.
    dvfs_acc = [r.test_accuracy for r in result.dvfs_history.records]
    max_acc = [r.test_accuracy for r in result.max_frequency_history.records]
    assert dvfs_acc == max_acc
    # Never slower.
    assert (
        result.dvfs_history.total_time
        <= result.max_frequency_history.total_time + 1e-6
    )


@pytest.mark.parametrize("iid", [True, False], ids=["iid", "noniid"])
def test_fig3_dvfs_energy_reduction(benchmark, full_settings, sweep_cache, iid):
    sweep = run_sweep(full_settings, iid, sweep_cache)
    result = benchmark.pedantic(
        lambda: derive_fig3(sweep), rounds=1, iterations=1
    )
    _check_shape(result)
    twin = run_strategy(
        "helcfl-nodvfs", full_settings, iid, environment=sweep.environment
    )
    assert result.max_frequency_history == twin
    print()
    print(format_fig3_table(result))
