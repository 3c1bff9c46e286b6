"""Table I — training delay to obtain desired accuracy.

Regenerates both halves of the paper's Table I: for three accuracy
targets per regime, the simulated training delay (minutes) of each
scheme, with "x" for targets a scheme never reaches. Asserts the
paper's qualitative shape:

* HELCFL reaches every target, faster than Classic FL and FEDL;
* FedCS misses the higher targets (the paper's "x" entries);
* SL misses every target.
"""

import pytest

from benchmarks.conftest import run_sweep
from repro.experiments.reporting import format_speedups, format_table1
from repro.experiments.table1 import derive_table1


def _check_shape(table):
    top_target = table.targets[-1]
    low_target = table.targets[0]
    delays = table.delays
    # HELCFL reaches all targets.
    assert all(delays["helcfl"][t] is not None for t in table.targets)
    # HELCFL is faster than Classic FL and FEDL wherever both reached.
    for versus in ("classic", "fedl"):
        for target in table.targets:
            other = delays[versus][target]
            if other is not None:
                speedup = table.speedup(target, versus=versus)
                assert speedup is not None and speedup > 100.0
    # FedCS misses the highest target; SL misses everything.
    assert delays["fedcs"][top_target] is None
    assert all(delays["sl"][t] is None for t in table.targets)
    del low_target


@pytest.mark.parametrize("iid", [True, False], ids=["iid", "noniid"])
def test_table1_delay_to_accuracy(benchmark, full_settings, sweep_cache, iid):
    sweep = run_sweep(full_settings, iid, sweep_cache)
    table = benchmark.pedantic(
        lambda: derive_table1(sweep), rounds=1, iterations=1
    )
    _check_shape(table)
    print()
    print(format_table1(table))
    print(format_speedups(table))
