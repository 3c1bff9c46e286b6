"""Median / quartile helper and the per-call timer."""

import statistics

import pytest

from bench_layers.stats import quantile, summary, time_calls


def test_quantile_matches_the_inclusive_statistics_method():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0]
    expected = statistics.quantiles(values, n=4, method="inclusive")
    assert quantile(values, 0.25) == pytest.approx(expected[0])
    assert quantile(values, 0.5) == pytest.approx(statistics.median(values))
    assert quantile(values, 0.75) == pytest.approx(expected[2])


def test_quantile_edges():
    assert quantile([4.0], 0.5) == 4.0
    assert quantile([1.0, 2.0], 0.0) == 1.0
    assert quantile([1.0, 2.0], 1.0) == 2.0
    with pytest.raises(ValueError):
        quantile([], 0.5)
    with pytest.raises(ValueError):
        quantile([1.0], 1.5)


def test_summary_reports_median_quartiles_and_count():
    assert summary([1.0, 2.0, 3.0, 4.0, 5.0]) == {
        "value": 3.0,
        "p25": 2.0,
        "p75": 4.0,
        "n": 5,
    }


def test_time_calls_respects_minimum_maximum_and_before_hook():
    calls, prepared = [], []
    samples = time_calls(
        lambda: calls.append(1),
        budget_s=0.0,
        min_calls=4,
        before=lambda: prepared.append(1),
    )
    assert len(samples) == 4
    assert len(calls) == 5  # one untimed warm-up call
    assert len(prepared) == len(calls)
    assert all(sample >= 0.0 for sample in samples)
    assert len(time_calls(lambda: None, budget_s=60.0, max_calls=7)) == 7
    cold = []
    assert len(time_calls(lambda: cold.append(1), 0.0, min_calls=1, warm=False)) == 1
    assert len(cold) == 1
