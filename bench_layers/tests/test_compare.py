"""--compare verdicts on synthetic result sets."""

import json

import pytest

from bench_layers.compare import compare, compare_files, verdict
from bench_layers.spec import END_TO_END

BOUNDS = {metric.name: 0.10 for metric in END_TO_END}


def entry(value, p25=None, p75=None):
    return {"value": value, "p25": value if p25 is None else p25, "p75": value if p75 is None else p75}


@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        (entry(100, 95, 105), entry(95, 90, 100), "higher", "ok"),  # 5 % worse, inside the bound
        (entry(100, 95, 105), entry(120, 115, 125), "higher", "ok"),  # better
        (entry(100, 98, 102), entry(80, 78, 82), "higher", "regressed"),
        (entry(100, 70, 130), entry(80, 60, 100), "higher", "unresolved"),
        (entry(1.0, 0.9, 1.1), entry(1.3, 1.25, 1.35), "lower", "regressed"),
        (entry(1.0, 0.9, 1.4), entry(1.3, 1.25, 1.35), "lower", "unresolved"),
        (entry(1.0), entry(0.5), "lower", "ok"),
    ],
)
def test_verdict(a, b, better, expected):
    assert verdict(a, b, better, 0.10)[1] == expected


def test_verdict_reports_signed_share_of_a():
    worse_by, _ = verdict(entry(200), entry(150), "higher", 0.10)
    assert worse_by == pytest.approx(0.25)
    worse_by, _ = verdict(entry(200), entry(250), "higher", 0.10)
    assert worse_by == pytest.approx(-0.25)


def test_absolute_bound():
    assert verdict({"value": 0.90}, {"value": 0.897}, "higher", 0.005, absolute=True)[1] == "ok"
    assert verdict({"value": 0.90}, {"value": 0.88}, "higher", 0.005, absolute=True)[1] == "regressed"
    assert verdict({"value": 0.0}, {"value": 0.0}, "lower", 0.0, absolute=True)[1] == "ok"


def result_set(seed, rounds_per_s, sim_delay_s=417.0, failed_share=0.0, accuracy=0.43):
    metrics = {metric.name: entry(1.0) for metric in END_TO_END}
    metrics["rounds_per_s"] = rounds_per_s
    metrics["sim_delay_s"] = entry(sim_delay_s)
    workload = {"metrics": metrics, "failed_share": failed_share, "final_accuracy": accuracy}
    schedule = dict(workload, final_accuracy=None)
    return {"seed": seed, "workloads": {"mlp_q100": workload, "sched_q100k": schedule}}


def rows(a, b):
    return {(row.metric, row.workload): row for row in compare(a, b, BOUNDS)}


def test_compare_has_one_row_per_metric_and_workload():
    table = rows(result_set(7, entry(100, 95, 105)), result_set(7, entry(99, 94, 104)))
    assert len(table) == 2 * (len(END_TO_END) + 2) - 1  # no accuracy on sched_q100k
    assert {row.verdict for row in table.values()} == {"ok"}


def test_simulated_metrics_are_exact_between_sets_of_one_seed():
    a = result_set(7, entry(100, 95, 105))
    drifted = result_set(7, entry(100, 95, 105), sim_delay_s=417.0 * (1 + 1e-6))
    assert rows(a, drifted)[("sim_delay_s", "mlp_q100")].verdict == "regressed"
    other_seed = result_set(11, entry(100, 95, 105), sim_delay_s=417.0 * (1 + 1e-6))
    assert rows(a, other_seed)[("sim_delay_s", "mlp_q100")].verdict == "ok"


def test_any_new_failure_or_accuracy_drop_regresses():
    a = result_set(7, entry(100, 95, 105))
    assert rows(a, result_set(7, entry(100, 95, 105), failed_share=0.01))[
        ("failed_share", "mlp_q100")
    ].verdict == "regressed"
    assert rows(a, result_set(7, entry(100, 95, 105), accuracy=0.40))[
        ("final_accuracy", "mlp_q100")
    ].verdict == "regressed"


def test_compare_files_exit_code(tmp_path, capsys):
    good, bad = tmp_path / "a.json", tmp_path / "b.json"
    good.write_text(json.dumps(result_set(7, entry(100, 98, 102))))
    bad.write_text(json.dumps(result_set(7, entry(60, 58, 62))))
    assert compare_files(str(good), str(good)) == 0
    assert compare_files(str(good), str(bad)) == 1
    assert compare_files(str(bad), str(good)) == 0
    assert "regressed" in capsys.readouterr().out
