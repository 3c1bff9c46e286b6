"""BENCHMARK.json and the code name the same things, within the contract's limits."""

import re

from bench_layers.spec import END_TO_END, NAME_RE, PER_LAYER, load_benchmark_json
from bench_layers.workloads import WORKLOADS

CONTRACT = load_benchmark_json()
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_name_regex():
    for good in ("mlp_q100", "fl.execution.vs_serial.process_shm.n1000", "a-b", "9x"):
        assert NAME_RE.fullmatch(good)
    for bad in ("", "_x", ".x", "a b", "a/b", "x" * 65, "process+shm"):
        assert not NAME_RE.fullmatch(bad)


def test_contract_has_exactly_the_expected_keys():
    assert set(CONTRACT) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    assert CONTRACT["paths"] == ["bench_layers"]
    assert isinstance(CONTRACT["run_seconds"], int) and 1 <= CONTRACT["run_seconds"] <= 60


def test_workloads_match_the_code():
    assert [(w["name"], w["why"]) for w in CONTRACT["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS
    ]
    assert 2 <= len(WORKLOADS) <= 8
    for workload in WORKLOADS:
        assert NAME_RE.fullmatch(workload.name)
        assert len(workload.why) <= 200 and "\n" not in workload.why


def test_end_to_end_metrics_match_the_code():
    assert [(m["name"], m["unit"], m["better"]) for m in CONTRACT["end_to_end"]] == [
        tuple(m) for m in END_TO_END
    ]
    for entry in CONTRACT["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


def test_per_layer_metrics_match_the_code():
    assert [(m["name"], m["unit"], m["better"]) for m in CONTRACT["per_layer"]] == [
        tuple(m) for m in PER_LAYER
    ]
    assert len(PER_LAYER) <= 128
    for entry in CONTRACT["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}


def test_every_name_is_well_formed_and_used_once():
    names = [w.name for w in WORKLOADS] + [m.name for m in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    for metric in END_TO_END + PER_LAYER:
        assert NAME_RE.fullmatch(metric.name), metric.name
        assert UNIT_RE.fullmatch(metric.unit), metric.unit
        assert metric.better in ("higher", "lower")
