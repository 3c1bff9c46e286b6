"""Names, units and directions of every workload and metric.

``BENCHMARK.json`` at the repository root carries the same names (plus
the regression bounds); ``tests/test_spec.py`` keeps the two in step.
"""

from __future__ import annotations

import json
import os
import re
from typing import Dict, NamedTuple, Tuple

__all__ = [
    "NAME_RE",
    "Metric",
    "END_TO_END",
    "PER_LAYER",
    "REPORT_ONLY",
    "REPO_ROOT",
    "load_benchmark_json",
]

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "higher" or "lower"


# Measured with the benchmark's own tracing off; bounds live in
# BENCHMARK.json. Every workload emits every one of these.
END_TO_END: Tuple[Metric, ...] = (
    Metric("rounds_per_s", "1/s", "higher"),
    Metric("clients_per_s", "1/s", "higher"),
    Metric("setup_s", "s", "lower"),
    Metric("peak_rss_mb", "MiB", "lower"),
    Metric("sim_delay_s", "s", "lower"),
    Metric("sim_energy_j", "J", "lower"),
    Metric("dvfs_saving_frac", "fraction", "higher"),
)

# Printed by the suite and judged by --compare, but not part of the
# driver contract: failed_share is 0 on a healthy run (the contract
# carries it as failed/attempted instead) and final_accuracy does not
# exist on sched_q100k, while the contract wants every workload to emit
# every end-to-end metric and none of them to be 0.
REPORT_ONLY: Tuple[Metric, ...] = (
    Metric("failed_share", "fraction", "lower"),
    Metric("final_accuracy", "fraction", "higher"),
)

_BACKENDS = ("thread", "process", "process_shm")
_FANOUTS = (10, 100, 1000)

# From the traced pass. A workload that does not exercise a layer
# reports 0 for that layer's metrics.
PER_LAYER: Tuple[Metric, ...] = (
    Metric("core.selection.ms_per_round", "ms", "lower"),
    Metric("core.frequency.ms_per_round", "ms", "lower"),
    Metric("devices.population.take_ms_per_round", "ms", "lower"),
    Metric("devices.population.from_devices_ms", "ms", "lower"),
    Metric("devices.population.from_spec_ms", "ms", "lower"),
    Metric("network.tdma.ms_per_round", "ms", "lower"),
    Metric("network.tdma.us_per_client", "us", "lower"),
    Metric("energy.accounting.record_ms_per_round", "ms", "lower"),
    Metric("fl.execution.ms_per_round", "ms", "lower"),
    Metric("fl.execution.us_per_client", "us", "lower"),
    Metric("fl.execution.clients", "count", "higher"),
    Metric("fl.execution.failed_clients", "count", "lower"),
    Metric("fl.execution.dispatch_us_per_client", "us", "lower"),
    Metric("fl.execution.bind_ms", "ms", "lower"),
    *(
        Metric(f"fl.execution.vs_serial.{backend}.n{fanout}", "ratio", "lower")
        for backend in _BACKENDS
        for fanout in _FANOUTS
    ),
    Metric("fl.shm.bytes_per_round", "count", "lower"),
    Metric("fl.client.train_us", "us", "lower"),
    Metric("nn.forward_us", "us", "lower"),
    Metric("nn.backward_us", "us", "lower"),
    Metric("nn.loss_us", "us", "lower"),
    Metric("nn.sgd_step_us", "us", "lower"),
    Metric("nn.predict_ms", "ms", "lower"),
    Metric("nn.get_flat_params_us", "us", "lower"),
    Metric("nn.set_flat_params_us", "us", "lower"),
    Metric("nn.param_count", "count", "lower"),
    Metric("nn.conv_utils.im2col_us", "us", "lower"),
    Metric("nn.conv_utils.col2im_us", "us", "lower"),
    Metric("nn.pooling.forward_us", "us", "lower"),
    Metric("fl.aggregation.fedavg_ms", "ms", "lower"),
    Metric("fl.aggregation.bytes_reduced", "count", "lower"),
    Metric("fl.server.aggregate_ms_per_round", "ms", "lower"),
    Metric("fl.server.evaluate_ms_per_round", "ms", "lower"),
    Metric("fl.server.evaluations", "count", "lower"),
    Metric("fl.checkpoint.save_ms", "ms", "lower"),
    Metric("fl.checkpoint.load_ms", "ms", "lower"),
    Metric("fl.checkpoint.bytes", "count", "lower"),
    Metric("obs.sinks.jsonl_events_per_s", "1/s", "higher"),
    Metric("obs.trace_lines_per_round", "count", "lower"),
    Metric("obs.trace_bytes_per_round", "B", "lower"),
    Metric("obs.durable_overhead_frac", "fraction", "lower"),
    Metric("fl.trainer.self_ms_per_round", "ms", "lower"),
    Metric("fl.trainer.rounds", "count", "higher"),
    Metric("fl.history.final_accuracy", "fraction", "higher"),
    Metric("data.synthetic.build_task_ms", "ms", "lower"),
    Metric("data.partition.ms", "ms", "lower"),
    Metric("devices.fleet.make_fleet_ms", "ms", "lower"),
    Metric("experiments.runner.build_trainer_ms", "ms", "lower"),
    Metric("bench_layers.trace_overhead_frac", "fraction", "lower"),
)


def load_benchmark_json() -> Dict:
    """The contract file at the repository root."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)
