"""Runs one workload in this process: the traced, per-layer pass.

``trace`` is what ``--workload NAME --trace 1`` executes. Per-layer
numbers come from three sources, named after the ISSUE's vocabulary:

* **stage** — spans the benchmark records around the trainer's stages
  while the real ``FederatedTrainer.run`` loop (or the schedule loop)
  executes;
* **replay** — the per-round inputs captured during a traced repeat,
  re-issued directly to a function the trainer calls internally;
* **kernel** — a public function called in a loop at the workload's own
  shapes.

End-to-end numbers are never taken from this pass.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import time
from typing import Callable, Dict, List

import numpy as np

from repro.devices.fleet import make_fleet
from repro.devices.population import DevicePopulation
from repro.energy.accounting import EnergyLedger
from repro.data.dataset import ArrayDataset
from repro.data.transforms import flatten_images
from repro.experiments.runner import build_trainer
from repro.fl.aggregation import fedavg_aggregate
from repro.fl.checkpoint import load_checkpoint, save_checkpoint
from repro.fl.client import LocalTrainer
from repro.fl.execution import create_backend
from repro.network.tdma import simulate_tdma_round
from repro.nn.conv import Conv2D
from repro.nn.conv_utils import col2im, im2col
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.pooling import MaxPool2D
from repro.obs import RunObserver
from repro.obs.sinks import CollectingSink, JsonlTraceSink
from repro.rng import derive_seed

from bench_layers import env as environment
from bench_layers.harness import Plan, leak_checks, scratch_dir
from bench_layers.spans import SpanRecorder, instrument, self_time_by_name
from bench_layers.spec import PER_LAYER, REPO_ROOT
from bench_layers.stats import quantile, time_calls
from bench_layers.workloads import Capture, make_case

__all__ = ["trace", "SPANS_DIR"]

SPANS_DIR = os.path.join(REPO_ROOT, "artifacts", "bench_layers")

ROOT_SPAN = "bench_layers.run"

# fl.execution.vs_serial.<key>.n<fanout>: registry name of each backend.
POOL_BACKENDS = {"thread": "thread", "process": "process", "process_shm": "process+shm"}
FANOUTS = (10, 100, 1000)


def _median(values: List[float]) -> float:
    return quantile(values, 0.5)


def _median_ms(samples: List[float]) -> float:
    return _median(samples) * 1e3


def _median_us(samples: List[float]) -> float:
    return _median(samples) * 1e6


def _timed(plan: Plan, call: Callable, before: Callable = None) -> List[float]:
    """Per-call seconds of a kernel or replay, within the plan's budget."""
    return time_calls(
        call,
        plan.kernel_seconds,
        min_calls=plan.kernel_calls,
        before=before,
        warm=plan.kernel_warm,
    )


# ----------------------------------------------------------------------
# Stage metrics: read off the spans of the traced repeats
# ----------------------------------------------------------------------
class Repeats:
    """Spans of the traced repeats of one workload.

    Per repeat it keeps the spans in JSON form plus, per span name, the
    total duration, the total self time and the count — worked out once,
    when the repeat is added.
    """

    def __init__(self, rounds: int) -> None:
        self.rounds = rounds
        self.spans: List[Dict] = []
        self.durations: List[Dict[str, float]] = []
        self.self_times: List[Dict[str, float]] = []
        self.counts: Dict[str, int] = {}

    def add(self, recorder: SpanRecorder) -> None:
        spans = recorder.to_dicts()
        durations: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for span in spans:
            name = span["name"]
            durations[name] = durations.get(name, 0.0) + span["end"] - span["start"]
            counts[name] = counts.get(name, 0) + 1
        self.spans.extend(spans)
        self.durations.append(durations)
        self.self_times.append(self_time_by_name(spans))
        self.counts = counts  # the same in every repeat

    def count(self, name: str) -> int:
        """Spans called ``name`` in one repeat."""
        return self.counts.get(name, 0)

    def ms_per_run(self, name: str) -> float:
        """Median over repeats of the time spent in ``name`` spans."""
        return _median_ms([repeat.get(name, 0.0) for repeat in self.durations])

    def ms_per_round(self, name: str) -> float:
        return self.ms_per_run(name) / self.rounds

    def self_ms_per_round(self, name: str) -> float:
        return (
            _median_ms([repeat.get(name, 0.0) for repeat in self.self_times])
            / self.rounds
        )

    def self_time_share(self) -> Dict[str, float]:
        """Each span name's share of the root span, over all repeats."""
        totals: Dict[str, float] = {}
        for repeat in self.self_times:
            for name, own in repeat.items():
                totals[name] = totals.get(name, 0.0) + own
        whole = sum(totals.values())
        return {name: own / whole for name, own in sorted(totals.items())}


class _Probe:
    def call(self) -> None:
        return None


def _span_cost_s(clock: environment.ReferenceClock, calls: int = 20_000) -> float:
    """Reference seconds one instrumented call adds: wrapper plus span."""
    probe = _Probe()
    instrument(probe, "call", SpanRecorder("cost"), "probe")

    def loop():
        for _ in range(calls):
            probe.call()

    return clock.time(loop)[2] / calls


def _traced_repeats(
    case, state, plan: Plan, run_traced: Callable, alongside: Callable = None
):
    """Alternate untraced and traced repeats of ``case``.

    ``run_traced(recorder)`` performs ``case.run`` with spans recorded;
    ``alongside``, when given, is timed once per iteration too (the
    durable workload runs its plain twin here). All times are on the
    reference-speed scale.

    Returns ``(repeats, timings, failures, outcome)`` with ``timings``
    holding the ``untraced``, ``traced`` and ``alongside`` seconds per
    iteration and ``span_cost``; a traced repeat whose output differs
    from the untraced one is a failed operation (recording spans must
    not change results).
    """
    repeats = Repeats(case.workload.rounds)
    clock = environment.ReferenceClock()
    timings = {"untraced": [], "traced": [], "alongside": []}
    failures: List[str] = []
    clock.time(lambda: case.run(state))
    for index in range(plan.traced_repeats):
        if alongside is not None:
            timings["alongside"].append(clock.time(alongside)[2])
        recorder = SpanRecorder(f"{case.workload.name}#{index}")

        def spanned():
            root = recorder.open(ROOT_SPAN)
            try:
                return run_traced(recorder)
            finally:
                recorder.close(root)

        # Which of the pair goes first alternates, so that whatever the
        # first of two back-to-back runs leaves behind (warm caches,
        # garbage) does not always favour the same side.
        for traced_turn in (index % 2 == 1, index % 2 == 0):
            run = spanned if traced_turn else (lambda: case.run(state))
            produced, _, elapsed = clock.time(run)
            timings["traced" if traced_turn else "untraced"].append(elapsed)
            if traced_turn:
                outcome = case.outcome(produced[1])
            else:
                reference = case.outcome(produced[1])
            del produced  # a run's output must not sit in memory during the next
        repeats.add(recorder)
        if outcome.digest != reference.digest:
            failures.append(
                f"traced repeat {index} digest {outcome.digest[:12]} differs "
                f"from untraced {reference.digest[:12]}"
            )
    timings["span_cost"] = _span_cost_s(clock)
    return repeats, timings, failures, outcome


def _trace_overhead(repeats: Repeats, timings: Dict) -> tuple:
    """The cost of the benchmark's own spans, as a share of a repeat.

    Returns ``(computed, measured)``. The metric is the computed one —
    spans in a repeat x the measured cost of one instrumented call / the
    untraced repeat — because the measured difference between a traced
    and an untraced repeat (kept for the record) is a few parts in
    10 000 under +-5 % of pair-to-pair noise.
    """
    untraced = _median(timings["untraced"])
    spans = sum(repeats.counts.values())
    return (
        spans * timings["span_cost"] / untraced,
        _median(timings["traced"]) / untraced - 1.0,
    )


# ----------------------------------------------------------------------
# Training workloads
# ----------------------------------------------------------------------
def _replay_metrics(capture: Capture, population, plan: Plan) -> Dict[str, float]:
    """Re-issue captured per-round inputs to take / TDMA / ledger."""
    positions = itertools.cycle(capture.positions[:8])
    take = _timed(plan, lambda: population.take(next(positions)))

    assignments = itertools.cycle(capture.assignments[:8])

    def tdma():
        selected, selected_population, frequencies = next(assignments)
        return simulate_tdma_round(
            selected,
            capture.payload_bits,
            capture.bandwidth_hz,
            frequencies,
            population=selected_population,
        )

    tdma_samples = _timed(plan, tdma)
    timelines = itertools.cycle([tdma() for _ in capture.assignments[:8]])
    ledger = EnergyLedger()
    record = _timed(plan, lambda: ledger.record_round(next(timelines)))
    clients = len(capture.assignments[0][0])
    return {
        "devices.population.take_ms_per_round": _median_ms(take),
        "network.tdma.ms_per_round": _median_ms(tdma_samples),
        "network.tdma.us_per_client": _median_us(tdma_samples) / clients,
        "energy.accounting.record_ms_per_round": _median_ms(record),
    }


def _nn_kernels(settings, env, plan: Plan) -> Dict[str, float]:
    """``repro.nn`` at the workload's train-batch and test-set shapes."""
    model = settings.build_model(flattened=settings.uses_flat_inputs)
    loss = SoftmaxCrossEntropy()
    shard = env.partitions[0]
    inputs, labels = shard.inputs, shard.labels
    flat = model.get_flat_params().copy()

    def forward():
        return model.forward(inputs, training=True)

    outputs = forward()
    _, grad = loss.loss_and_grad(outputs, labels)
    client = LocalTrainer(
        learning_rate=settings.learning_rate, local_steps=settings.local_steps
    )
    metrics = {
        "nn.forward_us": _median_us(_timed(plan, forward)),
        "nn.loss_us": _median_us(
            _timed(plan, lambda: loss.loss_and_grad(outputs, labels))
        ),
        "nn.backward_us": _median_us(
            _timed(plan, lambda: model.backward(grad), before=forward)
        ),
        # A zero rate costs the same multiply-subtract and cannot diverge.
        "nn.sgd_step_us": _median_us(_timed(plan, lambda: model.sgd_step(0.0))),
        "nn.predict_ms": _median_ms(
            _timed(plan, lambda: model.predict(env.test.inputs, batch_size=512))
        ),
        "nn.get_flat_params_us": _median_us(_timed(plan, model.get_flat_params)),
        "nn.set_flat_params_us": _median_us(
            _timed(plan, lambda: model.set_flat_params(flat))
        ),
        "nn.param_count": float(model.parameter_count),
        "fl.client.train_us": _median_us(
            _timed(
                plan,
                lambda: client.train(model, shard),
                before=lambda: model.set_flat_params(flat),
            )
        ),
    }

    # Conv-only kernels at the first conv / first pooling layer's shapes.
    activations = inputs
    for layer in model.layers:
        if isinstance(layer, Conv2D) and "nn.conv_utils.im2col_us" not in metrics:
            geometry = (layer.kernel_h, layer.kernel_w, layer.stride, layer.padding)
            images = activations
            cols, _, _ = im2col(images, *geometry)
            cols = cols.copy()  # im2col may hand out a reusable buffer
            metrics["nn.conv_utils.im2col_us"] = _median_us(
                _timed(plan, lambda: im2col(images, *geometry))
            )
            metrics["nn.conv_utils.col2im_us"] = _median_us(
                _timed(plan, lambda: col2im(cols, images.shape, *geometry))
            )
        if isinstance(layer, MaxPool2D):
            pool, pooled = layer, activations
            metrics["nn.pooling.forward_us"] = _median_us(
                _timed(plan, lambda: pool.forward(pooled))
            )
            break
        activations = layer.forward(activations, training=False)
    return metrics


def _setup_kernels(settings, env, iid: bool, plan: Plan) -> Dict[str, float]:
    """The pieces of ``build_environment``, timed one by one."""
    task = settings.build_task()
    train = task.train
    if settings.uses_flat_inputs:
        train = ArrayDataset(flatten_images(train.inputs), train.labels)
    fleet_seed = derive_seed(settings.seed, "fleet")
    sizes = [device.num_samples for device in env.devices]
    return {
        "data.synthetic.build_task_ms": _median_ms(_timed(plan, settings.build_task)),
        "data.partition.ms": _median_ms(
            _timed(plan, lambda: settings.build_partitions(train, iid=iid))
        ),
        "devices.fleet.make_fleet_ms": _median_ms(
            _timed(
                plan,
                lambda: make_fleet(env.partitions, settings.fleet_spec(), seed=fleet_seed),
            )
        ),
        "devices.population.from_devices_ms": _median_ms(
            _timed(plan, lambda: DevicePopulation.from_devices(env.devices))
        ),
        "devices.population.from_spec_ms": _median_ms(
            _timed(
                plan,
                lambda: DevicePopulation.from_spec(
                    settings.fleet_spec(), sizes, seed=fleet_seed
                ),
            )
        ),
    }


def _aggregation_kernel(flat: np.ndarray, clients: int, plan: Plan) -> Dict[str, float]:
    vectors = list(np.tile(flat, (clients, 1)))
    weights = [40.0] * clients
    return {
        "fl.aggregation.fedavg_ms": _median_ms(
            _timed(plan, lambda: fedavg_aggregate(vectors, weights))
        ),
        "fl.aggregation.bytes_reduced": float(clients * flat.size * 8),
    }


def _checkpoint_replay(checkpoint, path: str, plan: Plan) -> Dict[str, float]:
    save = _timed(plan, lambda: save_checkpoint(path, checkpoint))
    load = _timed(plan, lambda: load_checkpoint(path))
    return {
        "fl.checkpoint.save_ms": _median_ms(save),
        "fl.checkpoint.load_ms": _median_ms(load),
        "fl.checkpoint.bytes": float(os.path.getsize(path)),
    }


def _sink_kernel(case, env, path: str, plan: Plan) -> Dict[str, float]:
    """Collect one run's real event stream, then time the JSONL sink on it."""
    sink = CollectingSink()
    build_trainer(
        "helcfl", case.settings, env, observer=RunObserver(sink=sink)
    ).run()
    events = sink.events

    def write_all():
        target = JsonlTraceSink(path)
        try:
            for event in events:
                target.emit(event)
        finally:
            target.close()

    samples = _timed(plan, write_all)
    return {
        "obs.sinks.jsonl_events_per_s": len(events) / _median(samples),
        "obs.trace_lines_per_round": len(events) / case.workload.rounds,
        "obs.trace_bytes_per_round": os.path.getsize(path) / case.workload.rounds,
    }


def _vs_serial(settings, env, plan: Plan) -> Dict[str, float]:
    """One bound ``run_round`` over N clients, each backend ÷ serial."""
    model = settings.build_model(flattened=settings.uses_flat_inputs)
    spec = settings.trainer_config().local_update_spec()
    params = model.get_flat_params().copy()
    seconds: Dict[str, Dict[int, float]] = {}
    for key, name in dict(serial="serial", **POOL_BACKENDS).items():
        backend = create_backend(name, workers=2)
        try:
            backend.bind(model, spec, env.devices)
            seconds[key] = {
                fanout: _median(
                    _timed(
                        plan,
                        lambda: backend.run_round(
                            1, params, env.devices[:fanout], settings.learning_rate
                        ),
                    )
                )
                for fanout in FANOUTS
                if fanout <= len(env.devices)
            }
        finally:
            backend.close()
    return {
        f"fl.execution.vs_serial.{key}.n{fanout}": elapsed / seconds["serial"][fanout]
        for key in POOL_BACKENDS
        for fanout, elapsed in seconds[key].items()
    }


def _trace_training(case, env, plan: Plan, metrics: Dict[str, float]):
    workload = case.workload
    settings = case.settings
    clients = case.clients_per_round
    last = {}  # the latest traced repeat's trainer and capture, for replay

    def run_traced(recorder: SpanRecorder):
        last["capture"] = Capture()
        produced = case.run(env, recorder=recorder, capture=last["capture"])
        last["trainer"] = produced[0]
        return produced

    plain_twin = (lambda: case.run(env, plain=True)) if workload.durable else None
    repeats, timings, failures, outcome = _traced_repeats(
        case, env, plan, run_traced, alongside=plain_twin
    )
    capture, trainer = last["capture"], last["trainer"]
    overhead, difference = _trace_overhead(repeats, timings)

    metrics.update(
        {
            "core.selection.ms_per_round": repeats.ms_per_round("core.selection"),
            "core.frequency.ms_per_round": repeats.ms_per_round("core.frequency"),
            "fl.execution.ms_per_round": repeats.ms_per_round("fl.execution.run_round"),
            "fl.execution.us_per_client": repeats.ms_per_round("fl.execution.run_round")
            * 1e3
            / clients,
            "fl.execution.clients": float(capture.clients),
            "fl.execution.failed_clients": float(capture.failed_clients),
            "fl.execution.bind_ms": repeats.ms_per_run("fl.execution.bind"),
            "fl.server.aggregate_ms_per_round": repeats.ms_per_round("fl.server.aggregate"),
            "fl.server.evaluate_ms_per_round": repeats.ms_per_round("fl.server.evaluate"),
            "fl.server.evaluations": float(repeats.count("fl.server.evaluate")),
            "fl.trainer.self_ms_per_round": repeats.self_ms_per_round("fl.trainer.round"),
            "fl.trainer.rounds": float(repeats.count("fl.trainer.round")),
            "experiments.runner.build_trainer_ms": repeats.ms_per_run(
                "experiments.runner.build_trainer"
            ),
            "bench_layers.trace_overhead_frac": overhead,
        }
    )
    metrics.update(_replay_metrics(capture, trainer.population, plan))
    metrics.update(_nn_kernels(settings, env, plan))
    metrics["fl.execution.dispatch_us_per_client"] = (
        metrics["fl.execution.us_per_client"] - metrics["fl.client.train_us"]
    )
    metrics.update(_setup_kernels(settings, env, workload.iid, plan))
    metrics.update(
        _aggregation_kernel(trainer.server.model.get_flat_params(), clients, plan)
    )
    metrics.update(
        _checkpoint_replay(
            trainer.last_checkpoint, case.checkpoint_path + ".replay", plan
        )
    )
    metrics.update(_sink_kernel(case, env, case.trace_path + ".replay", plan))
    if workload.backend == "process+shm":
        metrics["fl.shm.bytes_per_round"] = float(
            (1 + clients) * metrics["nn.param_count"] * 8
        )
        metrics.update(_vs_serial(settings, env, plan))
    if workload.durable:
        # 1 - rounds_per_s(durable) / rounds_per_s(plain), same rounds each.
        metrics["obs.durable_overhead_frac"] = 1.0 - _median(
            timings["alongside"]
        ) / _median(timings["untraced"])
    return repeats, failures, difference, outcome.final_accuracy


# ----------------------------------------------------------------------
# The schedule loop
# ----------------------------------------------------------------------
def _trace_schedule(case, population, plan: Plan, metrics: Dict[str, float]):
    clients = case.clients_per_round

    def run_traced(recorder: SpanRecorder):
        return case.run(population, recorder=recorder)

    repeats, timings, failures, _ = _traced_repeats(case, population, plan, run_traced)
    overhead, difference = _trace_overhead(repeats, timings)
    tdma = repeats.ms_per_round("network.tdma")
    metrics.update(
        {
            "core.selection.ms_per_round": repeats.ms_per_round("core.selection"),
            "core.frequency.ms_per_round": repeats.ms_per_round("core.frequency"),
            "devices.population.take_ms_per_round": repeats.ms_per_round(
                "devices.population.take"
            ),
            "network.tdma.ms_per_round": tdma,
            "network.tdma.us_per_client": tdma * 1e3 / clients,
            "energy.accounting.record_ms_per_round": repeats.ms_per_round(
                "energy.accounting"
            ),
            # The loop's own glue (the id -> frequency dict) is what a
            # trainer would spend outside its stages.
            "fl.trainer.self_ms_per_round": repeats.self_ms_per_round(ROOT_SPAN),
            "fl.trainer.rounds": float(repeats.count("core.selection")),
            "devices.population.from_spec_ms": _median_ms(
                _timed(plan, case.build)
            ),
            "bench_layers.trace_overhead_frac": overhead,
        }
    )
    return repeats, failures, difference, None


# ----------------------------------------------------------------------
def trace(workload: str, seed: int, plan: Plan) -> Dict:
    """The traced pass of one workload."""
    scratch = scratch_dir(workload)
    metrics = {metric.name: 0.0 for metric in PER_LAYER}
    try:
        case = make_case(workload, seed, scratch)
        state = case.build()
        tracer = _trace_training if case.workload.trains else _trace_schedule
        repeats, failures, difference, accuracy = tracer(case, state, plan, metrics)
        if accuracy is not None:
            metrics["fl.history.final_accuracy"] = accuracy
        attempted = 2 * plan.traced_repeats
        for check in leak_checks():
            attempted += 1
            if not check.ok:
                failures.append(f"{check.name}: {check.detail}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    share = repeats.self_time_share()
    os.makedirs(SPANS_DIR, exist_ok=True)
    spans_path = os.path.join(SPANS_DIR, f"{workload}.spans.json")
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": workload,
                "seed": seed,
                "self_time_share": share,
                "spans": repeats.spans,
            },
            handle,
        )
    return {
        "workload": workload,
        "seed": seed,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": {
            metric.name: {"value": metrics[metric.name], "unit": metric.unit}
            for metric in PER_LAYER
        },
        "self_time_share": share,
        "traced_minus_untraced_frac": difference,
        "spans_path": os.path.relpath(spans_path, REPO_ROOT),
        "env": environment.fingerprint(),
    }
