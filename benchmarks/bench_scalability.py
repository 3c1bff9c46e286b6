"""Scalability study — cost-model scaling, backend speedup, population API.

Part 1 sweeps the population size ``Q`` and the selection fraction
``C`` through the paper-scale cost-model Monte Carlo (no training) and
checks the scaling laws the TDMA model implies:

* round delay grows with ``Q * C`` (more uploads serialize on the
  channel, and the selected max compute delay creeps up);
* round energy grows roughly linearly in the selected count;
* Algorithm 3's relative saving stays positive across the sweep
  (the mechanism does not wash out at scale).

Part 2 benchmarks the client-execution backends
(:mod:`repro.fl.execution`) on an actual 100-user training workload:
the selected clients are independent, so the pooled backends should
cut wall-clock roughly by the worker count while reproducing the
serial run bitwise. Run it standalone to measure one backend::

    PYTHONPATH=src python benchmarks/bench_scalability.py \
        --backend process --workers 4

On a 4-core host the process backend should show >= 2x speedup over
serial at 100 users; under pytest the speedup assertion engages only
when enough cores are available, so the parity checks still run on
constrained CI hosts.

Part 3 is a Q = 10⁵ scheduler smoke of the
:class:`~repro.devices.DevicePopulation` scheduler (Algorithm 2
selection + Algorithm 3 DVFS), built via ``from_spec`` with no device
objects at all; scheduler timing proper is ``bench_layers``'
``sched_q100k`` workload. ``--scalability-snapshot PATH`` writes the
composite ``BENCH_scalability.json`` document — timings plus a traced
quick-run analytics snapshot that ``python -m repro trace-compare``
consumes, so CI can fail on >10% regression against the committed
baseline.

Part 4 isolates the round *transport*: one ``run_round`` over Q ∈
{10³, 10⁴} lightweight clients with a ~10⁴-parameter model, through the
pickle process pool (``process``) and the zero-copy shared-memory pool
(``process+shm``, :mod:`repro.fl.shm`). Local compute is kept tiny so
the measured gap is broadcast/collect serialization, the ``2*Q*P*8``
bytes per round the shm transport eliminates. Updates are asserted
bitwise identical between the two pools; the timings land in the
snapshot's ``transport_study`` key.
"""

import json
import os
import time

import numpy as np

from repro.core.frequency import determine_frequencies_population
from repro.core.selection import GreedyDecaySelection
from repro.data.dataset import ArrayDataset
from repro.devices.fleet import FleetSpec, make_fleet
from repro.devices.population import DevicePopulation
from repro.experiments.costmodel import run_cost_model_study
from repro.experiments.runner import build_environment, run_strategy
from repro.experiments.settings import ExperimentSettings
from repro.fl.execution import BACKEND_NAMES
from repro.obs import CollectingSink, JsonlTraceSink, RunObserver, self_time_rows
from repro.obs.analysis import compute_run_stats, load_trace

TIMER_STAGES = ("selection", "frequency_assignment", "local_updates", "aggregation")

SCALABILITY_SCHEMA = "repro.bench.scalability/v1"


def run_scaling_study():
    population_sweep = {}
    for num_users in (50, 100, 200):
        result = run_cost_model_study(
            strategies=("helcfl",),
            num_users=num_users,
            trials=8,
            rounds_per_trial=6,
            seed=7,
        )
        population_sweep[num_users] = result.summaries["helcfl"]

    fraction_sweep = {}
    for fraction in (0.05, 0.1, 0.2):
        result = run_cost_model_study(
            strategies=("helcfl",),
            fraction=fraction,
            trials=8,
            rounds_per_trial=6,
            seed=7,
        )
        fraction_sweep[fraction] = result.summaries["helcfl"]
    return population_sweep, fraction_sweep


def test_cost_scaling(benchmark):
    population_sweep, fraction_sweep = benchmark.pedantic(
        run_scaling_study, rounds=1, iterations=1
    )

    # Fixed C: more users -> more selected -> longer, costlier rounds.
    delays = [population_sweep[q].round_delay_s[0] for q in (50, 100, 200)]
    energies = [population_sweep[q].round_energy_j[0] for q in (50, 100, 200)]
    assert delays[0] < delays[1] < delays[2]
    assert energies[0] < energies[1] < energies[2]

    # Fixed Q: larger fraction scales the same way.
    f_delays = [fraction_sweep[c].round_delay_s[0] for c in (0.05, 0.1, 0.2)]
    f_energies = [fraction_sweep[c].round_energy_j[0] for c in (0.05, 0.1, 0.2)]
    assert f_delays[0] < f_delays[1] < f_delays[2]
    assert f_energies[0] < f_energies[1] < f_energies[2]

    # Algorithm 3 keeps saving throughout.
    for sweep in (population_sweep, fraction_sweep):
        for summary in sweep.values():
            assert summary.dvfs_saving_fraction[0] > 0.05

    print()
    print("  population sweep (C=0.1):")
    for q in (50, 100, 200):
        s = population_sweep[q]
        print(
            f"    Q={q:3d}: round {s.round_delay_s[0]:7.2f}s  "
            f"energy {s.round_energy_j[0]:7.2f}J  "
            f"saving {100 * s.dvfs_saving_fraction[0]:5.1f}%"
        )
    print("  fraction sweep (Q=100):")
    for c in (0.05, 0.1, 0.2):
        s = fraction_sweep[c]
        print(
            f"    C={c:4.2f}: round {s.round_delay_s[0]:7.2f}s  "
            f"energy {s.round_energy_j[0]:7.2f}J  "
            f"saving {100 * s.dvfs_saving_fraction[0]:5.1f}%"
        )


# ----------------------------------------------------------------------
# Part 2: execution-backend speedup on real training
# ----------------------------------------------------------------------
def _backend_settings(num_users: int = 100, rounds: int = 3) -> ExperimentSettings:
    """A 100-user workload heavy enough for fan-out to matter.

    ``local_steps`` is cranked so each client's local update costs
    tens of milliseconds — the regime the paper-scale sweeps live in —
    while the round count keeps the whole bench short.
    """
    return ExperimentSettings(
        num_users=num_users,
        fraction=0.1,
        rounds=rounds,
        train_size=max(num_users * 200, 4000),
        test_size=500,
        local_steps=60,
        eval_every=rounds,
        seed=7,
    )


def run_backend_study(
    backends=BACKEND_NAMES,
    num_users: int = 100,
    rounds: int = 3,
    workers=None,
    snapshot_prefix=None,
):
    """Time one identical training run per backend; return the results.

    Each backend runs once untimed before its timed run.

    Args:
        snapshot_prefix: when set, each backend's run is traced to
            ``{prefix}-{backend}.trace.jsonl`` and its analytics
            snapshot written to ``{prefix}-{backend}.json`` — inputs
            ``python -m repro trace-compare`` consumes, so CI
            can assert zero drift between backends from the artifacts
            alone.

    Returns:
        Mapping from backend name to ``(wall_seconds, history,
        events)``, where ``events`` is the run's trace: its stage
        spans carry the per-stage breakdown (selection / frequency
        assignment / local updates / aggregation).
    """
    settings = _backend_settings(num_users=num_users, rounds=rounds)
    env = build_environment(settings, iid=True)
    results = {}
    for name in backends:
        # One untimed run first: otherwise the first backend alone pays
        # the cold caches and lazy imports, and the ratio measures the
        # order of the runs.
        run_strategy(
            "helcfl", settings, iid=True, environment=env, backend=name, workers=workers
        )
        trace_path = None if snapshot_prefix is None else f"{snapshot_prefix}-{name}.trace.jsonl"
        sink = CollectingSink() if trace_path is None else JsonlTraceSink(trace_path)
        start = time.perf_counter()
        with RunObserver(sink=sink) as observer:
            history = run_strategy(
                "helcfl",
                settings,
                iid=True,
                environment=env,
                backend=name,
                workers=workers,
                observer=observer,
            )
        wall = time.perf_counter() - start
        events = sink.events if trace_path is None else load_trace(trace_path).events
        results[name] = (wall, history, events)
        if trace_path is not None:
            stats = compute_run_stats(events, source=trace_path)
            with open(f"{snapshot_prefix}-{name}.json", "w", encoding="utf-8") as handle:
                handle.write(stats.to_json() + "\n")
    return results


def _stage_totals(events) -> dict:
    """Span name -> ``(count, total seconds)`` over a run's trace."""
    return {row[0]: row[1:3] for row in self_time_rows(events)}


def _format_stage_breakdown(events) -> str:
    """One-line per-stage span totals for a backend run."""
    totals = _stage_totals(events)
    return "  ".join(
        f"{stage} {totals.get(stage, (0, 0.0))[1]:6.3f}s" for stage in TIMER_STAGES
    )


def test_backend_scaling(benchmark):
    results = benchmark.pedantic(run_backend_study, rounds=1, iterations=1)

    serial_time, serial_history, _ = results["serial"]
    serial_records = serial_history.records
    print()
    print("  backend study (Q=100, C=0.1, 3 rounds):")
    for name, (wall, history, events) in results.items():
        speedup = serial_time / wall if wall > 0 else float("inf")
        print(
            f"    {name:8s}: {wall:6.2f}s  speedup {speedup:4.2f}x  "
            f"final acc {100 * history.final_accuracy:.2f}%"
        )
        print(f"      timers: {_format_stage_breakdown(events)}")
        # One local_updates span per round — the observability layer
        # sees every backend the same way.
        assert _stage_totals(events)["local_updates"][0] == len(history.records)
        # Bitwise parity: identical selection, loss, and accuracy
        # trajectories no matter how execution was scheduled.
        assert len(history.records) == len(serial_records)
        for got, want in zip(history.records, serial_records):
            assert got.selected_ids == want.selected_ids
            assert got.train_loss == want.train_loss
            assert got.test_accuracy == want.test_accuracy

    # The speedup claim needs real cores; skip it on constrained hosts.
    cores = os.cpu_count() or 1
    if cores >= 4:
        process_time, _, _ = results["process"]
        assert serial_time / process_time >= 1.5, (
            f"process backend speedup "
            f"{serial_time / process_time:.2f}x < 1.5x on {cores} cores"
        )


# ----------------------------------------------------------------------
# Part 3: DevicePopulation scheduler smoke (Algorithms 2 + 3)
# ----------------------------------------------------------------------
PAYLOAD_BITS = 1e6
BANDWIDTH_HZ = 2e6
FRACTION = 0.1
DECAY = 0.7


def _bench_spec() -> FleetSpec:
    return FleetSpec(channel_gain_range=(1e-7, 1e-6))


def _bench_sizes(q: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(20, 200, size=q)


def _vector_rounds(population, rounds: int):
    """The DevicePopulation path: array scores, argpartition top-N,
    prefix-scan DVFS over the selected slice."""
    strategy = GreedyDecaySelection(FRACTION, DECAY, PAYLOAD_BITS, BANDWIDTH_HZ)
    picks, assignments = [], []
    for round_index in range(1, rounds + 1):
        positions = strategy.select_population(round_index, population)
        selected = population.take(positions)
        assigned = determine_frequencies_population(
            selected, PAYLOAD_BITS, BANDWIDTH_HZ
        )
        picks.append(population.device_ids[positions].tolist())
        assignments.append(
            dict(zip(selected.device_ids.tolist(), assigned.tolist()))
        )
    return picks, assignments


def run_scheduler_smoke(q=100_000, rounds=1, seed=7):
    """Q = 10⁵ selection + DVFS with no device objects at all.

    The fleet is drawn straight into arrays via ``from_spec`` — the
    configuration the Q ≈ 10⁵–10⁶ studies use.
    """
    sizes = _bench_sizes(q, seed)
    start = time.perf_counter()
    population = DevicePopulation.from_spec(_bench_spec(), sizes, seed=seed + 1)
    build_s = time.perf_counter() - start

    start = time.perf_counter()
    picks, _ = _vector_rounds(population, rounds)
    schedule_s = time.perf_counter() - start
    return {
        "q": q,
        "rounds": rounds,
        "build_s": build_s,
        "schedule_s": schedule_s,
        "selected_per_round": len(picks[0]),
    }


# ----------------------------------------------------------------------
# Part 4: pickle vs shared-memory round transport
# ----------------------------------------------------------------------
TRANSPORT_BACKENDS = ("process", "process+shm")


def _transport_model(seed: int = 7):
    """An MLP of ~10⁴ parameters — big enough that pickling it per
    client per direction is the round's dominant byte stream."""
    from repro.nn.architectures import build_mlp

    return build_mlp(4, 3, hidden_sizes=(128, 64), seed=seed)


def _transport_fleet(q: int, seed: int = 7):
    """Q lightweight trainable devices (two samples each, dim 4)."""
    rng = np.random.default_rng(seed)
    partitions = [
        ArrayDataset(
            rng.normal(size=(2, 4)), rng.integers(0, 3, size=2)
        )
        for _ in range(q)
    ]
    return make_fleet(partitions, _bench_spec(), seed=seed + 1)


def run_transport_study(
    q_values=(1_000, 10_000), workers=None, seed=7, timed_rounds=3
):
    """Time warmed ``run_round`` calls per pool transport; assert parity.

    Each backend is warmed with one full-fleet round (worker spawn,
    shared-block allocation, and first-touch page faults are start-up
    costs, not per-round transport), then ``timed_rounds`` steady-state
    rounds are timed and the minimum is kept — the minimum, not the
    mean, because scheduling noise on a busy host only ever adds time.
    The timed rounds alternate between the two live backends so both
    sample the same background load instead of getting sequential
    measurement windows.

    Returns:
        Mapping from Q to ``{"pickle_s", "shm_s", "speedup",
        "param_count", "round_megabytes"}`` where ``round_megabytes``
        is the parameter traffic the pickle path serializes per round
        (broadcast + collect) and the shm path moves through shared
        blocks instead.
    """
    from repro.fl.execution import LocalUpdateSpec, create_backend

    model = _transport_model(seed)
    spec = LocalUpdateSpec(seed=seed)
    global_params = model.get_flat_params()
    param_count = model.parameter_count
    study = {}
    for q in q_values:
        devices = _transport_fleet(q, seed=seed)
        walls = {name: float("inf") for name in TRANSPORT_BACKENDS}
        updates_by_backend = {}
        backends = {
            name: create_backend(name, workers=workers)
            for name in TRANSPORT_BACKENDS
        }
        try:
            for name, backend in backends.items():
                backend.bind(model, spec, devices)
                backend.run_round(1, global_params, devices, 0.1)
            for timed in range(timed_rounds):
                for name, backend in backends.items():
                    start = time.perf_counter()
                    updates_by_backend[name] = backend.run_round(
                        2 + timed, global_params, devices, 0.1
                    )
                    walls[name] = min(
                        walls[name], time.perf_counter() - start
                    )
        finally:
            for backend in backends.values():
                backend.close()
        for want, got in zip(*updates_by_backend.values()):
            assert want.device_id == got.device_id
            assert np.array_equal(want.params, got.params), (
                f"transport drift at Q={q}, device {want.device_id}"
            )
            assert want.loss == got.loss
        study[q] = {
            "pickle_s": walls["process"],
            "shm_s": walls["process+shm"],
            "speedup": (
                walls["process"] / walls["process+shm"]
                if walls["process+shm"] > 0
                else float("inf")
            ),
            "param_count": param_count,
            "round_megabytes": 2 * q * param_count * 8 / 1e6,
        }
    return study


def test_transport_study(benchmark):
    study = benchmark.pedantic(run_transport_study, rounds=1, iterations=1)
    print()
    print("  round transport study (pickle vs shm, ~1e4 params):")
    for q, entry in study.items():
        print(
            f"    Q={q:6d}: pickle {entry['pickle_s']:7.3f}s  "
            f"shm {entry['shm_s']:7.3f}s  "
            f"speedup {entry['speedup']:5.2f}x  "
            f"({entry['round_megabytes']:.0f} MB/round pickled)"
        )
    # The committed BENCH_scalability.json shows shm ahead at Q=1e4;
    # the in-suite floor is lenient so loaded CI hosts don't flake.
    # Bitwise parity is asserted inside run_transport_study.
    assert study[10_000]["speedup"] >= 1.0


def write_scalability_snapshot(
    path,
    q_values=(1_000, 10_000),
    smoke_q=100_000,
    trace_path="bench-scalability.trace.jsonl",
):
    """Write the composite ``BENCH_scalability.json`` document.

    Carries the pickle-vs-shm transport study, the scheduler smoke, and
    an ``analytics`` RunStats snapshot
    from a traced quick training run — the piece ``python -m repro
    trace-compare`` reads, so a committed snapshot doubles
    as a CI regression baseline.
    """
    from repro.obs.analysis import compute_run_stats, load_trace

    transport = run_transport_study(q_values=q_values)
    smoke = run_scheduler_smoke(q=smoke_q)
    observer = RunObserver.to_path(trace_path)
    try:
        run_strategy(
            "helcfl",
            ExperimentSettings.quick(rounds=3, seed=7),
            iid=True,
            observer=observer,
        )
    finally:
        observer.close()
    stats = compute_run_stats(
        load_trace(trace_path).events, source=str(trace_path)
    )
    document = {
        "schema": SCALABILITY_SCHEMA,
        "payload_bits": PAYLOAD_BITS,
        "bandwidth_hz": BANDWIDTH_HZ,
        "fraction": FRACTION,
        "decay": DECAY,
        "transport_study": {
            str(q): entry for q, entry in transport.items()
        },
        "scheduler_smoke": smoke,
        "analytics": stats.to_dict(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return document


def test_scheduler_smoke_completes_in_seconds(benchmark):
    smoke = benchmark.pedantic(run_scheduler_smoke, rounds=1, iterations=1)
    print()
    print(
        f"  scheduler smoke: Q={smoke['q']}: "
        f"build {smoke['build_s']:.2f}s, "
        f"schedule {smoke['schedule_s']:.2f}s, "
        f"{smoke['selected_per_round']} selected"
    )
    assert smoke["selected_per_round"] == 10_000
    assert smoke["build_s"] + smoke["schedule_s"] < 30.0


def compare_transport_studies(baseline, fresh, threshold=0.10):
    """Regression-gate the pickle-vs-shm transport part of two snapshots.

    Args:
        baseline: committed snapshot document (``BENCH_scalability.json``).
        fresh: freshly measured snapshot document.
        threshold: allowed fractional speedup regression (CI's 10%).

    Returns:
        List of human-readable failure strings; empty when the fresh
        shm transport still beats pickle and holds the baseline
        speedup to within ``threshold``.
    """
    failures = []
    base = baseline.get("transport_study", {})
    got = fresh.get("transport_study", {})
    if not base:
        failures.append("baseline snapshot has no transport_study part")
    for q, want in base.items():
        entry = got.get(q)
        if entry is None:
            failures.append(f"Q={q}: missing from fresh transport study")
            continue
        floor = want["speedup"] * (1.0 - threshold)
        if entry["speedup"] < floor:
            failures.append(
                f"Q={q}: shm speedup {entry['speedup']:.2f}x fell below "
                f"{floor:.2f}x ({(1 - threshold) * 100:.0f}% of the "
                f"committed {want['speedup']:.2f}x)"
            )
    largest = max(base, key=lambda q: int(q), default=None)
    if largest is not None and largest in got:
        if got[largest]["speedup"] < 1.0:
            failures.append(
                f"Q={largest}: shm transport slower than pickle "
                f"({got[largest]['speedup']:.2f}x)"
            )
    return failures


def _main() -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Time an execution backend against serial at Q=100."
    )
    parser.add_argument("--backend", choices=BACKEND_NAMES, default="process")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--users", type=int, default=100)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument(
        "--snapshot",
        metavar="PREFIX",
        default=None,
        help="trace each backend run and write PREFIX-<backend>.json "
        "analytics snapshots for 'python -m repro trace-compare'",
    )
    parser.add_argument(
        "--scalability-snapshot",
        metavar="PATH",
        default=None,
        help="run the Q=1e5 scheduler smoke, the transport study and "
        "the traced analytics run and write the composite "
        "BENCH_scalability.json document there; skips the backend study",
    )
    parser.add_argument(
        "--compare-transport",
        nargs=2,
        metavar=("BASELINE", "FRESH"),
        default=None,
        help="regression-gate the pickle-vs-shm transport_study part "
        "of FRESH against the committed BASELINE snapshot; exits "
        "non-zero when the shm speedup regresses past the threshold",
    )
    parser.add_argument(
        "--transport-threshold",
        type=float,
        default=0.10,
        help="allowed fractional shm-speedup regression (default 0.10)",
    )
    args = parser.parse_args()

    if args.compare_transport:
        baseline_path, fresh_path = args.compare_transport
        with open(baseline_path, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        with open(fresh_path, "r", encoding="utf-8") as handle:
            fresh = json.load(handle)
        failures = compare_transport_studies(
            baseline, fresh, threshold=args.transport_threshold
        )
        for q, entry in fresh.get("transport_study", {}).items():
            print(
                f"transport Q={q:>6s}: pickle {entry['pickle_s']:7.3f}s  "
                f"shm {entry['shm_s']:7.3f}s  "
                f"speedup {entry['speedup']:5.2f}x"
            )
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}")
            return 1
        print("transport study within threshold")
        return 0

    if args.scalability_snapshot:
        document = write_scalability_snapshot(args.scalability_snapshot)
        for q, entry in document["transport_study"].items():
            print(
                f"transport Q={q:>6s}: pickle {entry['pickle_s']:7.3f}s  "
                f"shm {entry['shm_s']:7.3f}s  "
                f"speedup {entry['speedup']:5.2f}x"
            )
        smoke = document["scheduler_smoke"]
        print(
            f"scheduler smoke Q={smoke['q']}: build {smoke['build_s']:.2f}s, "
            f"schedule {smoke['schedule_s']:.2f}s"
        )
        print(f"wrote {args.scalability_snapshot}")
        return 0

    names = ("serial",) if args.backend == "serial" else ("serial", args.backend)
    results = run_backend_study(
        backends=names,
        num_users=args.users,
        rounds=args.rounds,
        workers=args.workers,
        snapshot_prefix=args.snapshot,
    )
    if args.snapshot:
        for name in names:
            print(f"wrote {args.snapshot}-{name}.json")
    serial_time, serial_history, _ = results["serial"]
    print(f"cores available: {os.cpu_count()}")
    for name, (wall, history, events) in results.items():
        print(
            f"{name:8s}: {wall:6.2f}s  speedup {serial_time / wall:4.2f}x  "
            f"final acc {100 * history.final_accuracy:.2f}%"
        )
        print(f"  timers: {_format_stage_breakdown(events)}")
    if args.backend != "serial":
        _, other, _ = results[args.backend]
        same = all(
            a.test_accuracy == b.test_accuracy
            and a.selected_ids == b.selected_ids
            for a, b in zip(serial_history.records, other.records)
        )
        print(f"bitwise parity with serial: {'OK' if same else 'MISMATCH'}")
        return 0 if same else 1
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
