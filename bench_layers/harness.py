"""Runs one workload in this process: the untraced, end-to-end pass.

``measure`` is what ``--workload NAME --trace 0`` executes. It times the
cold set-up several times, warms up, repeats the workload until
``--seconds`` are spent, checks every output, and returns the
end-to-end metrics together with the operation counts.
"""

from __future__ import annotations

import os
import shutil
import time
import traceback
from typing import Dict, List, NamedTuple

from bench_layers import env as environment
from bench_layers.spec import END_TO_END, REPO_ROOT
from bench_layers.stats import quantile, summary
from bench_layers.workloads import Check, make_case

__all__ = ["Plan", "FULL", "SMOKE", "scratch_dir", "measure", "contract_line"]


class Plan(NamedTuple):
    """How much work one pass does besides the ``--seconds`` it measures.

    Attributes:
        warmups: untimed repeats before the timed ones.
        min_repeats: timed repeats run even when ``--seconds`` is over.
        min_builds / build_seconds / max_builds: cold set-ups timed for
            ``setup_s`` — at least ``min_builds``, more while
            ``build_seconds`` are not yet spent (a 10 ms set-up can
            afford many samples, a 1 s one cannot).
        traced_repeats: repeats of the traced pass.
        kernel_seconds / kernel_calls: each kernel or replay loop is
            called until ``kernel_seconds`` are spent, and never fewer
            than ``kernel_calls`` times.
        kernel_warm: one untimed call ahead of those.
    """

    warmups: int
    min_repeats: int
    min_builds: int
    build_seconds: float
    max_builds: int
    traced_repeats: int
    kernel_seconds: float
    kernel_calls: int
    kernel_warm: bool


FULL = Plan(
    warmups=2,
    min_repeats=5,
    min_builds=5,
    build_seconds=1.5,
    max_builds=40,
    traced_repeats=5,
    kernel_seconds=0.25,
    kernel_calls=3,
    kernel_warm=True,
)
SMOKE = Plan(
    warmups=1,
    min_repeats=2,
    min_builds=1,
    build_seconds=0.0,
    max_builds=1,
    traced_repeats=1,
    kernel_seconds=0.0,
    kernel_calls=1,
    kernel_warm=False,
)


def scratch_dir(workload: str) -> str:
    """A private directory inside the checkout for traces and checkpoints."""
    path = os.path.join(
        REPO_ROOT, "artifacts", "bench_layers", f"tmp-{workload}-{os.getpid()}"
    )
    os.makedirs(path, exist_ok=True)
    return path


def time_builds(case, plan: Plan, clock: environment.ReferenceClock):
    """Time cold set-ups; returns ``(wall s, reference s, last state)``."""
    walls: List[float] = []
    references: List[float] = []
    state = None
    while len(walls) < plan.max_builds and (
        len(walls) < plan.min_builds or sum(walls) < plan.build_seconds
    ):
        state = None  # drop the previous build before timing the next
        state, wall, reference = clock.time(case.build)
        walls.append(wall)
        references.append(reference)
    return walls, references, state


def single(value: float) -> Dict[str, float]:
    """The summary form of a quantity measured once per run."""
    return {"value": value, "p25": value, "p75": value, "n": 1}


def leak_checks() -> List[Check]:
    """No shared-memory segment and no child process outlives a workload."""
    segments = environment.own_shm_segments()
    children = environment.own_children()
    return [
        Check("shm_leak", not segments, f"{segments[:3]}"),
        Check("child_leak", not children, f"pids {children[:5]}"),
    ]


def measure(workload: str, seed: int, seconds: float, plan: Plan) -> Dict:
    """The untraced pass of one workload."""
    scratch = scratch_dir(workload)
    failures: List[str] = []
    attempted = 0
    try:
        case = make_case(workload, seed, scratch)
        clock = environment.ReferenceClock()
        build_walls, build_times, state = time_builds(case, plan, clock)

        for _ in range(plan.warmups):
            clock.time(lambda: case.run(state))

        reference = None
        walls: List[float] = []
        times: List[float] = []  # the same repeats on the reference-speed scale
        deadline = time.perf_counter() + seconds
        while len(walls) < plan.min_repeats or time.perf_counter() < deadline:
            attempted += 1
            try:
                produced, wall, on_reference = clock.time(lambda: case.run(state))
            except Exception:  # a repeat that raises is a failed operation
                failures.append("repeat raised: " + traceback.format_exc(limit=3))
                if len(failures) >= 3:
                    raise
                continue
            outcome = case.outcome(produced[1])
            del produced  # a run's output must not sit in memory during the next
            walls.append(wall)
            times.append(on_reference)
            if reference is None:
                reference = outcome
            elif outcome.digest != reference.digest:
                failures.append(
                    f"repeat {len(walls)} digest {outcome.digest[:12]} differs "
                    f"from first {reference.digest[:12]}"
                )

        checks, twin = case.checks(state, reference)
        checks.extend(leak_checks())
        for check in checks:
            attempted += 1
            if not check.ok:
                failures.append(f"{check.name}: {check.detail}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    rounds_per_s = [reference.rounds / elapsed for elapsed in times]
    clients_per_s = [reference.clients / elapsed for elapsed in times]
    host = summary(clock.samples)
    values = {
        "rounds_per_s": summary(rounds_per_s),
        "clients_per_s": summary(clients_per_s),
        # The fastest build, not the median: what varies between builds is
        # kernel time spent faulting in fresh pages (0.06-4 s for the same
        # 0.75 s of user time on mlp_q10k), noise that only ever adds.
        "setup_s": dict(summary(build_times), value=min(build_times)),
        "peak_rss_mb": single(environment.peak_rss_mb()),
        "sim_delay_s": single(reference.sim_delay_s),
        "sim_energy_j": single(reference.sim_energy_j),
        "dvfs_saving_frac": single(1.0 - reference.sim_energy_j / twin.sim_energy_j),
    }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": {
            metric.name: dict(values[metric.name], unit=metric.unit)
            for metric in END_TO_END
        },
        "failed_share": len(failures) / attempted,
        "final_accuracy": reference.final_accuracy,
        "digest": reference.digest,
        "raw_rounds_per_s": summary([reference.rounds / wall for wall in walls]),
        "raw_setup_s": dict(summary(build_walls), value=min(build_walls)),
        "repeat_wall_s": summary(walls),
        "repeat_wall_p90_s": quantile(walls, 0.9),
        "calibration_s": host,
        "noisy": (host["p75"] - host["p25"]) / host["value"]
        > environment.NOISE_THRESHOLD,
        "env": environment.fingerprint(),
    }


def contract_line(result: Dict) -> Dict:
    """The one JSON object the driver reads from the last line of stdout."""
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in result["metrics"].items()
        },
    }
