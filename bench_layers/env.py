"""Environment fingerprint, BLAS pinning and the noise calibration kernel."""

from __future__ import annotations

import os
import platform
import time
from typing import Dict

__all__ = [
    "BLAS_PINS",
    "pin_blas",
    "fingerprint",
    "calibrate",
    "reference_seconds",
    "ReferenceClock",
    "REFERENCE_CALIBRATION_S",
    "NOISE_THRESHOLD",
    "peak_rss_mb",
    "own_children",
    "stop_resource_tracker",
    "own_shm_segments",
]

# One BLAS thread: the pool workload brings its own 2 workers, and an
# unpinned OpenBLAS would time the sandbox's core count instead of the
# program.
BLAS_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# The calibration kernel takes this long on the reference sandbox when
# nothing else contends for the host. Host times and rates are reported in
# seconds of a host on which it takes exactly this long.
REFERENCE_CALIBRATION_S = 0.030

# A workload is flagged noisy when the inter-quartile range of the
# calibration samples taken between its repeats exceeds this share of
# their median.
NOISE_THRESHOLD = 0.10


def pin_blas() -> None:
    """Pin BLAS to one thread; must run before numpy is first imported."""
    os.environ.update(BLAS_PINS)


def _loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            return handle.read().strip()
    except OSError:
        return ""


def fingerprint() -> Dict:
    """What the numbers were measured on."""
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_pins": {key: os.environ.get(key, "") for key in BLAS_PINS},
        "loadavg": _loadavg(),
    }


def calibrate() -> float:
    """Seconds for a fixed ~30 ms mix of numpy and Python work.

    The sandbox's effective speed drifts by +-20 % over tens of seconds
    (other tenants of the host), which no amount of repeats inside a
    10 s run averages out. This kernel runs between repeats, so each
    repeat can be placed on a common speed scale; see ``reference_seconds``.
    """
    import numpy

    matrix = numpy.full((160, 160), 1.0 / 160.0)
    start = time.perf_counter()
    for _ in range(12):
        product = matrix
        for _ in range(8):
            product = product @ matrix
        total = 0
        for value in range(30_000):
            total += value & 7
    elapsed = time.perf_counter() - start
    if total < 0 or product.shape != matrix.shape:
        raise AssertionError("calibration kernel lost its work")
    return elapsed


def reference_seconds(
    wall_s: float, calibration_before_s: float, calibration_after_s: float
) -> float:
    """``wall_s`` as it would have read on a host at the reference speed.

    The calibration kernel, timed right before and right after, says how
    fast the host was running meanwhile: when it took twice
    ``REFERENCE_CALIBRATION_S`` the host was at half speed, and the same
    program on the reference host would have finished in half the time.
    """
    host_slowdown = (
        (calibration_before_s + calibration_after_s) / 2.0 / REFERENCE_CALIBRATION_S
    )
    return wall_s / host_slowdown


class ReferenceClock:
    """Times calls on the reference-speed scale.

    Keeps the latest calibration sample, so consecutive timed calls share
    the sample between them: one calibration per call, not two.
    """

    def __init__(self) -> None:
        self.samples = [calibrate()]

    def time(self, call):
        """``(result, wall seconds, reference seconds)`` of ``call()``."""
        start = time.perf_counter()
        result = call()
        wall = time.perf_counter() - start
        self.samples.append(calibrate())
        return result, wall, reference_seconds(wall, *self.samples[-2:])


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


def own_children() -> list:
    """Pids of live child processes, multiprocessing's tracker excepted.

    The resource tracker is started by the first ``SharedMemory`` and
    by design lives until the interpreter exits; it is not a leak.
    """
    from multiprocessing import resource_tracker

    tracker_pid = getattr(resource_tracker._resource_tracker, "_pid", None)
    me = os.getpid()
    survivors = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited while we were looking
        fields = stat.rsplit(")", 1)[-1].split()
        state, parent = fields[0], int(fields[1])
        if parent == me and state != "Z" and int(entry) != tracker_pid:
            survivors.append(int(entry))
    return survivors


def stop_resource_tracker() -> None:
    """End multiprocessing's resource tracker and wait for it.

    Left alone it outlives the interpreter by a moment; the driver wants
    every process the benchmark started to have ended when it exits.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def own_shm_segments() -> list:
    """Shared-memory segments named after this process (``repro<pid>x…``)."""
    prefix = f"repro{os.getpid()}x"
    try:
        return [name for name in os.listdir("/dev/shm") if name.startswith(prefix)]
    except OSError:
        return []
