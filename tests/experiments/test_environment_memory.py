"""How many copies of the training inputs the data pipeline holds.

Bounds are in units of the train split's input bytes, measured with
``tracemalloc`` (numpy reports its buffers to it). A built environment
keeps one copy — the users' row views of one gathered matrix — and
building it needs two at a time: ``order`` is drawn after the class
draws, so the permuted gather needs a second buffer, and so do the
partition gather and ``np.std``'s temporary.
"""

import tracemalloc

import numpy as np
import pytest

from repro.data.synthetic import make_synthetic_image_task
from repro.experiments.runner import build_environment
from repro.experiments.settings import ExperimentSettings

USERS = 2_000
TRAIN_SIZE = 20_000


def _traced(build):
    """``(result, bytes still held, peak bytes)`` of ``build()``."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - before, peak - before


@pytest.mark.parametrize("iid", [True, False])
def test_environment_keeps_one_copy_of_the_train_inputs(iid):
    settings = ExperimentSettings(num_users=USERS, train_size=TRAIN_SIZE)
    env, held, _ = _traced(lambda: build_environment(settings, iid))
    train_bytes = sum(part.inputs.nbytes for part in env.partitions)
    assert train_bytes == TRAIN_SIZE * int(np.prod(settings.image_shape)) * 8
    # The rest is the test split (5 % here), labels, devices and columns.
    assert held <= 1.25 * train_bytes, held / train_bytes


def test_synthetic_task_peaks_at_two_copies():
    task, _, peak = _traced(
        lambda: make_synthetic_image_task(
            train_size=TRAIN_SIZE, test_size=1_000, seed=1
        )
    )
    assert peak <= 2.1 * task.train.inputs.nbytes, peak / task.train.inputs.nbytes
