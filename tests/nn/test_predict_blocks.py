"""``Sequential.predict`` in byte-sized blocks equals 512-row chunks, bit
for bit, and keeps the evaluation working set small.

By default ``predict`` cuts its input into near-equal blocks of whole
16-row units, each holding about 2 MiB of the widest per-row buffer of
the forward pass (a leading ``Conv2D``'s im2col rows, otherwise the
input row) and at most 512 rows. The server used fixed 512-row chunks
before; those are the oracle here, reached through an explicit
``batch_size=512``. Every comparison is on the raw bytes.
"""

import tracemalloc

import numpy as np
import pytest

from repro.data.dataset import ArrayDataset
from repro.fl.server import FederatedServer
from repro.nn.architectures import build_cnn, build_mini_squeezenet, build_mlp
from repro.nn.model import Sequential

IMAGE = (3, 8, 8)
# The test sizes the repo's settings and pins use, plus odd remainders
# around the ~150-row conv blocks and the 512-row cap.
SIZES = (32, 40, 200, 1000, 1, 47, 151, 152, 303, 457, 999, 1531)

MODELS = {
    "mlp": lambda: build_mlp(int(np.prod(IMAGE)), 10, hidden_sizes=(64,), seed=3),
    "cnn": lambda: build_cnn(IMAGE, 10, seed=3),
    "squeezenet": lambda: build_mini_squeezenet(IMAGE, 10, seed=3),
}


def inputs_for(name: str, count: int) -> np.ndarray:
    images = np.random.default_rng(count).normal(size=(count, *IMAGE))
    return images.reshape(count, -1) if name == "mlp" else images


def block_sizes(model: Sequential, inputs: np.ndarray, **predict) -> list:
    """The row counts ``predict`` hands to ``forward``, in order."""
    seen = []
    forward = model.forward

    def spy(block, training=False):
        seen.append(block.shape[0])
        return forward(block, training=training)

    model.forward = spy
    try:
        model.predict(inputs, **predict)
    finally:
        del model.forward
    return seen


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("count", SIZES)
def test_blocks_equal_512_row_chunks(name, count):
    model = MODELS[name]()
    inputs = inputs_for(name, count)
    got = model.predict(inputs)
    want = model.predict(inputs, batch_size=512)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestBlockSizes:
    def test_narrow_model_blocks_are_capped_at_512_rows(self):
        model = MODELS["mlp"]()
        assert block_sizes(model, inputs_for("mlp", 512)) == [512]
        assert block_sizes(model, inputs_for("mlp", 1000)) == [496, 504]

    def test_squeezenet_blocks_are_aligned_and_near_equal(self):
        model = MODELS["squeezenet"]()
        # The stem's im2col: 8 x 8 pixels x 27 taps x 8 bytes per image.
        assert model._row_bytes(inputs_for("squeezenet", 1)) == 13824
        sizes = block_sizes(model, inputs_for("squeezenet", 1000))
        assert sizes == [128, 144, 144, 144, 144, 144, 152]
        assert max(sizes) * 13824 < 1.01 * (2 << 20)

    @pytest.mark.parametrize("count", [152, 170, 999, 10_000])
    def test_no_tiny_block(self, count):
        sizes = block_sizes(
            MODELS["squeezenet"](), inputs_for("squeezenet", count)
        )
        assert sum(sizes) == count
        assert all(size % 16 == 0 for size in sizes[:-1])
        assert min(sizes) >= 64
        assert max(sizes) - min(sizes) < 32

    def test_fewer_rows_than_one_unit_are_one_block(self):
        model = MODELS["squeezenet"]()
        assert block_sizes(model, inputs_for("squeezenet", 7)) == [7]

    def test_explicit_batch_size_cuts_fixed_chunks(self):
        sizes = block_sizes(MODELS["mlp"](), inputs_for("mlp", 10), batch_size=4)
        assert sizes == [4, 4, 2]


def test_warm_squeezenet_evaluate_peaks_under_3_mib():
    rng = np.random.default_rng(0)
    test = ArrayDataset(
        rng.normal(size=(1000, *IMAGE)), rng.integers(0, 10, size=1000)
    )
    server = FederatedServer(MODELS["squeezenet"](), test_dataset=test)
    server.evaluate()  # warm-up: scratch buffers reach their capacity
    tracemalloc.start()
    try:
        server.evaluate()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 << 20, f"peak {peak / 2**20:.2f} MiB"
