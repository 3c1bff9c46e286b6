"""The channels-last conv stack equals the NCHW-contiguous one, bit for bit.

``repro.nn`` keeps every conv activation as NCHW *shape* over
channels-last *memory*: a 1x1 convolution takes its input as ``cols``
with no copy, ``Conv2D`` hands out its GEMM result as a view, pooling
reads strided windows, ReLU is ``np.fmax``. ``tests/oracles/conv_nchw.py``
is the stack it replaced, where every activation is a C-contiguous NCHW
array. Every comparison here is ``same_bits`` -- equal values, NaN
matching NaN, and equal sign bits so that ``-0.0`` is not ``+0.0`` --
never ``isclose``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import ArrayDataset
from repro.fl.client import LocalTrainer
from repro.nn.activations import ReLU
from repro.nn.architectures import build_cnn, build_mini_squeezenet
from repro.nn.architectures.fire import Fire
from repro.nn.conv import Conv2D
from repro.nn.conv_utils import as_rows, col2im, im2col
from repro.nn.layer import Layer
from repro.nn.model import Sequential
from repro.nn.pooling import MaxPool2D
from tests.oracles import conv_nchw

FINITE = [0.0, 0.0, 0.0, 0.5, 0.5, -0.5, 1.0, -1.0, 2.0]
EXAMPLES = settings(max_examples=60, deadline=None)


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Same shape, same values (NaN equals NaN) and the same sign of zero."""
    if got.shape != want.shape or not np.array_equal(got, want, equal_nan=True):
        return False
    finite = ~np.isnan(want)
    return np.array_equal(np.signbit(got)[finite], np.signbit(want)[finite])


def channels_last(array: np.ndarray) -> np.ndarray:
    """The same NCHW-shaped values over NHWC memory."""
    return np.ascontiguousarray(array.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def values(rng, shape, specials=(), negative_zero=True):
    """Half normal draws, half members of a small palette.

    The palette makes ties and exact zeros common (as ReLU does in
    pooling windows); ``specials`` adds ``inf``, ``-inf`` and ``nan``
    for the examples that draw them, ``negative_zero`` adds ``-0.0``.
    """
    palette = FINITE + list(specials) + ([-0.0] if negative_zero else [])
    return np.where(
        rng.random(shape) < 0.5,
        rng.normal(size=shape),
        rng.choice(np.array(palette), size=shape),
    )


@st.composite
def geometry(draw, kernels=(1, 3)):
    """Batch 1-70, odd and even sizes, kernel 1-3, stride 1-2, padding 0-1."""
    case = {
        "seed": draw(st.integers(0, 2**31)),
        "n": draw(st.sampled_from([1, 2, 3, 7, 40, 70])),
        "c": draw(st.integers(1, 4)),
        "h": draw(st.integers(1, 7)),
        "w": draw(st.integers(1, 7)),
        "kh": draw(st.integers(*kernels)),
        "kw": draw(st.integers(*kernels)),
        "stride": draw(st.integers(1, 2)),
        "padding": draw(st.integers(0, 1)),
        "input_layout": draw(st.sampled_from([np.ascontiguousarray, channels_last])),
        "grad_layout": draw(st.sampled_from([np.ascontiguousarray, channels_last])),
        "specials": draw(
            st.sampled_from([(), (np.inf,), (-np.inf, np.inf), (np.nan, np.inf)])
        ),
    }
    case["kh"] = min(case["kh"], case["h"] + 2 * case["padding"])
    case["kw"] = min(case["kw"], case["w"] + 2 * case["padding"])
    return case


def shape_of(case):
    return (case["n"], case["c"], case["h"], case["w"])


def window_of(case):
    return (case["kh"], case["kw"], case["stride"], case["padding"])


class TestKernels:
    @EXAMPLES
    @given(geometry())
    def test_im2col_and_col2im(self, case):
        rng = np.random.default_rng(case["seed"])
        images = values(rng, shape_of(case), case["specials"])
        want, out_h, out_w = conv_nchw.im2col(images, *window_of(case))
        got, got_h, got_w = im2col(case["input_layout"](images), *window_of(case))
        assert (got_h, got_w) == (out_h, out_w)
        assert got.flags.c_contiguous
        assert same_bits(got, want)

        cols = values(rng, want.shape, case["specials"])
        want = conv_nchw.col2im(cols, images.shape, *window_of(case))
        assert same_bits(col2im(cols, images.shape, *window_of(case)), want)
        buffer = np.full(
            (case["n"], case["c"], case["h"] + 2 * case["padding"],
             case["w"] + 2 * case["padding"]),
            7.0,
        )
        got = col2im(cols, images.shape, *window_of(case), padded_out=buffer)
        assert same_bits(got, want)

    @EXAMPLES
    @given(geometry())
    def test_as_rows_is_a_view_of_channels_last_memory(self, case):
        images = values(np.random.default_rng(case["seed"]), shape_of(case))
        want, _, _ = conv_nchw.im2col(images, 1, 1, 1, 0)
        assert same_bits(as_rows(images), want)
        strided = channels_last(images)
        rows = as_rows(strided)
        assert np.shares_memory(rows, strided) and rows.flags.c_contiguous
        assert same_bits(rows, want)


class TestLayers:
    @EXAMPLES
    @given(geometry(), st.integers(1, 5), st.booleans())
    def test_conv2d(self, case, out_channels, warm):
        kernel = (case["kh"], case["kw"])
        layer = Conv2D(
            case["c"], out_channels, kernel, stride=case["stride"],
            padding=case["padding"], seed=case["seed"],
        )
        oracle = conv_nchw.as_oracle(Sequential([layer])).layers[0]
        rng = np.random.default_rng(case["seed"])
        if warm:
            # A longer batch first: the compared pass then runs in the
            # leading slice of scratch sized for that one.
            big = rng.normal(size=(case["n"] + 3, case["c"], case["h"], case["w"]))
            layer.backward(np.ones_like(layer.forward(big, training=True)))
        inputs = values(rng, shape_of(case), case["specials"])
        want = oracle.forward(inputs, training=True)
        got = layer.forward(case["input_layout"](inputs), training=True)
        assert same_bits(got, want)
        grad = values(rng, want.shape, case["specials"])
        want_grad = oracle.backward(grad)
        got_grad = layer.backward(case["grad_layout"](grad))
        assert same_bits(got_grad, want_grad)
        for name in layer.grads:
            assert same_bits(layer.grads[name], oracle.grads[name]), name
        assert same_bits(
            layer.forward(inputs), oracle.forward(inputs, training=False)
        )

    @EXAMPLES
    @given(geometry())
    def test_max_pool(self, case):
        """First-maximum routing, NaN and padding zeros included.

        ``-0.0`` is left out of the *inputs*: every ``MaxPool2D`` the
        builders place follows a ``ReLU`` or a ``Fire``, both of which
        end in ``+ 0.0`` and so emit none, and for a hand-built stack a
        window whose maximum is zero may come out with either sign
        (``np.maximum`` picks); which offset gets the gradient does not
        depend on it. Gradients carry ``-0.0`` freely.
        """
        size = (case["kh"], case["kw"])
        layer = MaxPool2D(size, stride=case["stride"], padding=case["padding"])
        oracle = conv_nchw.MaxPool2D(
            size, stride=case["stride"], padding=case["padding"]
        )
        rng = np.random.default_rng(case["seed"])
        inputs = values(rng, shape_of(case), case["specials"], negative_zero=False)
        want = oracle.forward(inputs, training=True)
        got = layer.forward(case["input_layout"](inputs), training=True)
        assert same_bits(got, want)
        grad = values(rng, want.shape, case["specials"])
        assert same_bits(
            layer.backward(case["grad_layout"](grad)), oracle.backward(grad)
        )
        assert same_bits(layer.forward(inputs), want)

    @EXAMPLES
    @given(geometry())
    def test_relu(self, case):
        rng = np.random.default_rng(case["seed"])
        inputs = values(rng, shape_of(case), (np.nan, np.inf, -np.inf))
        layer, oracle = ReLU(), conv_nchw.ReLU()
        want = oracle.forward(inputs, training=True)
        got = layer.forward(case["input_layout"](inputs), training=True)
        assert same_bits(got, want)
        assert not np.shares_memory(got, inputs)
        grad = values(rng, want.shape, case["specials"])
        assert same_bits(
            layer.backward(case["grad_layout"](grad)), oracle.backward(grad)
        )

    @EXAMPLES
    @given(geometry(), st.integers(1, 3), st.integers(1, 3))
    def test_fire(self, case, squeeze, expand):
        layer = Fire(case["c"], squeeze, expand, seed=case["seed"])
        oracle = conv_nchw.as_oracle(Sequential([layer])).layers[0]
        rng = np.random.default_rng(case["seed"])
        inputs = values(rng, shape_of(case), case["specials"])
        want = oracle.forward(inputs, training=True)
        got = layer.forward(case["input_layout"](inputs), training=True)
        assert same_bits(got, want)
        grad = values(rng, want.shape, case["specials"])
        assert same_bits(
            layer.backward(case["grad_layout"](grad)), oracle.backward(grad)
        )
        for name in layer.grads:
            assert same_bits(layer.grads[name], oracle.grads[name]), name


MODELS = {
    "squeezenet": (build_mini_squeezenet, (3, 8, 8), {}),
    "squeezenet_odd": (build_mini_squeezenet, (2, 7, 5), {}),
    "cnn": (build_cnn, (3, 8, 8), {"batch_norm": False}),
    "cnn_batch_norm": (build_cnn, (3, 8, 8), {"batch_norm": True}),
}
CLASSES = 10


@pytest.fixture(params=[(name, seed) for name in sorted(MODELS) for seed in (0, 5)])
def twins(request):
    """``(model, its oracle twin, input shape, rng)`` for one builder and seed."""
    name, seed = request.param
    build, shape, options = MODELS[name]
    model = build(shape, CLASSES, seed=seed, **options)
    return model, conv_nchw.as_oracle(model), shape, np.random.default_rng(seed)


class TestWholeModel:
    def test_predict_logits(self, twins):
        model, oracle, shape, rng = twins
        inputs = rng.normal(size=(70,) + shape)
        # 32-row chunks then a 6-row one: scratch is handed out by capacity.
        got = model.predict(inputs, batch_size=32)
        assert same_bits(got, oracle.predict(inputs, batch_size=32))
        assert same_bits(model.predict(inputs, batch_size=32), got)

    def test_local_update(self, twins):
        model, oracle, shape, rng = twins
        for samples in (40, 13, 40):
            shard = ArrayDataset(
                rng.normal(size=(samples,) + shape),
                rng.integers(0, CLASSES, size=samples),
            )
            loss = LocalTrainer(learning_rate=0.1, local_steps=2).train(model, shard)
            want = LocalTrainer(learning_rate=0.1, local_steps=2).train(oracle, shard)
            assert repr(loss) == repr(want)
            assert same_bits(model.get_flat_params(), oracle.get_flat_params())


class TestReturnedArraysAreOwned:
    """What ``forward``/``backward`` hand out survives the next call."""

    @pytest.mark.parametrize(
        "layer",
        [
            Conv2D(3, 4, 1, seed=1),
            Conv2D(3, 4, 3, padding=1, seed=1),
            MaxPool2D(2),
            ReLU(),
            Fire(3, 2, 3, seed=1),
        ],
        ids=["conv1x1", "conv3x3", "max_pool", "relu", "fire"],
    )
    def test_outputs_survive_the_next_pass(self, layer):
        rng = np.random.default_rng(2)
        first, second = rng.normal(size=(2, 6, 3, 4, 4))
        out = layer.forward(channels_last(first), training=True)
        grad = layer.backward(np.ones_like(out))
        kept_out, kept_grad = out.copy(), grad.copy()
        other = layer.forward(channels_last(second), training=True)
        layer.backward(np.full_like(other, 2.0))
        assert same_bits(out, kept_out) and same_bits(grad, kept_grad)
        assert not np.shares_memory(out, other)

    def test_a_pointwise_conv_borrows_only_a_channels_last_input(self):
        # The one array a layer keeps that it does not own; see Conv2D.
        layer = Conv2D(3, 4, 1, seed=1)
        inputs = np.random.default_rng(2).normal(size=(6, 3, 4, 4))
        layer.forward(inputs, training=True)
        assert not np.shares_memory(layer._cols, inputs)
        strided = channels_last(inputs)
        layer.forward(strided, training=True)
        assert np.shares_memory(layer._cols, strided)
        layer.forward(strided)
        assert layer._cols is None

    def test_relu_does_not_write_its_input(self):
        inputs = np.array([[-1.0, -0.0, 2.0]])
        kept = inputs.copy()
        ReLU().forward(inputs, training=True)
        assert same_bits(inputs, kept)


class TestScratchCapacity:
    def test_a_shorter_batch_reuses_the_longer_batchs_scratch(self):
        layer = Conv2D(2, 3, 3, padding=1, seed=2)
        rng = np.random.default_rng(3)
        large, small = rng.normal(size=(9, 2, 5, 5)), rng.normal(size=(4, 2, 5, 5))
        layer.backward(np.ones_like(layer.forward(large, training=True)))
        held = dict(layer._scratch)
        fresh = Conv2D(2, 3, 3, padding=1, seed=2)
        for batch in (small, large, small):
            out = layer.forward(batch, training=True)
            want = fresh.forward(batch, training=True)
            assert same_bits(out, want)
            assert same_bits(layer.backward(out), fresh.backward(want))
        assert all(layer._scratch[name] is held[name] for name in held)

    def test_a_longer_batch_other_trailing_dims_or_dtype_reallocate(self):
        layer = Layer()
        held = layer._scratch_buffer("x", (4, 3))
        assert np.shares_memory(layer._scratch_buffer("x", (2, 3)), held)
        assert layer._scratch_buffer("x", (0, 3)).shape == (0, 3)
        grown = layer._scratch_buffer("x", (5, 3))
        assert grown.shape == (5, 3) and not np.shares_memory(grown, held)
        narrow = layer._scratch_buffer("x", (5, 2))
        assert narrow.shape == (5, 2) and not np.shares_memory(narrow, grown)
        assert layer._scratch_buffer("x", (5, 2), np.float32).dtype == np.float32
        assert layer._scratch_buffer("x", (3, 2), np.float32).flags.c_contiguous
