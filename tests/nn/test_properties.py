"""Property-based tests (hypothesis) for the nn substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn.activations import ReLU
from repro.nn.architectures import build_mlp
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.metrics import accuracy

finite_floats = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


def logits_and_labels(draw, max_batch=8, max_classes=6):
    batch = draw(st.integers(1, max_batch))
    classes = draw(st.integers(2, max_classes))
    logits = draw(
        arrays(np.float64, (batch, classes), elements=finite_floats)
    )
    labels = draw(
        arrays(np.int64, (batch,), elements=st.integers(0, classes - 1))
    )
    return logits, labels


@st.composite
def _logits_labels(draw):
    return logits_and_labels(draw)


class TestSoftmaxProperties:
    @given(_logits_labels())
    @settings(max_examples=50, deadline=None)
    def test_loss_non_negative(self, data):
        logits, labels = data
        loss = SoftmaxCrossEntropy().loss(logits, labels)
        assert loss >= -1e-12

    @given(_logits_labels(), st.floats(min_value=-20, max_value=20))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, data, shift):
        logits, labels = data
        loss = SoftmaxCrossEntropy()
        a = loss.loss(logits, labels)
        b = loss.loss(logits + shift, labels)
        assert abs(a - b) < 1e-8 * max(1.0, abs(a))

    @given(_logits_labels())
    @settings(max_examples=50, deadline=None)
    def test_gradient_rows_sum_to_zero(self, data):
        logits, labels = data
        _, grad = SoftmaxCrossEntropy().loss_and_grad(logits, labels)
        assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-10)


class TestReluProperties:
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 5), st.integers(1, 5)),
            elements=finite_floats,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_idempotent(self, x):
        relu = ReLU()
        once = relu.forward(x)
        twice = relu.forward(once)
        assert np.array_equal(once, twice)

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 5), st.integers(1, 5)),
            elements=finite_floats,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_non_negative_output(self, x):
        assert np.all(ReLU().forward(x) >= 0)


class TestFlatParamProperties:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 16))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_any_seed(self, seed, width):
        model = build_mlp(5, 3, hidden_sizes=(width,), seed=seed)
        flat = model.get_flat_params()
        model.set_flat_params(flat)
        assert np.array_equal(model.get_flat_params(), flat)

    @given(
        st.integers(0, 2**32 - 1),
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_scaling_flat_scales_output_of_linear_model(self, seed, scale):
        # A single Dense layer is linear in its parameters, W and b
        # together.
        from repro.nn.dense import Dense
        from repro.nn.model import Sequential

        model = Sequential([Dense(4, 3, seed=seed)])
        x = np.random.default_rng(0).normal(size=(3, 4))
        base = model.forward(x)
        model.set_flat_params(model.get_flat_params() * scale)
        scaled = model.forward(x)
        assert np.allclose(scaled, base * scale, atol=1e-9)


class TestAccuracyProperties:
    @given(_logits_labels())
    @settings(max_examples=50, deadline=None)
    def test_accuracy_in_unit_interval(self, data):
        logits, labels = data
        value = accuracy(logits, labels)
        assert 0.0 <= value <= 1.0

    @given(
        arrays(np.int64, st.integers(1, 20), elements=st.integers(0, 5))
    )
    @settings(max_examples=50, deadline=None)
    def test_perfect_predictions_give_one(self, labels):
        assert accuracy(labels, labels.copy()) == 1.0
