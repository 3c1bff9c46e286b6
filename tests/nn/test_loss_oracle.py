"""The label-entry softmax cross-entropy and the in-place ReLU, bit for bit.

``SoftmaxCrossEntropy`` and the stacked kernel read only each row's
label probability and subtract ``1.0`` there alone; the kernel's ReLU is
``rectify`` in place with the mask taken after. ``tests/oracles/
onehot_loss.py`` holds the one-hot and ``np.where`` forms they replaced.
Every comparison is on ``int64`` views, so a NaN payload or the sign of
a zero that differs fails the test; the one exception is the sign of a
NaN loss from a row whose probabilities are NaNs of both signs, which
the one-hot row sum took from the row's first entry. Logits are drawn from NaN, ±inf,
±1e308, ±0.0, subnormals, ±745 (where ``exp`` underflows) and normal
values, over shapes with one class and with one row.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn.activations import rectify
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.stacked import _softmax_cross_entropy
from tests.oracles import onehot_loss

SPECIAL = [
    np.nan,
    -np.nan,
    np.inf,
    -np.inf,
    1e308,
    -1e308,
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    1e-310,
    -1e-310,
    745.0,
    -745.0,
]
VALUES = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(-50.0, 50.0, allow_nan=False),
)
EXAMPLES = settings(max_examples=300, deadline=None)

# NaN, inf and overflow are the inputs under test, not accidents.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


def assert_same_loss(got, want, probs):
    """Equal bits, but for the sign of a NaN from a mixed-sign NaN row.

    The one-hot row sum kept the first NaN of the row, the label-entry
    form keeps the label's: the two differ only when ``probs`` holds
    NaNs of both signs.
    """
    if np.isnan(want) and len(np.unique(bits(probs[np.isnan(probs)]))) > 1:
        assert np.isnan(got)
    else:
        assert bits(got) == bits(want)


@st.composite
def batches(draw, lead=()):
    """``(logits, labels)``: logits ``lead + (n, c)``, labels ``lead + (n,)``."""
    samples = draw(st.integers(1, 5))
    classes = draw(st.integers(1, 5))
    logits = draw(arrays(np.float64, lead + (samples, classes), elements=VALUES))
    labels = draw(
        arrays(np.int64, lead + (samples,), elements=st.integers(0, classes - 1))
    )
    return logits, labels


@st.composite
def stacked_batches(draw):
    return draw(batches(lead=(draw(st.integers(1, 3)),)))


class TestPerRowLoss:
    @given(batch=batches())
    @EXAMPLES
    def test_loss_and_grad_equal_the_onehot_form(self, batch):
        logits, labels = batch
        want_value, want_grad = onehot_loss.SoftmaxCrossEntropy().loss_and_grad(
            logits, labels
        )
        value, grad = SoftmaxCrossEntropy().loss_and_grad(logits, labels)
        probs = onehot_loss.SoftmaxCrossEntropy._softmax(logits)
        assert_same_loss(value, want_value, probs)
        assert_same_loss(SoftmaxCrossEntropy().loss(logits, labels), want_value, probs)
        assert np.array_equal(bits(grad), bits(want_grad))

    @pytest.mark.parametrize("label", [0, 1])
    def test_mixed_sign_nan_row_keeps_the_label_nan(self, label):
        # ``-nan`` is the NaN with the sign bit set. The loss negates the
        # label's log-probability, so its NaN is the label logit's with
        # the sign flipped; the one-hot row sum kept the first logit's.
        logits = np.array([[np.nan, -np.nan]])
        value, grad = SoftmaxCrossEntropy().loss_and_grad(logits, np.array([label]))
        want_value, want_grad = onehot_loss.SoftmaxCrossEntropy().loss_and_grad(
            logits, np.array([label])
        )
        assert bits(value) == bits(-logits[0, label])
        assert bits(want_value) == bits(-logits[0, 0])
        assert np.array_equal(bits(grad), bits(want_grad))

    def test_one_class_loss_is_negative_zero(self):
        # Every probability is 1: the loss is -(mean of +0.0) both ways.
        logits = np.array([[3.0], [-1.0]])
        value, grad = SoftmaxCrossEntropy().loss_and_grad(logits, np.zeros(2, int))
        assert bits(value) == bits(-0.0)
        assert np.array_equal(bits(grad), bits(np.zeros((2, 1))))

    def test_unsigned_labels_equal_int64_labels(self):
        logits = np.random.default_rng(3).normal(size=(6, 4))
        labels = np.array([0, 3, 1, 2, 3, 0])
        loss = SoftmaxCrossEntropy()
        value, grad = loss.loss_and_grad(logits, labels)
        value8, grad8 = loss.loss_and_grad(logits, labels.astype(np.uint8))
        assert bits(value8) == bits(value)
        assert np.array_equal(bits(grad8), bits(grad))


class TestStackedLoss:
    @given(batch=stacked_batches())
    @EXAMPLES
    def test_loss_and_grad_equal_the_onehot_form(self, batch):
        logits, labels = batch
        want_losses, want_grad = onehot_loss.stacked_softmax_cross_entropy(
            logits.copy(), labels
        )
        clients, samples = labels.shape
        hot = (np.arange(clients)[:, None], np.arange(samples)[None, :], labels)
        losses, grad = _softmax_cross_entropy(logits, hot)
        for client in range(clients):
            assert_same_loss(
                losses[client],
                want_losses[client],
                onehot_loss.SoftmaxCrossEntropy._softmax(logits[client]),
            )
        assert np.array_equal(bits(grad), bits(want_grad))

    @given(batch=stacked_batches())
    @EXAMPLES
    def test_each_client_equals_the_per_row_loss(self, batch):
        logits, labels = batch
        clients, samples = labels.shape
        hot = (np.arange(clients)[:, None], np.arange(samples)[None, :], labels)
        losses, grad = _softmax_cross_entropy(logits, hot)
        for client in range(clients):
            value, row_grad = SoftmaxCrossEntropy().loss_and_grad(
                logits[client], labels[client]
            )
            assert bits(losses[client]) == bits(value)
            assert np.array_equal(bits(grad[client]), bits(row_grad))


class TestInPlaceReLU:
    @given(
        activation=arrays(
            np.float64,
            st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 5)),
            elements=VALUES,
        ),
        data=st.data(),
    )
    @EXAMPLES
    def test_forward_and_backward_equal_the_where_form(self, activation, data):
        want, want_mask = onehot_loss.where_relu(activation)
        out = activation.copy()
        out = rectify(out, out=out)
        mask = out > 0
        assert np.array_equal(bits(out), bits(want))
        assert np.array_equal(mask, want_mask)

        grad = data.draw(arrays(np.float64, activation.shape, elements=VALUES))
        want_grad = onehot_loss.where_relu_backward(grad, want_mask)
        grad *= mask
        assert np.array_equal(bits(grad), bits(want_grad))
