"""Tests for loss functions."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn.losses import SoftmaxCrossEntropy
from tests.nn.gradcheck import MeanSquaredError, numeric_gradient, relative_error


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_classes(self):
        loss = SoftmaxCrossEntropy()
        logits = np.zeros((4, 10))
        labels = np.array([0, 3, 7, 9])
        value = loss.loss(logits, labels)
        assert abs(value - np.log(10)) < 1e-12

    def test_perfect_prediction_near_zero(self):
        loss = SoftmaxCrossEntropy()
        logits = np.full((2, 3), -100.0)
        logits[0, 1] = 100.0
        logits[1, 2] = 100.0
        assert loss.loss(logits, np.array([1, 2])) < 1e-9

    def test_gradient_numeric(self):
        loss = SoftmaxCrossEntropy()
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(5, 7))
        labels = rng.integers(0, 7, size=5)
        _, analytic = loss.loss_and_grad(logits, labels)
        numeric = numeric_gradient(
            lambda z: loss.loss(z, labels), logits.copy()
        )
        assert relative_error(analytic, numeric) < 1e-6

    def test_gradient_rows_sum_to_zero(self):
        loss = SoftmaxCrossEntropy()
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        _, grad = loss.loss_and_grad(logits, labels)
        assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_extreme_logits_stable(self):
        loss = SoftmaxCrossEntropy()
        logits = np.array([[1e4, -1e4], [-1e4, 1e4]])
        value, grad = loss.loss_and_grad(logits, np.array([0, 1]))
        assert np.isfinite(value)
        assert np.isfinite(grad).all()

    def test_bad_shapes_raise(self):
        loss = SoftmaxCrossEntropy()
        with pytest.raises(ShapeError):
            loss.loss_and_grad(np.zeros((2, 3, 1)), np.array([0, 1]))
        with pytest.raises(ShapeError):
            loss.loss_and_grad(np.zeros((2, 3)), np.array([0]))

    @pytest.mark.parametrize(
        "labels",
        [np.array([0.9, 2.5]), np.array([0.0, 2.0]), np.array([True, False])],
        ids=["fractional", "integral-float", "bool"],
    )
    def test_non_integer_labels_raise(self, labels):
        # Cast to int, a float label would be truncated (0.9 read as
        # class 0) and a bool read as class 1 or 0.
        loss = SoftmaxCrossEntropy()
        with pytest.raises(ShapeError, match="integer"):
            loss.loss(np.zeros((2, 3)), labels)
        with pytest.raises(ShapeError, match="integer"):
            loss.loss_and_grad(np.zeros((2, 3)), labels)

    def test_out_of_range_labels_raise(self):
        loss = SoftmaxCrossEntropy()
        with pytest.raises(ShapeError):
            loss.loss_and_grad(np.zeros((2, 3)), np.array([0, 3]))
        with pytest.raises(ShapeError):
            loss.loss_and_grad(np.zeros((2, 3)), np.array([-1, 0]))


LOGIT_SHAPES = [(1, 2), (3, 5), (4, 3), (8, 10)]


class TestSoftmaxCrossEntropyShapes:
    @pytest.mark.parametrize("batch,classes", LOGIT_SHAPES)
    def test_gradient_numeric(self, batch, classes):
        loss = SoftmaxCrossEntropy()
        rng = np.random.default_rng(batch * classes)
        logits = rng.normal(size=(batch, classes))
        labels = rng.integers(0, classes, size=batch)
        _, analytic = loss.loss_and_grad(logits, labels)
        numeric = numeric_gradient(lambda z: loss.loss(z, labels), logits.copy())
        assert relative_error(analytic, numeric) < 1e-6

    @pytest.mark.parametrize("batch,classes", LOGIT_SHAPES)
    def test_row_shift_invariant(self, batch, classes):
        loss = SoftmaxCrossEntropy()
        rng = np.random.default_rng(batch + classes)
        logits = rng.normal(size=(batch, classes))
        labels = rng.integers(0, classes, size=batch)
        shift = rng.normal(scale=50.0, size=(batch, 1))
        value, grad = loss.loss_and_grad(logits, labels)
        shifted_value, shifted_grad = loss.loss_and_grad(logits + shift, labels)
        assert abs(value - shifted_value) < 1e-9
        assert np.allclose(grad, shifted_grad, rtol=0.0, atol=1e-12)


class TestMeanSquaredError:
    def test_zero_for_equal(self):
        loss = MeanSquaredError()
        x = np.random.default_rng(3).normal(size=(3, 3))
        assert loss.loss(x, x.copy()) == 0.0

    def test_known_value(self):
        loss = MeanSquaredError()
        assert loss.loss(np.array([[2.0]]), np.array([[0.0]])) == 4.0

    def test_gradient_numeric(self):
        loss = MeanSquaredError()
        rng = np.random.default_rng(4)
        outputs = rng.normal(size=(4, 6))
        targets = rng.normal(size=(4, 6))
        _, analytic = loss.loss_and_grad(outputs, targets)
        numeric = numeric_gradient(
            lambda z: loss.loss(z, targets), outputs.copy()
        )
        assert relative_error(analytic, numeric) < 1e-7

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            MeanSquaredError().loss_and_grad(np.zeros((2, 2)), np.zeros((2, 3)))
