"""Tests for classification metrics."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn.metrics import accuracy


class TestAccuracy:
    def test_from_predictions(self):
        assert accuracy(np.array([0, 1, 2]), np.array([0, 1, 1])) == pytest.approx(
            2 / 3
        )

    def test_from_logits(self):
        logits = np.array([[0.1, 0.9], [0.8, 0.2]])
        assert accuracy(logits, np.array([1, 0])) == 1.0

    def test_empty_is_zero(self):
        assert accuracy(np.zeros((0, 3)), np.zeros(0, dtype=int)) == 0.0

    def test_mismatch_raises(self):
        with pytest.raises(ShapeError):
            accuracy(np.array([0, 1]), np.array([0]))
