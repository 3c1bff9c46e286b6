"""Tests for input transforms."""

import numpy as np
import pytest

from repro.data.transforms import flatten_images
from repro.errors import DataError


class TestFlatten:
    def test_image_batch(self):
        x = np.zeros((4, 3, 8, 8))
        assert flatten_images(x).shape == (4, 192)

    def test_already_flat(self):
        x = np.zeros((4, 10))
        assert flatten_images(x).shape == (4, 10)

    def test_unbatched_raises(self):
        with pytest.raises(DataError):
            flatten_images(np.zeros(5))
