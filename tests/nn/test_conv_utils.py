"""Tests for im2col / col2im kernels."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn.conv_utils import col2im, conv_output_size, im2col, pad_input


class TestConvOutputSize:
    def test_basic(self):
        assert conv_output_size(8, 3, 1, 0) == 6

    def test_with_padding(self):
        assert conv_output_size(8, 3, 1, 1) == 8

    def test_with_stride(self):
        assert conv_output_size(8, 2, 2, 0) == 4

    def test_kernel_too_large_raises(self):
        with pytest.raises(ShapeError):
            conv_output_size(2, 5, 1, 0)


class TestPadInput:
    def test_zero_padding_identity(self):
        x = np.ones((1, 1, 2, 2))
        assert pad_input(x, 0) is x

    def test_padding_shape(self):
        x = np.ones((2, 3, 4, 5))
        assert pad_input(x, 2).shape == (2, 3, 8, 9)

    def test_padding_values_zero(self):
        x = np.ones((1, 1, 2, 2))
        padded = pad_input(x, 1)
        assert padded[0, 0, 0, 0] == 0.0
        assert padded[0, 0, 1, 1] == 1.0


class TestIm2Col:
    def test_shape(self):
        x = np.arange(2 * 3 * 5 * 5, dtype=float).reshape(2, 3, 5, 5)
        cols, out_h, out_w = im2col(x, 3, 3, 1, 0)
        assert (out_h, out_w) == (3, 3)
        assert cols.shape == (2 * 9, 3 * 9)

    def test_values_single_window(self):
        x = np.arange(9, dtype=float).reshape(1, 1, 3, 3)
        cols, out_h, out_w = im2col(x, 3, 3, 1, 0)
        assert (out_h, out_w) == (1, 1)
        assert np.array_equal(cols[0], np.arange(9, dtype=float))

    def test_stride_two(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        cols, out_h, out_w = im2col(x, 2, 2, 2, 0)
        assert (out_h, out_w) == (2, 2)
        assert np.array_equal(cols[0], [0, 1, 4, 5])
        assert np.array_equal(cols[3], [10, 11, 14, 15])

    def test_non_4d_raises(self):
        with pytest.raises(ShapeError):
            im2col(np.zeros((2, 3, 4)), 2, 2, 1, 0)

    def test_matches_manual_convolution(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 2, 4, 4))
        kernel = rng.normal(size=(1, 2, 3, 3))
        cols, out_h, out_w = im2col(x, 3, 3, 1, 0)
        out = (cols @ kernel.reshape(1, -1).T).reshape(1, out_h, out_w, 1)
        manual = np.zeros((out_h, out_w))
        for i in range(out_h):
            for j in range(out_w):
                manual[i, j] = np.sum(x[0, :, i : i + 3, j : j + 3] * kernel[0])
        assert np.allclose(out[0, :, :, 0], manual)


class TestCol2Im:
    def test_adjoint_property(self):
        """<im2col(x), y> == <x, col2im(y)> — exact adjointness."""
        rng = np.random.default_rng(1)
        shape = (2, 3, 5, 5)
        x = rng.normal(size=shape)
        cols, out_h, out_w = im2col(x, 3, 3, 2, 1)
        y = rng.normal(size=cols.shape)
        lhs = float(np.sum(cols * y))
        back = col2im(y, shape, 3, 3, 2, 1)
        rhs = float(np.sum(x * back))
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))

    def test_overlap_accumulates(self):
        # Stride-1 3x3 windows over 3x3 input with padding 1: the center
        # pixel appears in all 9 windows.
        shape = (1, 1, 3, 3)
        cols = np.ones((9, 9))
        image = col2im(cols, shape, 3, 3, 1, 1)
        assert image[0, 0, 1, 1] == 9.0

    def test_wrong_shape_raises(self):
        # Correct shape would be (1*2*2, 1*2*2) = (4, 4).
        with pytest.raises(ShapeError):
            col2im(np.zeros((3, 4)), (1, 1, 3, 3), 2, 2, 1, 0)


# Every kernel shape, stride and padding the conv stack can be built
# with, over an input whose height and width differ.
GEOMETRIES = [
    (kernel, stride, padding)
    for kernel in [(1, 1), (2, 2), (3, 3), (1, 3), (3, 2)]
    for stride in [1, 2]
    for padding in [0, 1]
]
GEOMETRY_IDS = [f"k{kh}x{kw}-s{s}-p{p}" for (kh, kw), s, p in GEOMETRIES]
INPUT_SHAPE = (2, 3, 5, 6)


def loop_fields(x, kh, kw, stride, padding):
    """Every receptive field, one row each, by explicit loops."""
    n, c, h, w = x.shape
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    padded[:, :, padding : padding + h, padding : padding + w] = x
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    rows = []
    for b in range(n):
        for i in range(out_h):
            for j in range(out_w):
                top, left = i * stride, j * stride
                rows.append(padded[b, :, top : top + kh, left : left + kw].ravel())
    return np.array(rows), out_h, out_w


def loop_scatter(cols, shape, kh, kw, stride, padding):
    """Add every row of ``cols`` back onto its receptive field."""
    n, c, h, w = shape
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    row = 0
    for b in range(n):
        for i in range(out_h):
            for j in range(out_w):
                top, left = i * stride, j * stride
                padded[b, :, top : top + kh, left : left + kw] += cols[row].reshape(
                    c, kh, kw
                )
                row += 1
    return padded[:, :, padding : padding + h, padding : padding + w]


class TestGeometryGrid:
    @pytest.mark.parametrize("layout", ["nchw", "channels_last"])
    @pytest.mark.parametrize("kernel,stride,padding", GEOMETRIES, ids=GEOMETRY_IDS)
    def test_im2col_matches_loop_gather(self, kernel, stride, padding, layout):
        x = np.random.default_rng(0).normal(size=INPUT_SHAPE)
        if layout == "channels_last":
            x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        kh, kw = kernel
        cols, out_h, out_w = im2col(x, kh, kw, stride, padding)
        expected, exp_h, exp_w = loop_fields(x, kh, kw, stride, padding)
        assert (out_h, out_w) == (exp_h, exp_w)
        assert np.array_equal(cols, expected)

    @pytest.mark.parametrize("kernel,stride,padding", GEOMETRIES, ids=GEOMETRY_IDS)
    def test_col2im_matches_loop_scatter(self, kernel, stride, padding):
        kh, kw = kernel
        _, out_h, out_w = im2col(np.zeros(INPUT_SHAPE), kh, kw, stride, padding)
        rows = INPUT_SHAPE[0] * out_h * out_w
        cols = np.random.default_rng(1).normal(size=(rows, INPUT_SHAPE[1] * kh * kw))
        image = col2im(cols, INPUT_SHAPE, kh, kw, stride, padding)
        expected = loop_scatter(cols, INPUT_SHAPE, kh, kw, stride, padding)
        assert image.shape == INPUT_SHAPE
        assert np.allclose(image, expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("kernel,stride,padding", GEOMETRIES, ids=GEOMETRY_IDS)
    def test_adjoint(self, kernel, stride, padding):
        rng = np.random.default_rng(2)
        kh, kw = kernel
        x = rng.normal(size=INPUT_SHAPE)
        cols, _, _ = im2col(x, kh, kw, stride, padding)
        y = rng.normal(size=cols.shape)
        lhs = float(np.sum(cols * y))
        rhs = float(np.sum(x * col2im(y, INPUT_SHAPE, kh, kw, stride, padding)))
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))
