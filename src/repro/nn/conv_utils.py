"""im2col / col2im kernels backing the convolution and pooling layers.

Every image batch has NCHW *shape* ``(batch, channels, height, width)``;
its *memory* may be in any order, and the arrays built here are
channels-last (NHWC memory behind the NCHW shape), the order in which a
receptive field, a GEMM row and a pooling window are contiguous runs of
channels. ``im2col`` unfolds every receptive field into a row so that
convolution becomes a single matrix multiplication; ``col2im`` is its
exact adjoint (scatter-add), which is what the backward pass needs.
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np

from repro.errors import ShapeError

__all__ = [
    "conv_output_size",
    "im2col",
    "col2im",
    "pad_input",
    "as_rows",
    "zeros_channels_last",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Return the output spatial size of a conv/pool along one axis.

    Args:
        size: input size along the axis.
        kernel: kernel size along the axis.
        stride: stride along the axis.
        padding: symmetric zero padding along the axis.

    Raises:
        ShapeError: if the kernel (after padding) does not fit.
    """
    padded = size + 2 * padding
    if kernel > padded:
        raise ShapeError(
            f"kernel {kernel} larger than padded input {padded} "
            f"(size={size}, padding={padding})"
        )
    return (padded - kernel) // stride + 1


def zeros_channels_last(
    shape: Tuple[int, int, int, int], dtype=np.float64
) -> np.ndarray:
    """Zeros of NCHW ``shape`` laid out channels-last in memory."""
    n, c, h, w = shape
    return np.zeros((n, h, w, c), dtype=dtype).transpose(0, 3, 1, 2)


@functools.lru_cache(maxsize=64)
def _field_offsets(
    c: int, h: int, w: int, kernel_h: int, kernel_w: int, stride: int
) -> np.ndarray:
    """Offsets into one ``(h, w, c)`` image of every receptive field.

    Flat, in ``(out_h, out_w, c, kernel_h, kernel_w)`` order: the layout
    of one image's block of ``im2col`` rows. Cached per geometry and
    shared, hence read-only.
    """
    tops = stride * np.arange(conv_output_size(h, kernel_h, stride, 0))
    lefts = stride * np.arange(conv_output_size(w, kernel_w, stride, 0))
    rows = tops[:, None, None, None, None] + np.arange(kernel_h)[:, None]
    cols = lefts[:, None, None, None] + np.arange(kernel_w)
    offsets = ((rows * w + cols) * c + np.arange(c)[:, None, None]).ravel()
    offsets.setflags(write=False)
    return offsets


def as_rows(images: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """Return an NCHW batch as the C-contiguous matrix ``(n * h * w, c)``.

    This is ``im2col`` for a 1x1 kernel and the layout every GEMM of the
    conv stack takes. A batch whose memory is already channels-last
    comes back as a view of it (no copy); any other batch is copied into
    ``out`` (allocated when not given).
    """
    n, c, h, w = images.shape
    pixels = images.transpose(0, 2, 3, 1)
    if pixels.flags.c_contiguous:
        return pixels.reshape(n * h * w, c)
    if out is None:
        out = np.empty((n * h * w, c), dtype=images.dtype)
    np.copyto(out.reshape(n, h, w, c), pixels)
    return out


def pad_input(images: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the two spatial axes of an NCHW batch symmetrically.

    The padded copy is channels-last in memory, whatever ``images`` is.
    """
    if padding == 0:
        return images
    n, c, h, w = images.shape
    padded = zeros_channels_last(
        (n, c, h + 2 * padding, w + 2 * padding), images.dtype
    )
    padded[:, :, padding : padding + h, padding : padding + w] = images
    return padded


def im2col(
    images: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
    out: np.ndarray = None,
) -> Tuple[np.ndarray, int, int]:
    """Unfold receptive fields of an NCHW batch into a 2-D matrix.

    Args:
        images: input of shape ``(n, c, h, w)``, in any memory order
            (channels-last is gathered fastest).
        kernel_h: kernel height.
        kernel_w: kernel width.
        stride: spatial stride (same for both axes).
        padding: symmetric zero padding (same for both axes).
        out: optional preallocated destination of shape
            ``(n * out_h * out_w, c * kernel_h * kernel_w)`` and the
            input dtype (C-contiguous); when given it is filled in
            place and returned, so the hot loop allocates nothing.

    Returns:
        A tuple ``(cols, out_h, out_w)`` where ``cols`` has shape
        ``(n * out_h * out_w, c * kernel_h * kernel_w)`` and each row is
        one receptive field in channel-major ``(c, kernel_h, kernel_w)``
        order, whatever the memory order of ``images``.
    """
    if images.ndim != 4:
        raise ShapeError(f"im2col expects NCHW input, got shape {images.shape}")
    n, c, h, w = images.shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    shape = (n * out_h * out_w, c * kernel_h * kernel_w)
    if out is None:
        out = np.empty(shape, dtype=images.dtype)
    elif out.shape != shape or out.dtype != images.dtype or not out.flags.c_contiguous:
        raise ShapeError(
            f"im2col out buffer must be C-contiguous {shape} "
            f"{images.dtype}, got {out.shape} {out.dtype}"
        )
    # One gather per image through a table of offsets into its padded
    # channels-last memory; "clip" only skips the bounds pre-pass.
    padded_h, padded_w = h + 2 * padding, w + 2 * padding
    index = _field_offsets(c, padded_h, padded_w, kernel_h, kernel_w, stride)
    np.take(
        as_rows(pad_input(images, padding)).reshape(n, padded_h * padded_w * c),
        index,
        axis=1,
        out=out.reshape(n, index.size),
        mode="clip",
    )
    return out, out_h, out_w


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
    padded_out: np.ndarray = None,
) -> np.ndarray:
    """Scatter-add column gradients back to image space (im2col adjoint).

    Args:
        cols: matrix of shape ``(n * out_h * out_w, c * kh * kw)`` as
            produced by :func:`im2col` (typically a gradient).
        input_shape: original NCHW input shape.
        kernel_h: kernel height.
        kernel_w: kernel width.
        stride: spatial stride.
        padding: symmetric zero padding.
        padded_out: optional preallocated accumulator of shape
            ``(n, c, h + 2 * padding, w + 2 * padding)`` and the input
            dtype, zeroed and accumulated into in place. The returned
            array is then a view into it, valid until the next call
            that reuses the buffer.

    Returns:
        An array with ``input_shape`` holding the accumulated gradient:
        the interior of ``padded_out``, or of a fresh channels-last
        accumulator the caller then owns. Kernel offsets are added in
        ``(i, j)`` order whatever the memory order.
    """
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    expected_rows = n * out_h * out_w
    expected_cols = c * kernel_h * kernel_w
    if cols.shape != (expected_rows, expected_cols):
        raise ShapeError(
            f"col2im expected cols of shape {(expected_rows, expected_cols)}, "
            f"got {cols.shape}"
        )
    grads = cols.reshape(n, out_h, out_w, c, kernel_h, kernel_w).transpose(
        0, 3, 4, 5, 1, 2
    )  # (n, c, kh, kw, out_h, out_w)
    padded_shape = (n, c, h + 2 * padding, w + 2 * padding)
    if padded_out is None:
        padded = zeros_channels_last(padded_shape, cols.dtype)
    else:
        if padded_out.shape != padded_shape or padded_out.dtype != cols.dtype:
            raise ShapeError(
                f"col2im padded_out buffer must be {padded_shape} "
                f"{cols.dtype}, got {padded_out.shape} {padded_out.dtype}"
            )
        padded = padded_out
        padded[...] = 0.0
    for i in range(kernel_h):
        i_end = i + stride * out_h
        for j in range(kernel_w):
            j_end = j + stride * out_w
            padded[:, :, i:i_end:stride, j:j_end:stride] += grads[:, :, i, j]
    if padding == 0:
        return padded
    return padded[:, :, padding : padding + h, padding : padding + w]
