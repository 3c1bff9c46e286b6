"""Spatial pooling layers for NCHW-shaped inputs in any memory order."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn.conv_utils import conv_output_size, pad_input, zeros_channels_last
from repro.nn.layer import Layer

__all__ = ["MaxPool2D", "GlobalAvgPool2D"]


class MaxPool2D(Layer):
    """Max pooling over spatial windows.

    The input is read through one strided view per window offset, in
    whatever memory order it arrives (no unfolded copy); the output and
    the input gradient are channels-last in memory. A NaN is a window's
    maximum, as ``argmax`` has it; a window whose maximum is zero yields
    whichever of its signed zeros ``np.maximum`` keeps.

    Args:
        pool_size: window size (int or ``(h, w)``).
        stride: window stride; defaults to the window height.
        padding: symmetric zero padding (padded zeros participate in
            the max, matching common framework semantics for
            non-negative activations).
    """

    def __init__(self, pool_size, stride: Optional[int] = None, padding: int = 0):
        super().__init__()
        if isinstance(pool_size, int):
            pool_size = (pool_size, pool_size)
        ph, pw = (int(p) for p in pool_size)
        if ph <= 0 or pw <= 0:
            raise ConfigurationError(f"pool_size must be positive, got ({ph},{pw})")
        if stride is None:
            stride = ph
        if stride <= 0 or padding < 0:
            raise ConfigurationError(
                f"stride must be positive and padding non-negative, got "
                f"stride={stride}, padding={padding}"
            )
        self.pool_h = ph
        self.pool_w = pw
        self.stride = int(stride)
        self.padding = int(padding)
        self._rank: Optional[np.ndarray] = None
        self._input_shape: Optional[Tuple[int, int, int, int]] = None

    def _windows(self, padded: np.ndarray) -> List[np.ndarray]:
        """One view of ``padded`` per window offset, in ``(i, j)`` order."""
        _, _, h, w = padded.shape
        i_end = conv_output_size(h, self.pool_h, self.stride, 0) * self.stride
        j_end = conv_output_size(w, self.pool_w, self.stride, 0) * self.stride
        return [
            padded[:, :, i : i + i_end : self.stride, j : j + j_end : self.stride]
            for i in range(self.pool_h)
            for j in range(self.pool_w)
        ]

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        if inputs.ndim != 4:
            raise ShapeError(f"pooling expects NCHW input, got {inputs.shape}")
        windows = self._windows(pad_input(inputs, self.padding))
        out = windows[0].copy(order="K")
        for window in windows[1:]:
            np.maximum(out, window, out=out)
        if training:
            # rank is positive where an offset holds its window's maximum
            # and highest at the first such offset, the one argmax picks.
            rank = np.zeros_like(out, dtype=np.int16)
            for k, window in enumerate(windows):
                hit = window == out
                hit |= window != window
                np.maximum(rank, hit * np.int16(len(windows) - k), out=rank)
            self._rank = rank
            self._input_shape = inputs.shape
        else:
            # Inference invalidates the training cache so a stale
            # backward raises instead of routing gradients through an
            # earlier batch's maxima.
            self._rank = None
            self._input_shape = None
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._rank is None or self._input_shape is None:
            raise RuntimeError("backward called before forward(training=True)")
        n, c, h, w = self._input_shape
        pad = self.padding
        padded = zeros_channels_last((n, c, h + 2 * pad, w + 2 * pad))
        # Scatter-add in (i, j) order: the col2im of a one-hot cols matrix.
        for k, target in enumerate(self._windows(padded)):
            first = self._rank == self.pool_h * self.pool_w - k
            target += np.where(first, grad_output, 0.0)
        return padded[:, :, pad : pad + h, pad : pad + w]


class GlobalAvgPool2D(Layer):
    """Global average pooling: ``(n, c, h, w) -> (n, c)``.

    SqueezeNet replaces its final dense classifier with a 1x1
    convolution followed by this layer.
    """

    def __init__(self) -> None:
        super().__init__()
        self._input_shape: Optional[Tuple[int, int, int, int]] = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        if inputs.ndim != 4:
            raise ShapeError(
                f"GlobalAvgPool2D expects NCHW input, got {inputs.shape}"
            )
        # Inference invalidates the cache (stale backward must raise).
        self._input_shape = inputs.shape if training else None
        # A mean over a strided view may sum in another order: reduce the
        # C-contiguous NCHW operand whatever memory order arrives.
        return np.ascontiguousarray(inputs).mean(axis=(2, 3))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward called before forward(training=True)")
        n, c, h, w = self._input_shape
        scale = 1.0 / float(h * w)
        return np.broadcast_to(
            grad_output.reshape(n, c, 1, 1) * scale, (n, c, h, w)
        ).copy()
