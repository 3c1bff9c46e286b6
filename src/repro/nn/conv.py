"""2-D convolution layer (NCHW shapes, channels-last memory, im2col-based)."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn.conv_utils import as_rows, col2im, conv_output_size, im2col
from repro.nn.initializers import he_normal, zeros_init
from repro.nn.layer import Layer
from repro.rng import SeedLike, ensure_generator

__all__ = ["Conv2D"]


class Conv2D(Layer):
    """2-D convolution over NCHW inputs.

    The kernel has shape ``(out_channels, in_channels, kh, kw)`` and
    starts He normal; the per-filter bias ``b`` starts at zero.
    Forward computes ``im2col(x) @ W_flat + b`` so both passes reduce to
    dense matrix algebra. Inputs may be in any memory order; the output
    and the input gradient are fresh arrays of NCHW shape over
    channels-last memory (the GEMM result itself, not a channel-major
    copy of it). A 1x1, stride-1, unpadded convolution takes such an
    input as its ``cols`` without a copy and, after
    ``forward(training=True)``, keeps that view until ``backward``: the
    caller must not overwrite the input in between.

    Args:
        in_channels: number of input channels.
        out_channels: number of output channels (filters).
        kernel_size: square kernel size, or ``(kh, kw)`` tuple.
        stride: spatial stride.
        padding: symmetric zero padding.
        seed: seed or generator for the initializer.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size,
        stride: int = 1,
        padding: int = 0,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        if isinstance(kernel_size, int):
            kernel_size = (kernel_size, kernel_size)
        kh, kw = (int(k) for k in kernel_size)
        if in_channels <= 0 or out_channels <= 0 or kh <= 0 or kw <= 0:
            raise ConfigurationError(
                "channels and kernel dims must be positive, got "
                f"in={in_channels}, out={out_channels}, kernel=({kh},{kw})"
            )
        if stride <= 0 or padding < 0:
            raise ConfigurationError(
                f"stride must be positive and padding non-negative, got "
                f"stride={stride}, padding={padding}"
            )
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_h = kh
        self.kernel_w = kw
        self.stride = int(stride)
        self.padding = int(padding)
        rng = ensure_generator(seed)
        self._register(
            "W", he_normal((self.out_channels, self.in_channels, kh, kw), rng)
        )
        self._register("b", zeros_init((self.out_channels,), rng))
        # 1x1, stride 1, unpadded: im2col and col2im are reshapes.
        self._pointwise = (kh, kw, self.stride, self.padding) == (1, 1, 1, 0)
        self._cols: Optional[np.ndarray] = None
        self._input_shape: Optional[Tuple[int, int, int, int]] = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        if inputs.ndim != 4 or inputs.shape[1] != self.in_channels:
            raise ShapeError(
                f"Conv2D expected (batch, {self.in_channels}, h, w), got "
                f"{inputs.shape}"
            )
        n, _, in_h, in_w = inputs.shape
        out_h = conv_output_size(in_h, self.kernel_h, self.stride, self.padding)
        out_w = conv_output_size(in_w, self.kernel_w, self.stride, self.padding)
        rows = n * out_h * out_w
        window = self.in_channels * self.kernel_h * self.kernel_w
        if self._pointwise:
            # A pixel's channels are its whole receptive field: the
            # input's channels-last memory already is the cols matrix.
            cols = as_rows(inputs)
        else:
            cols, _, _ = im2col(
                inputs,
                self.kernel_h,
                self.kernel_w,
                self.stride,
                self.padding,
                out=self._scratch_buffer("cols", (rows, window), inputs.dtype),
            )
        w_flat = self.params["W"].reshape(self.out_channels, -1)
        # The GEMM result is a fresh array the caller owns: its rows are
        # pixels, so it is the channels-last memory of the output.
        out = np.matmul(cols, w_flat.T, out=np.empty((rows, self.out_channels)))
        out += self.params["b"]
        if training:
            # Same-step cache: cols is the "cols" scratch (k x k) or the
            # caller's own input (1x1), backward() consumes it before
            # the next forward() can overwrite the scratch, and the
            # inference branch below clears it.
            self._cols = cols  # repro: allow[REP008] same-step cache, see above
            self._input_shape = inputs.shape
        else:
            # Inference must not leave a stale training cache behind:
            # a later backward() would silently differentiate an older
            # batch instead of raising.
            self._cols = None
            self._input_shape = None
        return out.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)

    def cols_per_image(self, input_shape: Tuple[int, ...]) -> int:
        """Entries of the ``cols`` rows ``forward`` builds per input image
        (for a 1x1 convolution, the image itself)."""
        _, _, in_h, in_w = input_shape
        out_h = conv_output_size(in_h, self.kernel_h, self.stride, self.padding)
        out_w = conv_output_size(in_w, self.kernel_w, self.stride, self.padding)
        return out_h * out_w * self.in_channels * self.kernel_h * self.kernel_w

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return self._backward(grad_output, input_grad=True)

    def backward_params(self, grad_output: np.ndarray) -> None:
        self._backward(grad_output, input_grad=False)

    def _backward(
        self, grad_output: np.ndarray, input_grad: bool
    ) -> Optional[np.ndarray]:
        if self._cols is None or self._input_shape is None:
            raise RuntimeError("backward called before forward(training=True)")
        rows = self._cols.shape[0]
        grad_flat = as_rows(
            grad_output,
            out=self._scratch_buffer("grad_flat", (rows, self.out_channels)),
        )
        np.matmul(
            grad_flat.T,
            self._cols,
            out=self.grads["W"].reshape(self.out_channels, -1),
        )
        np.sum(grad_flat, axis=0, out=self.grads["b"])
        if not input_grad:
            return None
        w_flat = self.params["W"].reshape(self.out_channels, -1)
        # Both returns are fresh arrays the caller owns.
        if self._pointwise:
            n, _, in_h, in_w = self._input_shape
            grad_cols = np.matmul(
                grad_flat, w_flat, out=np.empty(self._cols.shape)
            )
            # col2im's ``0.0 + g`` for a window of one: keeps the sign of
            # a zero gradient what the scatter-add makes it.
            grad_cols += 0.0
            return grad_cols.reshape(n, in_h, in_w, -1).transpose(0, 3, 1, 2)
        grad_cols = np.matmul(
            grad_flat,
            w_flat,
            out=self._scratch_buffer("grad_cols", self._cols.shape),
        )
        return col2im(
            grad_cols,
            self._input_shape,
            self.kernel_h,
            self.kernel_w,
            self.stride,
            self.padding,
        )

    def __repr__(self) -> str:
        return (
            f"Conv2D(in={self.in_channels}, out={self.out_channels}, "
            f"kernel=({self.kernel_h},{self.kernel_w}), stride={self.stride}, "
            f"padding={self.padding})"
        )
