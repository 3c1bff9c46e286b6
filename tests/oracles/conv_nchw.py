"""The conv stack as ``src/`` shipped it until its memory went channels-last.

``im2col``/``col2im``, ``Conv2D``, ``MaxPool2D``, ``ReLU`` and ``Fire``
are copied verbatim from the commit before that change: every
activation is a C-contiguous NCHW array, ``im2col`` pads with ``np.pad``
and gathers through one strided view, ``Conv2D`` copies its GEMM result
back to channel-major, pooling unfolds windows with ``im2col`` and takes
``argmax``, ReLU is ``np.where(x > 0, x, 0.0)`` and ``Fire``
concatenates its expand branches. ``repro.nn`` must equal these to the
last bit -- outputs, input gradients and parameter gradients -- and
``tests/nn/test_channels_last.py`` asserts exactly that.

``as_oracle`` rebuilds a ``repro.nn`` model with these layers in place
of their ``src/`` namesakes (same parameters, copied), so whole-model
``predict`` and ``LocalTrainer.train`` can be diffed as well.
"""

import copy
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn import activations, conv, pooling
from repro.nn.architectures import fire
from repro.nn.initializers import he_normal, zeros_init
from repro.nn.layer import Layer
from repro.nn.model import Sequential
from repro.rng import SeedLike, ensure_generator, spawn_generators


class OracleLayer(Layer):
    """``Layer`` with the scratch rule of that commit: exact shapes only."""

    def _scratch_buffer(
        self, name: str, shape: Tuple[int, ...], dtype=np.float64
    ) -> np.ndarray:
        buf = self._scratch.get(name)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = np.empty(shape, dtype=dtype)
            self._scratch[name] = buf
        return buf


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


def pad_input(images: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the two spatial axes of an NCHW batch symmetrically."""
    if padding == 0:
        return images
    return np.pad(
        images,
        ((0, 0), (0, 0), (padding, padding), (padding, padding)),
        mode="constant",
    )


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
        images: input of shape ``(n, c, h, w)``.
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
        one receptive field in channel-major order.
    """
    if images.ndim != 4:
        raise ShapeError(f"im2col expects NCHW input, got shape {images.shape}")
    n, c, h, w = images.shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    padded = pad_input(images, padding)

    # Strided view of shape (n, c, out_h, out_w, kernel_h, kernel_w).
    s_n, s_c, s_h, s_w = padded.strides
    view = np.lib.stride_tricks.as_strided(
        padded,
        shape=(n, c, out_h, out_w, kernel_h, kernel_w),
        strides=(s_n, s_c, s_h * stride, s_w * stride, s_h, s_w),
        writeable=False,
    )
    shape = (n * out_h * out_w, c * kernel_h * kernel_w)
    if out is None:
        cols = view.transpose(0, 2, 3, 1, 4, 5).reshape(shape)
        return np.ascontiguousarray(cols), out_h, out_w
    if out.shape != shape or out.dtype != images.dtype or not out.flags.c_contiguous:
        raise ShapeError(
            f"im2col out buffer must be C-contiguous {shape} "
            f"{images.dtype}, got {out.shape} {out.dtype}"
        )
    np.copyto(
        out.reshape(n, out_h, out_w, c, kernel_h, kernel_w),
        view.transpose(0, 2, 3, 1, 4, 5),
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
            dtype; zeroed and reused in place so the hot loop allocates
            nothing. The returned array is then a view into it, valid
            until the next call that reuses the buffer.

    Returns:
        An array with ``input_shape`` holding the accumulated gradient.
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
        padded = np.zeros(padded_shape, dtype=cols.dtype)
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


class Conv2D(OracleLayer):
    """2-D convolution over NCHW inputs.

    The kernel has shape ``(out_channels, in_channels, kh, kw)``.
    Forward computes ``im2col(x) @ W_flat + b`` so both passes reduce to
    dense matrix algebra.

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
        self._cols: Optional[np.ndarray] = None
        self._input_shape: Optional[Tuple[int, int, int, int]] = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        if inputs.ndim != 4 or inputs.shape[1] != self.in_channels:
            raise ShapeError(
                f"Conv2D expected (batch, {self.in_channels}, h, w), got "
                f"{inputs.shape}"
            )
        n = inputs.shape[0]
        out_h = conv_output_size(
            inputs.shape[2], self.kernel_h, self.stride, self.padding
        )
        out_w = conv_output_size(
            inputs.shape[3], self.kernel_w, self.stride, self.padding
        )
        rows = n * out_h * out_w
        window = self.in_channels * self.kernel_h * self.kernel_w
        col_buffer = (
            self._scratch_buffer("cols", (rows, window), inputs.dtype)
            if inputs.dtype == np.float64
            else None
        )
        cols, out_h, out_w = im2col(
            inputs,
            self.kernel_h,
            self.kernel_w,
            self.stride,
            self.padding,
            out=col_buffer,
        )
        w_flat = self.params["W"].reshape(self.out_channels, -1)
        out = np.matmul(
            cols,
            w_flat.T,
            out=self._scratch_buffer("mm", (rows, self.out_channels)),
        )
        out += self.params["b"]
        if training:
            # Same-step cache: backward() consumes self._cols before the
            # next forward() can overwrite the "cols" scratch buffer, and
            # the inference branch below clears it.
            self._cols = cols  # repro: allow[REP008] same-step cache, see above
            self._input_shape = inputs.shape
        else:
            # Inference must not leave a stale training cache behind:
            # a later backward() would silently differentiate an older
            # batch instead of raising.
            self._cols = None
            self._input_shape = None
        return np.ascontiguousarray(
            out.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)
        )

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cols is None or self._input_shape is None:
            raise RuntimeError("backward called before forward(training=True)")
        n, _, out_h, out_w = grad_output.shape
        rows = n * out_h * out_w
        grad_flat = self._scratch_buffer(
            "grad_flat", (rows, self.out_channels)
        )
        np.copyto(
            grad_flat.reshape(n, out_h, out_w, self.out_channels),
            grad_output.transpose(0, 2, 3, 1),
        )
        w_flat = self.params["W"].reshape(self.out_channels, -1)
        np.matmul(
            grad_flat.T,
            self._cols,
            out=self.grads["W"].reshape(self.out_channels, -1),
        )
        np.sum(grad_flat, axis=0, out=self.grads["b"])
        grad_cols = np.matmul(
            grad_flat,
            w_flat,
            out=self._scratch_buffer("grad_cols", self._cols.shape),
        )
        in_n, in_c, in_h, in_w = self._input_shape
        padded_shape = (
            in_n,
            in_c,
            in_h + 2 * self.padding,
            in_w + 2 * self.padding,
        )
        grad_input = col2im(
            grad_cols,
            self._input_shape,
            self.kernel_h,
            self.kernel_w,
            self.stride,
            self.padding,
            padded_out=self._scratch_buffer("col2im", padded_shape),
        )
        # The scatter accumulator is layer-owned scratch; hand callers
        # an owned array so the gradient survives the next step.
        return grad_input.copy()

    def __repr__(self) -> str:
        return (
            f"Conv2D(in={self.in_channels}, out={self.out_channels}, "
            f"kernel=({self.kernel_h},{self.kernel_w}), stride={self.stride}, "
            f"padding={self.padding})"
        )


class _Pool2D(OracleLayer):
    """Shared plumbing for windowed pooling layers."""

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

    def _unfold(self, inputs: np.ndarray) -> Tuple[np.ndarray, int, int, int, int]:
        """Return per-channel windows ``(rows, window)`` plus geometry."""
        if inputs.ndim != 4:
            raise ShapeError(f"pooling expects NCHW input, got {inputs.shape}")
        n, c, h, w = inputs.shape
        # Treat channels as independent single-channel images so each
        # window row covers exactly one channel.
        reshaped = inputs.reshape(n * c, 1, h, w)
        cols, out_h, out_w = im2col(
            reshaped, self.pool_h, self.pool_w, self.stride, self.padding
        )
        return cols, n, c, out_h, out_w


class MaxPool2D(_Pool2D):
    """Max pooling over spatial windows.

    Args:
        pool_size: window size (int or ``(h, w)``).
        stride: window stride; defaults to the window height.
        padding: symmetric zero padding (padded zeros participate in
            the max, matching common framework semantics for
            non-negative activations).
    """

    def __init__(self, pool_size, stride: Optional[int] = None, padding: int = 0):
        super().__init__(pool_size, stride, padding)
        self._argmax: Optional[np.ndarray] = None
        self._geometry: Optional[Tuple[int, int, int, int, int, int]] = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        cols, n, c, out_h, out_w = self._unfold(inputs)
        argmax = cols.argmax(axis=1)
        out = cols[np.arange(cols.shape[0]), argmax]
        if training:
            self._argmax = argmax
            self._geometry = (n, c, inputs.shape[2], inputs.shape[3], out_h, out_w)
        else:
            # Inference invalidates the training cache so a stale
            # backward raises instead of routing gradients through an
            # earlier batch's argmax.
            self._argmax = None
            self._geometry = None
        return out.reshape(n, c, out_h, out_w)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._argmax is None or self._geometry is None:
            raise RuntimeError("backward called before forward(training=True)")
        n, c, h, w, out_h, out_w = self._geometry
        rows = n * c * out_h * out_w
        grad_cols = np.zeros((rows, self.pool_h * self.pool_w), dtype=np.float64)
        grad_cols[np.arange(rows), self._argmax] = grad_output.reshape(rows)
        grad_images = col2im(
            grad_cols,
            (n * c, 1, h, w),
            self.pool_h,
            self.pool_w,
            self.stride,
            self.padding,
        )
        return grad_images.reshape(n, c, h, w)


class ReLU(OracleLayer):
    """Rectified linear unit: ``max(x, 0)``."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        mask = inputs > 0
        # Inference invalidates the cache so a stale backward raises.
        self._mask = mask if training else None
        return np.where(mask, inputs, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward(training=True)")
        return grad_output * self._mask


class Fire(OracleLayer):
    """SqueezeNet Fire module: squeeze (1x1) then expand (1x1 || 3x3).

    Both the squeeze output and the concatenated expand output pass
    through ReLU. The 3x3 expand branch uses padding 1 so both branches
    produce identical spatial sizes.

    Args:
        in_channels: input channel count.
        squeeze_channels: channels of the squeeze 1x1 convolution.
        expand_channels: channels of *each* expand branch; the module
            output has ``2 * expand_channels`` channels.
        seed: seed or generator for the three child convolutions.
    """

    def __init__(
        self,
        in_channels: int,
        squeeze_channels: int,
        expand_channels: int,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        if squeeze_channels <= 0 or expand_channels <= 0:
            raise ConfigurationError(
                "squeeze_channels and expand_channels must be positive, got "
                f"{squeeze_channels} and {expand_channels}"
            )
        rngs = spawn_generators(seed, 3)
        self.squeeze = Conv2D(in_channels, squeeze_channels, 1, seed=rngs[0])
        self.expand1 = Conv2D(squeeze_channels, expand_channels, 1, seed=rngs[1])
        self.expand3 = Conv2D(
            squeeze_channels, expand_channels, 3, padding=1, seed=rngs[2]
        )
        self.in_channels = int(in_channels)
        self.out_channels = 2 * int(expand_channels)
        self.expand_channels = int(expand_channels)
        # Expose child parameters under prefixed names so the module
        # behaves as a single Layer: the arrays are shared (not copied),
        # and all library code mutates parameter arrays in place.
        for prefix, child in (
            ("squeeze", self.squeeze),
            ("expand1", self.expand1),
            ("expand3", self.expand3),
        ):
            for name in child.params:
                self.params[f"{prefix}.{name}"] = child.params[name]
                self.grads[f"{prefix}.{name}"] = child.grads[name]
        self._squeeze_mask: Optional[np.ndarray] = None
        self._out_mask: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        squeezed_pre = self.squeeze.forward(inputs, training=training)
        squeeze_mask = squeezed_pre > 0
        squeezed = np.where(squeeze_mask, squeezed_pre, 0.0)
        branch1 = self.expand1.forward(squeezed, training=training)
        branch3 = self.expand3.forward(squeezed, training=training)
        out_pre = np.concatenate([branch1, branch3], axis=1)
        out_mask = out_pre > 0
        if training:
            self._squeeze_mask = squeeze_mask
            self._out_mask = out_mask
        return np.where(out_mask, out_pre, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._squeeze_mask is None or self._out_mask is None:
            raise RuntimeError("backward called before forward(training=True)")
        grad_pre = grad_output * self._out_mask
        grad_b1 = grad_pre[:, : self.expand_channels]
        grad_b3 = grad_pre[:, self.expand_channels :]
        grad_squeezed = self.expand1.backward(
            np.ascontiguousarray(grad_b1)
        ) + self.expand3.backward(np.ascontiguousarray(grad_b3))
        grad_squeezed = grad_squeezed * self._squeeze_mask
        return self.squeeze.backward(grad_squeezed)

    def __repr__(self) -> str:
        return (
            f"Fire(in={self.in_channels}, squeeze="
            f"{self.squeeze.out_channels}, expand={self.expand_channels}x2)"
        )


def _copy_params(source: Layer, target: Layer) -> Layer:
    for name, value in source.params.items():
        target.params[name][...] = value
    return target


def _oracle_layer(layer: Layer) -> Layer:
    """The oracle twin of one ``src/`` layer (a deep copy for the rest)."""
    if isinstance(layer, conv.Conv2D):
        twin = Conv2D(
            layer.in_channels,
            layer.out_channels,
            (layer.kernel_h, layer.kernel_w),
            stride=layer.stride,
            padding=layer.padding,
        )
        return _copy_params(layer, twin)
    if isinstance(layer, fire.Fire):
        twin = Fire(
            layer.in_channels, layer.squeeze.out_channels, layer.expand_channels
        )
        return _copy_params(layer, twin)
    if isinstance(layer, pooling.MaxPool2D):
        return MaxPool2D(
            (layer.pool_h, layer.pool_w), stride=layer.stride, padding=layer.padding
        )
    if isinstance(layer, activations.ReLU):
        return ReLU()
    return copy.deepcopy(layer)


def as_oracle(model: Sequential) -> Sequential:
    """``model`` rebuilt from the oracle's conv, pooling, ReLU and Fire."""
    return Sequential([_oracle_layer(layer) for layer in model.layers])
