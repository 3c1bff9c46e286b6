"""The :class:`Sequential` model container.

Beyond chaining layers, the container exposes flat-vector parameter
access (:meth:`Sequential.get_flat_params` /
:meth:`Sequential.set_flat_params`), which is the interface the
federated-averaging server uses: aggregation is a weighted average of
flat vectors, exactly matching Eq. (18) of the paper.
"""

from __future__ import annotations

import copy
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.errors import ShapeError
from repro.nn.conv import Conv2D
from repro.nn.layer import Layer

__all__ = ["Sequential"]

# Budget of one inference block's widest buffer. Blocks this small keep
# every buffer of the forward pass in memory the allocator reuses, so a
# repeated evaluation maps no new pages.
_PREDICT_BLOCK_BYTES = 2 << 20
# Rows per block at most. A narrow model's budget would allow more, but
# its freshly allocated activations then outgrow what glibc keeps
# mapped: a 1000-row MLP block faults ~220 pages per call.
_PREDICT_MAX_ROWS = 512
# Every block but the last is a whole number of these rows. Where a
# GEMM's output width is not a multiple of the BLAS kernel's (10
# logits), the last ``rows % unroll`` rows of each call take an edge
# kernel that rounds differently (the dgemm row unroll is 4 on Haswell,
# 16 on SkylakeX); aligned blocks leave only the input's last
# ``count % unroll`` rows there, as 512-row chunks did.
_PREDICT_ROW_ALIGN = 16


class Sequential:
    """A feed-forward stack of layers executed in order.

    Args:
        layers: layers in execution order.
        seed: optional seed recorded for provenance (layers are seeded
            at construction; this value is informational).
    """

    def __init__(self, layers: Sequence[Layer], seed: Optional[int] = None) -> None:
        self.layers: List[Layer] = list(layers)
        self.seed = seed
        for layer in self.layers:
            if not isinstance(layer, Layer):
                raise TypeError(f"expected Layer instances, got {type(layer)!r}")

    # ------------------------------------------------------------------
    # Forward / backward
    # ------------------------------------------------------------------
    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the full forward pass and return the final activation."""
        out = inputs
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def __call__(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(inputs, training=training)

    def backward(
        self, grad_output: np.ndarray, input_grad: bool = True
    ) -> Optional[np.ndarray]:
        """Back-propagate through every layer; returns the input gradient.

        With ``input_grad=False`` the first layer only fills its
        gradient buffers (:meth:`Layer.backward_params`) and ``None``
        is returned: a local update never reads the gradient w.r.t. the
        data, and a leading ``Conv2D`` or ``Dense`` then skips its
        largest product.
        """
        grad = grad_output
        for layer in reversed(self.layers if input_grad else self.layers[1:]):
            grad = layer.backward(grad)
        if input_grad:
            return grad
        if self.layers:
            self.layers[0].backward_params(grad)
        return None

    def zero_grads(self) -> None:
        """Reset every layer's gradient buffers."""
        for layer in self.layers:
            layer.zero_grads()

    # ------------------------------------------------------------------
    # Parameter access
    # ------------------------------------------------------------------
    @property
    def parameter_count(self) -> int:
        """Total scalar parameter count across all layers."""
        return sum(layer.parameter_count for layer in self.layers)

    def named_parameters(self) -> Iterable:
        """Yield ``(layer_index, name, array)`` for every parameter."""
        for idx, layer in enumerate(self.layers):
            for name, param in layer.named_parameters():
                yield idx, name, param

    def get_flat_params(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Concatenate every parameter into a single 1-D float64 vector.

        Args:
            out: optional preallocated 1-D float64 destination of length
                :attr:`parameter_count`. When given, parameter values are
                written directly into it (e.g. a shared-memory view) and
                no intermediate concatenation is allocated.

        Raises:
            ShapeError: if ``out`` has the wrong length or dtype.
        """
        if out is None:
            chunks = [param.ravel() for _, _, param in self.named_parameters()]
            if not chunks:
                return np.zeros(0, dtype=np.float64)
            return np.concatenate(chunks).astype(np.float64, copy=False)
        expected = self.parameter_count
        if out.ndim != 1 or out.size != expected or out.dtype != np.float64:
            raise ShapeError(
                f"out buffer must be 1-D float64 of length {expected}, got "
                f"shape {out.shape} dtype {out.dtype}"
            )
        offset = 0
        for _, _, param in self.named_parameters():
            size = param.size
            out[offset : offset + size] = param.ravel()
            offset += size
        return out

    def set_flat_params(self, flat: np.ndarray) -> None:
        """Write a flat vector produced by :meth:`get_flat_params` back.

        Arrays are updated in place so optimizer state and external
        references stay valid.

        Raises:
            ShapeError: if ``flat`` has the wrong length.
        """
        flat = np.asarray(flat, dtype=np.float64).ravel()
        expected = self.parameter_count
        if flat.size != expected:
            raise ShapeError(
                f"flat parameter vector has {flat.size} entries, expected "
                f"{expected}"
            )
        offset = 0
        for _, _, param in self.named_parameters():
            size = param.size
            param[...] = flat[offset : offset + size].reshape(param.shape)
            offset += size

    def sgd_step(self, learning_rate: float) -> None:
        """Apply one in-place gradient step: ``p -= lr * g``.

        The federated local update (HELCFL Eq. 3), parameter by
        parameter in place, with no flat vectors staged.
        """
        rate = float(learning_rate)
        for layer in self.layers:
            for name, param in layer.params.items():
                param -= rate * layer.grads[name]

    # ------------------------------------------------------------------
    # Cloning / prediction helpers
    # ------------------------------------------------------------------
    def clone(self) -> Sequential:
        """Deep-copy the model (architecture, parameters, buffers)."""
        return copy.deepcopy(self)

    def predict(
        self, inputs: np.ndarray, batch_size: Optional[int] = None
    ) -> np.ndarray:
        """Inference-mode forward pass, in blocks that bound memory.

        By default a block holds about ``_PREDICT_BLOCK_BYTES`` of the
        widest per-row buffer the forward pass builds (see
        :meth:`_row_bytes`), and at most ``_PREDICT_MAX_ROWS`` rows.
        The rows are split into near-equal blocks
        of whole ``_PREDICT_ROW_ALIGN``-row units, the last block taking
        the remainder, so no block is a tiny one. An explicit
        ``batch_size`` cuts fixed chunks of that many rows instead.
        """
        count = inputs.shape[0]
        if count == 0:
            # A zero-row forward still produces the correct trailing
            # output dimensions, so predict_classes can argmax on an
            # empty batch instead of crashing on a 1-D placeholder.
            return self.forward(inputs, training=False)
        if batch_size is None:
            per_block = min(
                _PREDICT_MAX_ROWS,
                max(1, _PREDICT_BLOCK_BYTES // self._row_bytes(inputs)),
            )
            units = max(1, count // _PREDICT_ROW_ALIGN)
            blocks = min(-(-count // per_block), units)
            edges = [
                _PREDICT_ROW_ALIGN * (units * index // blocks)
                for index in range(blocks)
            ] + [count]
        else:
            edges = [*range(0, count, batch_size), count]
        return np.concatenate(
            [
                self.forward(inputs[start:stop], training=False)
                for start, stop in zip(edges, edges[1:])
            ],
            axis=0,
        )

    def _row_bytes(self, inputs: np.ndarray) -> int:
        """Bytes per input row of the widest buffer ``forward`` builds:
        a leading ``Conv2D``'s im2col rows, otherwise the input row."""
        entries = int(np.prod(inputs.shape[1:]))
        first = self.layers[0] if self.layers else None
        if isinstance(first, Conv2D) and inputs.ndim == 4:
            entries = max(entries, first.cols_per_image(inputs.shape))
        return max(1, entries * inputs.itemsize)

    def predict_classes(
        self, inputs: np.ndarray, batch_size: Optional[int] = None
    ) -> np.ndarray:
        """Return argmax class ids for ``inputs``."""
        return self.predict(inputs, batch_size=batch_size).argmax(axis=1)

    def __repr__(self) -> str:
        return (
            f"Sequential(layers={len(self.layers)}, "
            f"params={self.parameter_count})"
        )
