"""Base class shared by every :mod:`repro.nn` layer.

A layer owns a dictionary of named parameter arrays and a matching
dictionary of gradient arrays. ``forward`` caches whatever the layer
needs for the backward pass; ``backward`` consumes the upstream
gradient, fills ``grads``, and returns the gradient with respect to the
layer input. This explicit two-pass design (rather than a tape-based
autograd) keeps every gradient analytic and unit-testable against
numeric differentiation.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

import numpy as np

__all__ = ["Layer"]


class Layer:
    """Abstract base class for neural-network layers.

    Subclasses must implement :meth:`forward` and :meth:`backward` and
    should register parameters in ``self.params`` (with matching zero
    arrays in ``self.grads``) during construction.

    Attributes:
        params: mapping from parameter name to its numpy array.
        grads: mapping from parameter name to the gradient accumulated
            by the most recent :meth:`backward` call.
    """

    def __init__(self) -> None:
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}
        self._scratch: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output for ``inputs``.

        Args:
            inputs: input activation array.
            training: ``True`` during training (enables dropout masks,
                batch-norm batch statistics, and backward caching).

        Returns:
            The layer output array.
        """
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate ``grad_output`` through the layer.

        Must be called after a ``forward(..., training=True)`` pass.

        Args:
            grad_output: gradient of the loss w.r.t. the layer output.

        Returns:
            Gradient of the loss w.r.t. the layer input.
        """
        raise NotImplementedError

    def backward_params(self, grad_output: np.ndarray) -> None:
        """Fill ``grads`` as :meth:`backward` does, without returning
        the input gradient.

        What a model's first layer runs when nothing reads the gradient
        w.r.t. the data (a local update). Layers whose input gradient is
        a product of its own (``Dense``, ``Conv2D``) skip computing it.
        """
        self.backward(grad_output)

    # ------------------------------------------------------------------
    # Parameter utilities
    # ------------------------------------------------------------------
    @property
    def parameter_count(self) -> int:
        """Total number of scalar parameters held by this layer."""
        return int(sum(p.size for p in self.params.values()))

    def named_parameters(self) -> Iterator[Tuple[str, np.ndarray]]:
        """Yield ``(name, array)`` pairs in sorted-name order."""
        for name in sorted(self.params):
            yield name, self.params[name]

    def zero_grads(self) -> None:
        """Reset every gradient buffer to zero in place."""
        for name, grad in self.grads.items():
            grad[...] = 0.0

    def _register(self, name: str, value: np.ndarray) -> None:
        """Register a trainable parameter and its zero gradient buffer."""
        self.params[name] = value
        self.grads[name] = np.zeros_like(value)

    def _scratch_buffer(
        self, name: str, shape: Tuple[int, ...], dtype=np.float64
    ) -> np.ndarray:
        """Return a reusable C-contiguous scratch array of ``shape``.

        Hot-loop layers route their per-step temporaries (im2col
        matrices, gradient staging buffers) through here so repeated
        forward/backward calls allocate nothing. The leading (batch)
        axis is a capacity: a request no longer than the array held
        gets its leading slice, so alternating batch sizes (``predict``'s
        full and remainder chunks) reallocate nothing either; only a
        longer batch, other trailing dimensions or another dtype do.
        The contents are unspecified on return; callers must fully
        overwrite the buffer before reading it.
        """
        buf = self._scratch.get(name)
        if (
            buf is None
            or buf.shape[0] < shape[0]
            or buf.shape[1:] != shape[1:]
            or buf.dtype != dtype
        ):
            buf = np.empty(shape, dtype=dtype)
            self._scratch[name] = buf
        return buf[: shape[0]]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(params={self.parameter_count})"
