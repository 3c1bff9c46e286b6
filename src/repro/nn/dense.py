"""Fully-connected (dense) layer."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn.initializers import he_normal, zeros_init
from repro.nn.layer import Layer
from repro.rng import SeedLike, ensure_generator

__all__ = ["Dense"]


class Dense(Layer):
    """Affine transform ``y = x @ W + b``.

    ``W`` of shape ``(in_features, out_features)`` starts He normal and
    ``b`` at zero.

    Args:
        in_features: input dimensionality.
        out_features: output dimensionality.
        seed: seed or generator used by the weight initializer.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ConfigurationError(
                "in_features and out_features must be positive, got "
                f"{in_features} and {out_features}"
            )
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        rng = ensure_generator(seed)
        self._register("W", he_normal((self.in_features, self.out_features), rng))
        self._register("b", zeros_init((self.out_features,), rng))
        self._inputs: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        if inputs.ndim != 2 or inputs.shape[1] != self.in_features:
            raise ShapeError(
                f"Dense expected input of shape (batch, {self.in_features}), "
                f"got {inputs.shape}"
            )
        # Inference invalidates the cache so a stale backward raises
        # instead of differentiating an earlier batch.
        self._inputs = inputs if training else None
        out = inputs @ self.params["W"]
        out += self.params["b"]
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self.backward_params(grad_output)
        return grad_output @ self.params["W"].T

    def backward_params(self, grad_output: np.ndarray) -> None:
        if self._inputs is None:
            raise RuntimeError("backward called before forward(training=True)")
        np.matmul(self._inputs.T, grad_output, out=self.grads["W"])
        np.sum(grad_output, axis=0, out=self.grads["b"])

    def __repr__(self) -> str:
        return f"Dense(in={self.in_features}, out={self.out_features})"
