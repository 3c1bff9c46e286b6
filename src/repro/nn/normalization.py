"""Batch normalization supporting dense (NC) and conv (NCHW) inputs."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn.layer import Layer

__all__ = ["BatchNorm"]


class BatchNorm(Layer):
    """Batch normalization with learnable scale and shift.

    Normalizes over the batch axis for 2-D inputs ``(n, c)`` and over
    the batch and spatial axes for 4-D inputs ``(n, c, h, w)``. Running
    statistics are tracked with exponential moving averages and used at
    inference time.

    Note on federated aggregation: ``gamma`` and ``beta`` are trainable
    parameters and participate in FedAvg; the running statistics
    ``running_mean`` / ``running_var`` are local buffers.

    Args:
        num_features: channel count ``c``.
        momentum: EMA momentum for running statistics in ``(0, 1]``.
        eps: numerical floor added to the variance.
    """

    def __init__(
        self, num_features: int, momentum: float = 0.1, eps: float = 1e-5
    ) -> None:
        super().__init__()
        if num_features <= 0:
            raise ConfigurationError(
                f"num_features must be positive, got {num_features}"
            )
        if not 0.0 < momentum <= 1.0:
            raise ConfigurationError(f"momentum must be in (0, 1], got {momentum}")
        if eps <= 0:
            raise ConfigurationError(f"eps must be positive, got {eps}")
        self.num_features = int(num_features)
        self.momentum = float(momentum)
        self.eps = float(eps)
        self._register("gamma", np.ones(self.num_features, dtype=np.float64))
        self._register("beta", np.zeros(self.num_features, dtype=np.float64))
        self.running_mean = np.zeros(self.num_features, dtype=np.float64)
        self.running_var = np.ones(self.num_features, dtype=np.float64)
        self._cache: Optional[tuple] = None

    # ------------------------------------------------------------------
    def _check_shape(self, inputs: np.ndarray) -> None:
        if inputs.ndim not in (2, 4) or inputs.shape[1] != self.num_features:
            raise ShapeError(
                f"BatchNorm expected (n, {self.num_features}) or "
                f"(n, {self.num_features}, h, w), got {inputs.shape}"
            )

    @staticmethod
    def _reduce_axes(inputs: np.ndarray) -> tuple:
        return (0,) if inputs.ndim == 2 else (0, 2, 3)

    @staticmethod
    def _broadcast(stat: np.ndarray, ndim: int) -> np.ndarray:
        return stat if ndim == 2 else stat.reshape(1, -1, 1, 1)

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        self._check_shape(inputs)
        # The batch statistics are reductions, and a reduction over a
        # strided (channels-last) view may sum in another order: always
        # reduce the C-contiguous operand.
        inputs = np.ascontiguousarray(inputs)
        axes = self._reduce_axes(inputs)
        if training:
            mean = inputs.mean(axis=axes)
            var = inputs.var(axis=axes)
            count = inputs.size // self.num_features
            # Unbiased variance for the running estimate (framework
            # convention), biased variance for the normalization itself.
            # The running statistics are updated IN PLACE: external
            # aliases (worker-resident views, the shared-memory path)
            # must keep observing the live arrays.
            unbiased = var * count / max(count - 1, 1)
            self.running_mean[...] = (
                1.0 - self.momentum
            ) * self.running_mean + self.momentum * mean
            self.running_var[...] = (
                1.0 - self.momentum
            ) * self.running_var + self.momentum * unbiased
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = self._scratch_buffer("x_hat", inputs.shape)
        np.subtract(inputs, self._broadcast(mean, inputs.ndim), out=x_hat)
        x_hat *= self._broadcast(inv_std, inputs.ndim)
        out = self._broadcast(self.params["gamma"], inputs.ndim) * x_hat
        out += self._broadcast(self.params["beta"], inputs.ndim)
        if training:
            self._cache = (x_hat, inv_std, inputs.ndim, inputs.shape)
        else:
            # Inference invalidates the training cache so a stale
            # backward raises instead of using an earlier batch.
            self._cache = None
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward(training=True)")
        x_hat, inv_std, ndim, shape = self._cache
        grad_output = np.ascontiguousarray(grad_output)  # as in forward
        axes = (0,) if ndim == 2 else (0, 2, 3)
        count = float(np.prod([shape[a] for a in axes]))
        self.grads["gamma"][...] = (grad_output * x_hat).sum(axis=axes)
        self.grads["beta"][...] = grad_output.sum(axis=axes)
        gamma = self._broadcast(self.params["gamma"], ndim)
        grad_xhat = grad_output * gamma
        mean_g = grad_xhat.mean(axis=axes)
        mean_gx = (grad_xhat * x_hat).mean(axis=axes)
        grad_input = (
            grad_xhat
            - self._broadcast(mean_g, ndim)
            - x_hat * self._broadcast(mean_gx, ndim)
        ) * self._broadcast(inv_std, ndim)
        del count
        return grad_input

    def __repr__(self) -> str:
        return f"BatchNorm(features={self.num_features}, momentum={self.momentum})"
