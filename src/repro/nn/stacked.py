"""Stacked full-batch local update: Eq. 3 for many clients in one pass.

Algorithm 1 has every selected user run the same full-batch gradient
step from the same broadcast vector; separated learning has every user
run it from its own private vector. For a model that is a stack of
:class:`~repro.nn.dense.Dense` and :class:`~repro.nn.activations.ReLU`
layers, :func:`stacked_local_update` runs that step for ``g`` clients
with equally sized shards at once, from one shared start vector or from
one start row per client: inputs are stacked to ``(g, n, d)``,
forward / softmax cross-entropy / backward are 3-D ``np.matmul`` calls
and axis-wise reductions, and gradients land directly in a ``(g, P)``
matrix laid out like :meth:`Sequential.get_flat_params`.

The result is bit-for-bit the per-client
:meth:`repro.fl.client.LocalTrainer.train`: ``np.matmul`` on stacked
operands issues one GEMM per item with exactly the shapes, strides and
transposition flags the per-client layers use, every other operation is
element-wise or reduces within one client's rows in the same order, and
the update applies the same two roundings as
:meth:`Sequential.sgd_step`. A row therefore does not depend on which
other clients share the stack. One big GEMM over all clients' rows would
be faster for the shared-weights first step but lets BLAS block the
reduction differently per row count — deliberately not done.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ShapeError
from repro.nn.activations import ReLU
from repro.nn.dense import Dense
from repro.nn.model import Sequential

__all__ = ["is_stackable", "stacked_local_update"]

# (W offset, W shape, b offset or None) per Dense layer, None per ReLU.
_Layout = List[Optional[Tuple[int, Tuple[int, int], Optional[int]]]]


def is_stackable(model: Sequential) -> bool:
    """Whether ``model`` is a Dense-first stack of Dense/ReLU layers.

    Exact types only: a subclass may override ``forward``/``backward``
    and must keep going through its own code.
    """
    layers = model.layers
    return (
        bool(layers)
        and type(layers[0]) is Dense
        and all(type(layer) in (Dense, ReLU) for layer in layers)
    )


def _flat_layout(model: Sequential) -> _Layout:
    """Offsets of each Dense layer's ``W`` and ``b`` in the flat vector.

    Mirrors ``Sequential.named_parameters``: layers in order, names
    sorted within a layer (``"W"`` before ``"b"``).
    """
    layout: _Layout = []
    offset = 0
    for layer in model.layers:
        if type(layer) is ReLU:
            layout.append(None)
            continue
        shape = (layer.in_features, layer.out_features)
        weight_offset = offset
        offset += shape[0] * shape[1]
        bias_offset = offset if layer.use_bias else None
        if layer.use_bias:
            offset += shape[1]
        layout.append((weight_offset, shape, bias_offset))
    return layout


def _dense_views(flat: np.ndarray, entry) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``(W, b)`` views into ``flat`` of shape ``(P,)`` or ``(g, P)``."""
    weight_offset, shape, bias_offset = entry
    lead = flat.shape[:-1]
    weight = flat[..., weight_offset : weight_offset + shape[0] * shape[1]]
    weight = weight.reshape(lead + shape)
    bias = None
    if bias_offset is not None:
        bias = flat[..., bias_offset : bias_offset + shape[1]]
    return weight, bias


def _softmax_cross_entropy(
    logits: np.ndarray, target: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-client mean loss ``(g,)`` and logit gradient ``(g, n, c)``.

    The operations of ``SoftmaxCrossEntropy.loss_and_grad`` with the
    class axis moved from 1 to 2.
    """
    shifted = logits - logits.max(axis=2, keepdims=True)
    exp = np.exp(shifted, out=shifted)
    probs = exp / exp.sum(axis=2, keepdims=True)
    log_probs = np.log(np.clip(probs, 1e-300, None))
    log_probs *= target
    losses = -log_probs.sum(axis=2).mean(axis=1)
    probs -= target
    probs /= logits.shape[1]
    return losses, probs


def stacked_local_update(
    model: Sequential,
    inputs: np.ndarray,
    labels: np.ndarray,
    start_params: np.ndarray,
    learning_rate: float,
    local_steps: int,
    out: np.ndarray,
) -> np.ndarray:
    """Run ``local_steps`` full-batch GD steps for ``g`` clients at once.

    Args:
        model: a model for which :func:`is_stackable` holds; only its
            architecture is read, its parameters are not touched.
        inputs: the clients' shards stacked to ``(g, n, d)``,
            C-contiguous float64.
        labels: matching integer class ids, ``(g, n)``.
        start_params: the float64 flat vector ``(P,)`` every client
            starts from, or a C-contiguous ``(g, P)`` matrix whose row
            ``i`` client ``i`` starts from; ``out`` must not overlap it.
        learning_rate: the GD rate ``tau``.
        local_steps: gradient steps per client (paper: 1).
        out: ``(g, P)`` float64 destination with contiguous rows; row
            ``i`` receives client ``i``'s trained flat vector.

    Returns:
        ``(g,)`` float64: each client's loss at its last step, before
        that step's update (as ``LocalTrainer.train`` reports it).

    Raises:
        ShapeError: for inconsistent shapes or labels outside the
            model's class range.
    """
    layout = _flat_layout(model)
    dense = [entry for entry in layout if entry is not None]
    param_count = model.parameter_count
    width = dense[0][1][0]
    if inputs.ndim != 3 or inputs.shape[2] != width:
        raise ShapeError(
            f"stacked inputs must have shape (clients, batch, {width}), "
            f"got {inputs.shape}"
        )
    clients, samples, _ = inputs.shape
    if labels.shape != (clients, samples):
        raise ShapeError(
            f"labels must have shape {(clients, samples)}, got {labels.shape}"
        )
    if start_params.shape not in ((param_count,), (clients, param_count)):
        raise ShapeError(
            f"start_params must have shape ({param_count},) or "
            f"{(clients, param_count)}, got {start_params.shape}"
        )
    if (
        out.shape != (clients, param_count)
        or out.dtype != np.float64
        or (param_count > 1 and out.strides[1] != out.itemsize)
    ):
        raise ShapeError(
            f"out must be float64 of shape {(clients, param_count)} with "
            f"contiguous rows, got shape {out.shape} dtype {out.dtype}"
        )
    classes = dense[-1][1][1]
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= classes:
        raise ShapeError(
            f"labels must lie in [0, {classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    target = np.zeros((clients, samples, classes), dtype=np.float64)
    target[
        np.arange(clients)[:, None], np.arange(samples)[None, :], labels
    ] = 1.0

    rate = float(learning_rate)
    current = start_params  # (P,) or (g, P) at the first step, then ``out``
    grads = out
    losses = np.zeros(clients, dtype=np.float64)
    for step in range(local_steps):
        # Forward, caching each Dense input and each ReLU mask.
        cache = []
        activation = inputs
        for entry in layout:
            if entry is None:
                mask = activation > 0
                cache.append(mask)
                activation = np.where(mask, activation, 0.0)
                continue
            weight, bias = _dense_views(current, entry)
            cache.append(activation)
            activation = np.matmul(activation, weight)
            if bias is not None:
                activation += bias[..., None, :]
        losses, grad = _softmax_cross_entropy(activation, target)

        # Backward, writing each dW / db into its columns of ``grads``.
        for index in range(len(layout) - 1, -1, -1):
            entry = layout[index]
            if entry is None:
                grad = grad * cache[index]
                continue
            weight, _ = _dense_views(current, entry)
            weight_grad, bias_grad = _dense_views(grads, entry)
            np.matmul(cache[index].swapaxes(1, 2), grad, out=weight_grad)
            if bias_grad is not None:
                np.sum(grad, axis=1, out=bias_grad)
            if index > 0:  # nothing consumes the gradient w.r.t. the data
                grad = np.matmul(grad, weight.swapaxes(-1, -2))

        # p -= lr * g with Sequential.sgd_step's two roundings.
        grads *= rate
        np.subtract(current, grads, out=out)
        if step == 0 and local_steps > 1:
            current = out
            grads = np.empty((clients, param_count), dtype=np.float64)
    return losses
