"""Local client training (the paper's Eq. 3).

Each selected user updates the broadcast model on its own data with
gradient descent. The paper's local update is a single full-batch GD
step per round (Eq. 3) — this is what makes the FedAvg round exactly
equivalent to a centralized step on the selected users' pooled data
(Eq. 19). The trainer also supports multiple local steps and
mini-batching as FedAvg-style extensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.errors import ConfigurationError, ShapeError, TrainingError
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Sequential
from repro.nn.stacked import is_stackable, stacked_local_update
from repro.rng import SeedLike, derive_seed, ensure_generator

__all__ = ["LocalTrainer", "LocalUpdateSpec", "RowSink", "train_clients"]

# Working-set budget of one stacked pass (a typical L2): shards plus
# result rows of the clients trained together.
_BLOCK_BYTES = 4 << 20

# Eq. 3's loss; stateless, so one instance serves every client.
_LOSS = SoftmaxCrossEntropy()


class LocalTrainer:
    """Runs a user's local model update.

    Args:
        learning_rate: GD learning rate ``tau``.
        local_steps: gradient steps per round (paper: 1).
        batch_size: mini-batch size; ``None`` (paper setting) uses the
            full local dataset every step, i.e. exact Eq. (3).
        seed: seed for mini-batch sampling (unused in full-batch mode).
    """

    def __init__(
        self,
        learning_rate: float = 0.1,
        local_steps: int = 1,
        batch_size: Optional[int] = None,
        seed: SeedLike = None,
    ) -> None:
        if learning_rate <= 0:
            raise ConfigurationError(
                f"learning_rate must be positive, got {learning_rate}"
            )
        if local_steps <= 0:
            raise ConfigurationError(
                f"local_steps must be positive, got {local_steps}"
            )
        if batch_size is not None and batch_size <= 0:
            raise ConfigurationError(
                f"batch_size must be positive when given, got {batch_size}"
            )
        self.learning_rate = float(learning_rate)
        self.local_steps = int(local_steps)
        self.batch_size = batch_size
        self._seed = seed
        self._generator: Optional[np.random.Generator] = None

    @property
    def _rng(self) -> np.random.Generator:
        """The mini-batch generator, built on first use.

        Full-batch training (the paper's setting) never draws from it,
        and seeding a generator costs more than the rest of the
        constructor, once per client per round.
        """
        if self._generator is None:
            self._generator = ensure_generator(self._seed)
        return self._generator

    def train(self, model: Sequential, dataset: ArrayDataset) -> float:
        """Update ``model`` in place on ``dataset``; return the last loss.

        Args:
            model: the model holding the freshly broadcast global
                parameters; mutated in place.
            dataset: the user's local dataset ``D_q``.

        Returns:
            The training loss of the final gradient step (before that
            step's update is applied).

        Raises:
            TrainingError: if the dataset is empty.
        """
        if len(dataset) == 0:
            raise TrainingError("cannot run a local update on an empty dataset")
        last_loss = 0.0
        for _ in range(self.local_steps):
            if self.batch_size is None:
                inputs, labels = dataset.inputs, dataset.labels
            else:
                take = min(self.batch_size, len(dataset))
                batch = self._rng.choice(len(dataset), size=take, replace=False)
                inputs, labels = dataset.inputs[batch], dataset.labels[batch]
            outputs = model.forward(inputs, training=True)
            last_loss, grad = _LOSS.loss_and_grad(outputs, labels)
            # Nothing reads the gradient w.r.t. the local data.
            model.backward(grad, input_grad=False)
            # p -= lr * g in place, bitwise identical to Sgd.step with
            # zero weight decay.
            model.sgd_step(self.learning_rate)
        return float(last_loss)


@dataclass(frozen=True)
class LocalUpdateSpec:
    """The local-update hyperparameters a backend trains with.

    Attributes mirror :class:`LocalTrainer` but the rate, which each call
    passes; ``seed`` roots the per-``(round, device)`` mini-batch
    sampling seeds that keep stochastic local updates backend-independent.
    """

    local_steps: int = 1
    batch_size: Optional[int] = None
    seed: int = 0

    def make_trainer(
        self, learning_rate: float, round_index: int, device_id: int
    ) -> LocalTrainer:
        """Build the :class:`LocalTrainer` for one client task."""
        return LocalTrainer(
            learning_rate=learning_rate,
            local_steps=self.local_steps,
            batch_size=self.batch_size,
            seed=derive_seed(
                self.seed, "minibatch", str(round_index), str(device_id)
            ),
        )


class RowSink:
    """Where :func:`train_clients` puts trained rows, block by block.

    ``rows(start, stop)`` is the float64 ``(stop - start, P)``
    destination, rows contiguous, of clients ``start:stop``;
    ``take(start, rows)`` receives the block once trained. Blocks come
    in selection order and may be overwritten once ``take`` returns.
    This base sink trains into, and keeps, the rows of one matrix.
    """

    def __init__(self, out: Optional[np.ndarray] = None) -> None:
        self.out = out

    def rows(self, start: int, stop: int) -> np.ndarray:
        """The destination of the block of clients ``start:stop``."""
        return self.out[start:stop]

    def take(self, start: int, rows: np.ndarray) -> None:
        """Receive the trained block that starts at client ``start``."""


def train_clients(
    scratch: Sequential,
    spec: LocalUpdateSpec,
    round_index: int,
    learning_rate: float,
    start_params: np.ndarray,
    devices: Sequence,
    out,
) -> np.ndarray:
    """Run the local update (Eq. 3) of every device in ``devices``.

    The one training primitive: every execution backend calls it for a
    whole selection or for one chunk of it, and separated learning, the
    semi-asynchronous trainer and personalization call it directly.
    Client ``i`` starts from ``start_params`` — the broadcast vector
    shared by all, or row ``i`` of a per-client start matrix. Rows do
    not depend on which other clients share the call, so any chunking
    of a selection yields the same bytes.

    Clients are trained in consecutive blocks, each handed to ``out``
    once done. In a block, full-batch updates of a Dense/ReLU model are
    trained together by :func:`repro.nn.stacked.stacked_local_update`,
    grouped by shard size. Everything else — conv models (one client
    per block), mini-batching, and shards that are not plain
    C-contiguous float64 matrices of the model's input width — goes one
    client at a time through :meth:`LocalTrainer.train`, whose result
    the stacked kernel reproduces bit for bit.

    Args:
        scratch: a model of the trained architecture; its parameters
            are overwritten.
        spec: local-update hyperparameters.
        round_index: 1-based FL round ``j`` (seeds mini-batch draws).
        learning_rate: the local rate ``tau``.
        start_params: the flat parameter vector every client starts
            from, or a ``(len(devices), P)`` matrix whose row ``i``
            client ``i`` starts from.
        devices: the clients, anything with ``device_id`` and
            ``dataset`` attributes.
        out: a :class:`RowSink`, or a ``(len(devices), P)`` float64
            matrix with contiguous rows (a fresh matrix, or a
            shared-memory slot range) to train into. It must not
            overlap a start matrix.

    Returns:
        ``(len(devices),)`` float64 training losses, in ``devices`` order.

    Raises:
        ConfigurationError: for a non-positive rate or step count.
        TrainingError: if a device's dataset is empty.
        ShapeError: for inputs or labels that do not fit the model, or
            a start matrix without one row per device.
    """
    per_client = np.ndim(start_params) == 2
    if per_client:
        start_params = np.ascontiguousarray(start_params, dtype=np.float64)
        if start_params.shape[0] != len(devices):
            raise ShapeError(
                f"a start matrix needs one row per device ({len(devices)}), "
                f"got shape {start_params.shape}"
            )
    else:
        start_params = np.asarray(start_params, dtype=np.float64).ravel()
    sink = out if isinstance(out, RowSink) else RowSink(out)
    size = start_params.shape[-1]
    datasets = [device.dataset for device in devices]
    losses = np.empty(len(datasets), dtype=np.float64)
    stacking = spec.batch_size is None and is_stackable(scratch)
    if stacking:
        # No per-client trainer is built on this path: let one reject
        # the rate and step count it would have rejected.
        LocalTrainer(learning_rate, spec.local_steps)
        width = scratch.layers[0].in_features
        # A block's shards plus result rows fit in cache, so gradients
        # are scaled and subtracted before they leave it; ``ends[i]`` is
        # the bytes of clients ``0..i``.
        ends = np.cumsum([(d.inputs.shape[0] * width + size) * 8 for d in datasets])
    start = 0
    while start < len(datasets):
        stop = start + 1  # one client per block, or as many as fit when stacking
        if stacking:
            budget = _BLOCK_BYTES + (ends[start - 1] if start else 0)
            stop = max(stop, int(np.searchsorted(ends, budget, side="right")))
        rows = sink.rows(start, stop)
        by_size: Dict[int, List[int]] = {}
        one_by_one = []
        for index in range(start, stop):
            inputs = datasets[index].inputs
            if (
                stacking
                and inputs.ndim == 2
                and inputs.shape[0] > 0
                and inputs.shape[1] == width
                and inputs.dtype == np.float64
                and inputs.flags.c_contiguous
            ):
                by_size.setdefault(inputs.shape[0], []).append(index)
            else:
                one_by_one.append(index)
        for shard_size, members in by_size.items():
            shards = [datasets[index] for index in members]
            # A run of consecutive rows trains straight into ``rows``
            # (and starts from a view of the start matrix); interleaved
            # rows are gathered and scattered.
            first, last = members[0], members[-1]
            consecutive = last - first + 1 == len(members)
            block = (
                rows[first - start : last - start + 1]
                if consecutive
                else np.empty((len(members), size))
            )
            picked = slice(first, last + 1) if consecutive else members
            begin = start_params[picked] if per_client else start_params
            losses[picked] = stacked_local_update(
                scratch,
                np.concatenate([shard.inputs for shard in shards]).reshape(
                    len(members), shard_size, width
                ),
                np.concatenate([shard.labels for shard in shards]).reshape(
                    len(members), shard_size
                ),
                begin,
                learning_rate,
                spec.local_steps,
                block,
            )
            if not consecutive:
                rows[np.asarray(members) - start] = block
        for index in one_by_one:
            device = devices[index]
            scratch.set_flat_params(
                start_params[index] if per_client else start_params
            )
            trainer = spec.make_trainer(learning_rate, round_index, device.device_id)
            losses[index] = trainer.train(scratch, datasets[index])
            scratch.get_flat_params(out=rows[index - start])
        sink.take(start, rows)
        start = stop
    return losses
