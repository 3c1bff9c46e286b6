"""The FL central controller (FLCC).

The paper's FLCC is a base station plus an edge server: it broadcasts
the global model, integrates uploaded models with FedAvg (Eq. 18), and
evaluates the global model. Per the paper, its own compute delay and
energy are ignored (Section II-D).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.fl.aggregation import fedavg_aggregate
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.metrics import accuracy
from repro.nn.model import Sequential

__all__ = ["FederatedServer"]


class FederatedServer:
    """The FLCC: global model custody, aggregation, and evaluation.

    Args:
        model: the global model ``M_G`` (owned by the server).
        test_dataset: held-out evaluation data; optional, but required
            for :meth:`evaluate`.
        loss: evaluation loss; defaults to softmax cross-entropy.
        payload_bits: communication payload ``C_model`` per upload.
            When ``None`` it is derived from the model's parameter
            count at 32 bits per parameter.
    """

    def __init__(
        self,
        model: Sequential,
        test_dataset: Optional[ArrayDataset] = None,
        loss=None,
        payload_bits: Optional[float] = None,
    ) -> None:
        self.model = model
        self.test_dataset = test_dataset
        self.loss = loss if loss is not None else SoftmaxCrossEntropy()
        if payload_bits is None:
            payload_bits = float(model.parameter_count * 32)
        self.payload_bits = float(payload_bits)

    def broadcast(self) -> np.ndarray:
        """Return a copy of the global flat parameter vector.

        Models line 5 of Algorithm 1 (the FLCC broadcasts ``M_G^j``).
        """
        return self.model.get_flat_params().copy()

    def aggregate(
        self, updates: Sequence[np.ndarray], weights: Sequence[float]
    ) -> None:
        """FedAvg-integrate client updates into the global model (Eq. 18).

        :class:`~repro.fl.trainer.FederatedTrainer` does not call this:
        it folds each trained block into a
        :class:`~repro.fl.aggregation.FedAvgAccumulator` instead. The
        method stays because ``bench_layers`` instruments it as its
        ``fl.server.aggregate`` stage.

        Args:
            updates: one flat parameter vector per client.
            weights: the matching ``|D_q|`` weights.
        """
        aggregated = fedavg_aggregate(updates, weights)
        self.model.set_flat_params(aggregated)

    def evaluate(
        self,
        dataset: Optional[ArrayDataset] = None,
        batch_size: Optional[int] = None,
    ) -> Tuple[float, float]:
        """Evaluate the global model; returns ``(loss, accuracy)``.

        Args:
            dataset: evaluation data; defaults to the held-out test set
                bound at construction.
            batch_size: inference rows per block; by default
                :meth:`Sequential.predict` sizes its blocks in bytes.

        Raises:
            ValueError: when no dataset is available or it is empty.
        """
        dataset = dataset if dataset is not None else self.test_dataset
        if dataset is None:
            raise ValueError("no evaluation dataset bound to this server")
        if len(dataset) == 0:
            raise ValueError("the evaluation dataset is empty")
        logits = self.model.predict(dataset.inputs, batch_size=batch_size)
        loss_value = self.loss.loss(logits, dataset.labels)
        return float(loss_value), accuracy(logits, dataset.labels)
