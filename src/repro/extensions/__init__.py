"""Extensions beyond the paper's scope.

Features the paper motivates but does not implement, built on the same
substrates:

* :class:`~repro.extensions.async_fl.SemiAsyncTrainer` — a
  semi-asynchronous aggregation loop with staleness-weighted FedAvg,
  the standard alternative to the paper's synchronous rule.
"""

from repro.extensions.async_fl import SemiAsyncConfig, SemiAsyncTrainer

__all__ = [
    "SemiAsyncTrainer",
    "SemiAsyncConfig",
]
