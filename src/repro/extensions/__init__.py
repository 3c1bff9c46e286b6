"""Extensions beyond the paper's scope.

Features the paper motivates but does not implement, built on the same
substrates:

* :class:`~repro.extensions.oort.OortSelection` — Oort-style selection
  that folds each user's recent training loss (statistical utility)
  into a delay-penalized score, the closest published relative of
  Eq. (20);
* :class:`~repro.extensions.async_fl.SemiAsyncTrainer` — a
  semi-asynchronous aggregation loop with staleness-weighted FedAvg,
  the standard alternative to the paper's synchronous rule.
"""

from repro.extensions.async_fl import SemiAsyncConfig, SemiAsyncTrainer
from repro.extensions.oort import OortSelection

__all__ = [
    "SemiAsyncTrainer",
    "SemiAsyncConfig",
    "OortSelection",
]
