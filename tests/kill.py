"""Kill a training run at the start of a round, as ``SIGKILL`` would.

A killed worker leaves the checkpoint of the last cadence round it
finished and a trace that ends inside the round it was in. Raising a
:class:`BaseException` subclass from the first stage of round ``r + 1``
leaves the same files: the trainer's ``except Exception`` does not see
it, so no ``run_stop`` record is written, and the span closings that
unwinding adds are all ones that resume cuts from the trace anyway.
"""

from __future__ import annotations


class Killed(BaseException):
    """The simulated kill; not an ``Exception``, like a real one."""


def run_killed_after(trainer, round_index: int) -> None:
    """Run ``trainer`` and kill it at the start of round ``round_index + 1``.

    Give the trainer a ``checkpoint_path`` and ``checkpoint_every=1``
    to find round ``round_index``'s checkpoint on disk afterwards.
    """
    refresh_channels = trainer._refresh_channels

    def refresh_or_die(state):
        if state.round_index == round_index + 1:
            raise Killed(f"killed at the start of round {state.round_index}")
        refresh_channels(state)

    trainer._refresh_channels = refresh_or_die
    try:
        trainer.run()
    except Killed:
        return
    finally:
        del trainer._refresh_channels
    raise AssertionError(f"the run ended before round {round_index + 1}")
