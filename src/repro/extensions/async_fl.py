"""Semi-asynchronous federated learning (extension).

The paper's Algorithm 1 is synchronous: every round waits for its
slowest selected user. The standard alternative is asynchronous
aggregation (FedAsync-style): each device trains continuously against
whatever global version it last pulled, and the server mixes each
arriving update immediately with a staleness-discounted weight::

    M_G <- (1 - alpha) * M_G + alpha * M_q,
    alpha = mixing_rate / (1 + staleness)^staleness_exponent

where ``staleness`` counts how many server versions elapsed since the
device pulled.

:class:`SemiAsyncTrainer` simulates this with a discrete-event loop on
the same substrates as the synchronous trainer: devices compute in
parallel at ``f_max`` (Eq. 4 delays), uploads serialize on the TDMA
channel FIFO (Eqs. 6-8), and the simulated clock and energy ledger use
the same cost model — so synchronous-vs-asynchronous comparisons are
apples to apples. The bench ``benchmarks/bench_ext_async.py`` runs
that comparison.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.devices.device import UserDevice
from repro.errors import ConfigurationError, TrainingError
from repro.fl.client import LocalUpdateSpec, train_clients
from repro.fl.history import RoundRecord, TrainingHistory
from repro.fl.server import FederatedServer

__all__ = ["SemiAsyncConfig", "SemiAsyncTrainer"]


@dataclass
class SemiAsyncConfig:
    """Knobs of one semi-asynchronous training run.

    Attributes:
        max_updates: server aggregations to apply before stopping.
        bandwidth_hz: uplink resource blocks ``Z``.
        learning_rate: local GD learning rate.
        local_steps: local GD steps per update.
        mixing_rate: base mixing weight ``alpha_0`` in ``(0, 1]``.
        staleness_exponent: polynomial staleness discount ``a >= 0``
            (0 disables staleness discounting).
        eval_every: evaluate after every this many server updates.
        deadline_s: optional simulated-time budget.
    """

    max_updates: int = 300
    bandwidth_hz: float = 2e6
    learning_rate: float = 0.1
    local_steps: int = 1
    mixing_rate: float = 0.6
    staleness_exponent: float = 0.5
    eval_every: int = 1
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_updates <= 0:
            raise ConfigurationError(
                f"max_updates must be positive, got {self.max_updates}"
            )
        # Guards are written so that NaN fails them (``nan <= 0`` is False).
        if not (math.isfinite(self.bandwidth_hz) and self.bandwidth_hz > 0):
            raise ConfigurationError(
                f"bandwidth_hz must be positive, got {self.bandwidth_hz}"
            )
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigurationError(
                f"learning_rate must be positive, got {self.learning_rate}"
            )
        if self.local_steps <= 0:
            raise ConfigurationError(
                f"local_steps must be positive, got {self.local_steps}"
            )
        if not 0.0 < self.mixing_rate <= 1.0:
            raise ConfigurationError(
                f"mixing_rate must be in (0, 1], got {self.mixing_rate}"
            )
        if not (math.isfinite(self.staleness_exponent) and self.staleness_exponent >= 0):
            raise ConfigurationError(
                f"staleness_exponent must be >= 0, got {self.staleness_exponent}"
            )
        if self.eval_every <= 0:
            raise ConfigurationError(
                f"eval_every must be positive, got {self.eval_every}"
            )
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ConfigurationError(
                f"deadline_s must be positive when set, got {self.deadline_s}"
            )

    def staleness_weight(self, staleness: int) -> float:
        """The effective mixing weight for an update of ``staleness``."""
        if staleness < 0:
            raise ConfigurationError(
                f"staleness must be non-negative, got {staleness}"
            )
        return self.mixing_rate / (1.0 + staleness) ** self.staleness_exponent


class SemiAsyncTrainer:
    """Event-driven semi-asynchronous FL over the TDMA uplink.

    Args:
        server: the FLCC (global model + test set + payload size).
        devices: the user population; every device trains continuously.
        config: run configuration.
        label: history label.
    """

    def __init__(
        self,
        server: FederatedServer,
        devices: Sequence[UserDevice],
        config: Optional[SemiAsyncConfig] = None,
        label: str = "semi-async",
    ) -> None:
        if not devices:
            raise TrainingError("cannot train with an empty device population")
        self.server = server
        self.devices = list(devices)
        self.config = config or SemiAsyncConfig()
        self.label = label
        self._spec = LocalUpdateSpec(local_steps=self.config.local_steps)
        self._scratch = server.model.clone()

    def run(self) -> TrainingHistory:
        """Execute the event loop; one history record per aggregation.

        The record's ``round_index`` is the server-update index, its
        ``selected_ids`` the single uploading device, its
        ``round_delay`` the inter-aggregation gap, and ``slack`` the
        time the update waited for the channel.
        """
        config = self.config
        history = TrainingHistory(label=self.label)
        payload = self.server.payload_bits

        # Event queue of (time, tiebreak, device_index, pulled_version).
        # A "compute done" event enqueues the device on the channel.
        counter = itertools.count()
        events = []
        for index, device in enumerate(self.devices):
            finish = device.compute_delay()
            heapq.heappush(events, (finish, next(counter), index, 0))

        trained = np.empty((1, self.server.model.parameter_count))
        channel_free_at = 0.0
        server_version = 0
        previous_aggregation_time = 0.0
        cumulative_energy = 0.0

        while events and server_version < config.max_updates:
            compute_done, _, index, pulled_version = heapq.heappop(events)
            device = self.devices[index]

            upload_start = max(compute_done, channel_free_at)
            upload_delay = device.upload_delay(payload, config.bandwidth_hz)
            upload_end = upload_start + upload_delay
            channel_free_at = upload_end
            wait = upload_start - compute_done

            # Local training against the version the device pulled.
            # (The parameters it pulled are approximated by the current
            # global model just before mixing; staleness still drives
            # the weight, which is the dominant effect.)
            current = self.server.broadcast()
            train_loss = float(
                train_clients(
                    self._scratch,
                    self._spec,
                    server_version + 1,
                    config.learning_rate,
                    current,
                    [device],
                    trained,
                )[0]
            )

            staleness = server_version - pulled_version
            weight = config.staleness_weight(staleness)
            mixed = (1.0 - weight) * current + weight * trained[0]
            self.server.model.set_flat_params(mixed)
            server_version += 1

            compute_energy = device.compute_energy()
            upload_energy = device.upload_energy(payload, config.bandwidth_hz)
            cumulative_energy += compute_energy + upload_energy

            should_eval = (
                server_version % config.eval_every == 0
                or server_version == config.max_updates
            )
            test_loss = test_accuracy = None
            if should_eval and self.server.test_dataset is not None:
                test_loss, test_accuracy = self.server.evaluate()

            history.append(
                RoundRecord(
                    round_index=server_version,
                    selected_ids=(device.device_id,),
                    frequencies={device.device_id: device.cpu.f_max},
                    round_delay=upload_end - previous_aggregation_time,
                    round_energy=compute_energy + upload_energy,
                    compute_energy=compute_energy,
                    upload_energy=upload_energy,
                    slack=wait,
                    cumulative_time=upload_end,
                    cumulative_energy=cumulative_energy,
                    train_loss=train_loss,
                    test_accuracy=test_accuracy,
                    test_loss=test_loss,
                )
            )
            previous_aggregation_time = upload_end

            if config.deadline_s is not None and upload_end >= config.deadline_s:
                break

            # The device pulls the fresh version and starts over.
            next_finish = upload_end + device.compute_delay()
            heapq.heappush(
                events, (next_finish, next(counter), index, server_version)
            )
        return history
