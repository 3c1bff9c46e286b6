"""Compression pipeline: plugging compressors into the FL round.

In a compressed FL deployment each client transmits a compressed
*update delta* (trained parameters minus the broadcast global
parameters) instead of the raw parameter vector. The pipeline

1. keeps one compressor instance per client (error-feedback residuals
   are client-local state),
2. declares the payload size in bits, which the TDMA simulator uses
   for each upload's delay and energy (Eqs. 7-8) before anything is
   trained, and refuses an upload of any other size,
3. reconstructs the (lossy) parameter vector the server actually
   receives.

Hand an instance to :class:`repro.fl.trainer.FederatedTrainer` via its
``compression`` argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from repro.compression.quantization import UniformQuantizer
from repro.compression.sparsification import TopKSparsifier
from repro.errors import ConfigurationError

__all__ = ["CompressedUpdate", "CompressionPipeline"]


@dataclass(frozen=True)
class CompressedUpdate:
    """What the server receives from one client.

    Attributes:
        params: reconstructed parameter vector (global + lossy delta).
        payload_bits: transmitted size in bits.
        compression_ratio: raw float32 payload divided by transmitted
            payload (>= 1 for effective compression).
    """

    params: np.ndarray
    payload_bits: float
    compression_ratio: float


class CompressionPipeline:
    """Per-client compression of FL update deltas.

    Args:
        compressor_factory: zero-argument callable building a fresh
            compressor (an object with ``compress``/``decompress``
            whose payload exposes ``payload_bits``) for each client.
        payload_bits: callable mapping the update length ``P`` to the
            bits of every compressed upload; a trainer refuses a
            pipeline without it.
    """

    def __init__(
        self, compressor_factory: Callable[[], object], payload_bits=None
    ) -> None:
        if not callable(compressor_factory):
            raise ConfigurationError("compressor_factory must be callable")
        self._factory = compressor_factory
        self._declared = payload_bits
        self._per_client: Dict[int, object] = {}

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def top_k(
        cls, fraction: float = 0.1, error_feedback: bool = True
    ) -> CompressionPipeline:
        """Top-k sparsification pipeline [5]."""
        return cls(
            lambda: TopKSparsifier(fraction, error_feedback),
            TopKSparsifier(fraction).payload_bits,
        )

    @classmethod
    def quantized(
        cls, bits: int = 8, stochastic: bool = False, seed=None
    ) -> CompressionPipeline:
        """Uniform k-bit quantization pipeline [6]."""
        counter = {"next": 0}

        def factory():
            # Derive a distinct rounding stream per client.
            client_seed = None
            if seed is not None:
                client_seed = seed + counter["next"]
                counter["next"] += 1
            return UniformQuantizer(bits, stochastic=stochastic, seed=client_seed)

        return cls(factory, UniformQuantizer(bits).payload_bits)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop all per-client compressor state (residuals etc.)."""
        self._per_client.clear()

    def payload_bits(self, dimension: int) -> float:
        """Bits of any compressed upload of a ``dimension``-long update."""
        if self._declared is None:
            raise ConfigurationError(
                "this compression pipeline declares no payload size; pass "
                "payload_bits= so the round can be simulated before training"
            )
        return float(self._declared(dimension))

    def _compressor(self, device_id: int):
        compressor = self._per_client.get(device_id)
        if compressor is None:
            compressor = self._factory()
            self._per_client[device_id] = compressor
        return compressor

    def process(
        self,
        device_id: int,
        global_params: np.ndarray,
        local_params: np.ndarray,
    ) -> CompressedUpdate:
        """Compress one client's update and reconstruct server-side.

        Args:
            device_id: the uploading client (keys its residual state).
            global_params: the parameters the round broadcast.
            local_params: the client's trained parameters.

        Returns:
            The :class:`CompressedUpdate` the server works with.
        """
        global_params = np.asarray(global_params, dtype=np.float64).ravel()
        local_params = np.asarray(local_params, dtype=np.float64).ravel()
        if global_params.shape != local_params.shape:
            raise ConfigurationError(
                f"global ({global_params.size}) and local "
                f"({local_params.size}) parameter lengths differ"
            )
        delta = local_params - global_params
        compressor = self._compressor(device_id)
        payload = compressor.compress(delta)
        delta_hat = compressor.decompress(payload)
        raw_bits = 32.0 * delta.size
        transmitted = float(payload.payload_bits)
        declared = self.payload_bits(delta.size)
        if transmitted != declared:
            raise ConfigurationError(
                f"device {device_id}'s compressed upload is {transmitted!r} "
                f"bits, not the declared {declared!r} the round was simulated with"
            )
        ratio = raw_bits / transmitted if transmitted > 0 else float("inf")
        return CompressedUpdate(
            params=global_params + delta_hat,
            payload_bits=transmitted,
            compression_ratio=ratio,
        )
