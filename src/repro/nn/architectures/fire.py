"""The SqueezeNet Fire module.

A Fire module squeezes the channel dimension with a 1x1 convolution and
re-expands it with parallel 1x1 and 3x3 convolutions whose outputs are
concatenated — the building block that lets SqueezeNet reach AlexNet
accuracy with ~50x fewer parameters.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.activations import rectify
from repro.nn.conv import Conv2D
from repro.nn.layer import Layer
from repro.rng import SeedLike, spawn_generators

__all__ = ["Fire"]


class Fire(Layer):
    """SqueezeNet Fire module: squeeze (1x1) then expand (1x1 || 3x3).

    Both the squeeze output and the concatenated expand output pass
    through ReLU. The 3x3 expand branch uses padding 1 so both branches
    produce identical spatial sizes.

    Args:
        in_channels: input channel count.
        squeeze_channels: channels of the squeeze 1x1 convolution.
        expand_channels: channels of *each* expand branch; the module
            output has ``2 * expand_channels`` channels.
        seed: seed or generator for the three child convolutions.
    """

    def __init__(
        self,
        in_channels: int,
        squeeze_channels: int,
        expand_channels: int,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        if squeeze_channels <= 0 or expand_channels <= 0:
            raise ConfigurationError(
                "squeeze_channels and expand_channels must be positive, got "
                f"{squeeze_channels} and {expand_channels}"
            )
        rngs = spawn_generators(seed, 3)
        self.squeeze = Conv2D(in_channels, squeeze_channels, 1, seed=rngs[0])
        self.expand1 = Conv2D(squeeze_channels, expand_channels, 1, seed=rngs[1])
        self.expand3 = Conv2D(
            squeeze_channels, expand_channels, 3, padding=1, seed=rngs[2]
        )
        self.in_channels = int(in_channels)
        self.out_channels = 2 * int(expand_channels)
        self.expand_channels = int(expand_channels)
        # Expose child parameters under prefixed names so the module
        # behaves as a single Layer: the arrays are shared (not copied),
        # and all library code mutates parameter arrays in place.
        for prefix, child in (
            ("squeeze", self.squeeze),
            ("expand1", self.expand1),
            ("expand3", self.expand3),
        ):
            for name in child.params:
                self.params[f"{prefix}.{name}"] = child.params[name]
                self.grads[f"{prefix}.{name}"] = child.grads[name]
        self._squeeze_mask: Optional[np.ndarray] = None
        self._out_mask: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        # Conv2D outputs are fresh arrays, so they are rectified in place.
        squeezed = self.squeeze.forward(inputs, training=training)
        rectify(squeezed, out=squeezed)
        n, _, h, w = squeezed.shape
        # Both expand branches land in one channels-last block.
        out = np.empty((n, h, w, self.out_channels)).transpose(0, 3, 1, 2)
        out[:, : self.expand_channels] = self.expand1.forward(
            squeezed, training=training
        )
        out[:, self.expand_channels :] = self.expand3.forward(
            squeezed, training=training
        )
        rectify(out, out=out)
        if training:
            self._squeeze_mask = squeezed > 0
            self._out_mask = out > 0
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._squeeze_mask is None or self._out_mask is None:
            raise RuntimeError("backward called before forward(training=True)")
        grad_pre = grad_output * self._out_mask
        grad_squeezed = self.expand1.backward(
            grad_pre[:, : self.expand_channels]
        ) + self.expand3.backward(grad_pre[:, self.expand_channels :])
        grad_squeezed *= self._squeeze_mask
        return self.squeeze.backward(grad_squeezed)

    def __repr__(self) -> str:
        return (
            f"Fire(in={self.in_channels}, squeeze="
            f"{self.squeeze.out_channels}, expand={self.expand_channels}x2)"
        )
