"""Edge node behavior: observation encoding and the per-node gradient.

Each node owns one encoder stack whose final layer is the power
projection, so every message it emits already satisfies the node's
transmit constraint. The gradient only ever sees this node's cache and
the gradient rows delivered for it; nothing here takes another node's
observations or parameters. The round protocol turns that gradient
into the node's step.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn

Array = np.ndarray


@dataclass
class EdgeNode:
    node_id: int
    encoder: nn.LayerStack
    power_mode: str = nn.PER_RB
    p_e: float = 1.0
    cqie: bool = False

    def __post_init__(self):
        if self.encoder.out_dim % 2 != 0:
            raise ValueError("encoder output length must be even")
        last = self.encoder.layers[-1]
        if not isinstance(last, nn.Projection):
            raise ValueError("encoder must end with the power projection")
        if last.mode != self.power_mode or last.power != self.p_e:
            raise ValueError("encoder projection does not match the node's power budget")

    @property
    def message_dim(self) -> int:
        return self.encoder.out_dim

    @property
    def obs_dim(self) -> int:
        blocks = self.encoder.out_dim // 2
        return self.encoder.in_dim - blocks if self.cqie else self.encoder.in_dim


def build_encoder(obs_dim: int, message_dim: int, hidden: tuple[int, ...],
                  p_e: float, power_mode: str, seed: int, cqie: bool = False) -> nn.LayerStack:
    """Multilayer perceptron encoder ending in the power projection.

    With channel quality at the node, the magnitude vector (one entry per
    resource block) is concatenated to the observation at the input.
    """
    if message_dim % 2 != 0:
        raise ValueError("message length must be even")
    in_dim = obs_dim + message_dim // 2 if cqie else obs_dim
    layers: list[nn.LayerSpec] = []
    dim = in_dim
    for width in hidden:
        layers += [nn.Dense(dim, width), nn.Relu()]
        dim = width
    layers += [nn.Dense(dim, message_dim), nn.Projection(p_e, power_mode)]
    return nn.LayerStack(layers, seed)


def cqi_side_input(magnitude: Array, pathloss: bool) -> Array:
    """Magnitude side input for the encoder.

    Raw magnitudes are near unit scale under pure Rayleigh fading; with
    pathloss they span orders of magnitude, so the log compresses them.
    """
    mag = np.asarray(magnitude, dtype=float)
    if pathloss:
        return np.log10(np.maximum(mag, 1e-300))
    return mag


def encode(node: EdgeNode, observation, cqi: Array | None = None
           ) -> tuple[Array, nn.ForwardCache]:
    """Message s = projection(encoder(a [, cqi])) plus the forward cache.

    ``observation`` is a batch of rows; ``cqi`` must be present exactly
    when the node runs with channel quality input, one row per sample.
    """
    values = np.asarray(observation, dtype=float)
    if node.cqie:
        if cqi is None:
            raise ValueError("node expects a channel quality side input")
        x = np.concatenate([values, np.asarray(cqi, dtype=float)], axis=-1)
    else:
        if cqi is not None:
            raise ValueError("node does not take a channel quality side input")
        x = values
    return nn.forward(node.encoder, x)


def batch_gradient(node: EdgeNode, cache: nn.ForwardCache, upstream: Array) -> dict[str, Array]:
    """Sum over the batch of (ds/dpsi) u_b for upstream rows u_b."""
    return nn.backward(node.encoder, cache, upstream).param_grads
