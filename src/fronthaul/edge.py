"""Edge node behavior: observation encoding and the per-node gradient.

Every node's encoder lives in one ``EncoderSet`` that one optimizer
steps. Each encoder ends with the power projection, so every message a
node emits already satisfies its transmit constraint. A node's gradient
only ever reads that node's cache, parameters and delivered gradient
rows. The round protocol turns the gradients into the encoders' step.
"""
from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from . import nn

Array = np.ndarray


class EncoderSet(nn.StackSet):
    """Every node's encoder as one stack set with the node axis first.

    N dedicated encoders hold one slice each, node i owning slice i and
    drawn from ``seeds[i]``; a shared encoder holds one slice, which serves
    any number of nodes and is saved with its leading axis of 1. The
    layers must end in the power projection, which ``nn.check_layers``
    holds to an even message length.
    """

    def __init__(self, layers: Sequence[nn.LayerSpec], seeds: Sequence[int],
                 cqie: bool = False, shared: bool = False):
        if shared and len(seeds) != 1:
            raise ValueError("a shared encoder set holds exactly one encoder")
        if not layers or not isinstance(layers[-1], nn.Projection):
            raise ValueError("encoder must end with the power projection")
        super().__init__(layers, seeds)
        self.cqie = cqie
        self.shared = shared

    def node_encoder(self, node: int) -> nn.StackView:
        """The encoder node ``node`` encodes with."""
        return self.slice_view(0 if self.shared else node)

    def check_nodes(self, n_nodes: int) -> None:
        """Raise ValueError unless the set can encode for ``n_nodes`` nodes:
        dedicated encoders serve at most one node each, a shared one any
        number. This is the one population rule for encoders: ``encode``,
        ``protocol.evaluate`` and ``protocol.run_inference`` call it before
        any draw."""
        if not self.shared and n_nodes > self.n_slices:
            raise ValueError(f"{n_nodes} nodes requested but only {self.n_slices} trained "
                             "encoders exist (enable encoder sharing to scale up)")

    def step_gradients(self, grads: Mapping[str, Array], counts: Array
                       ) -> tuple[Mapping[str, Array], Array | int]:
        """The optimizer's (gradients, divisor) from node-first gradient sums
        and active counts: per slice for dedicated encoders; for a shared one
        the mean over nodes of each node's average (a node with no active
        sample has a zero sum and adds nothing)."""
        if not self.shared:
            return grads, counts
        per_node = np.maximum(counts, 1).astype(float)
        return ({name: (g / per_node.reshape(-1, *(1,) * (g.ndim - 1))).sum(axis=0, keepdims=True)
                 for name, g in grads.items()}, len(counts))


def encoder_layers(obs_dim: int, message_dim: int, hidden: tuple[int, ...],
                   p_e: float, power_mode: str, cqie: bool = False) -> list[nn.LayerSpec]:
    """The layers of a multilayer perceptron encoder ending in the power projection.

    With channel quality at the node, the magnitude vector (one entry per
    resource block) is concatenated to the observation at the input.
    """
    if message_dim % 2 != 0:
        raise ValueError("message length must be even")
    in_dim = obs_dim + message_dim // 2 if cqie else obs_dim
    return [*nn.perceptron(in_dim, *hidden, message_dim), nn.Projection(p_e, power_mode)]


def cqi_side_input(magnitude: Array, pathloss: bool) -> Array:
    """Magnitude side input for the encoder.

    Raw magnitudes are near unit scale under pure Rayleigh fading; with
    pathloss they span orders of magnitude, so the log compresses them.
    """
    mag = np.asarray(magnitude, dtype=float)
    if pathloss:
        return np.log10(np.maximum(mag, 1e-300))
    return mag


def encode(encoders: EncoderSet, observations: Array, cqi: Array | None = None,
           keep_cache: bool = True, first_node: int = 0
           ) -> tuple[Array, nn.ForwardCache | None]:
    """Every node's messages s_i = projection(encoder_i(a_i [, cqi_i])), (n, B, S).

    ``observations`` is (n, B, A), the rows of nodes ``first_node`` to
    ``first_node + n - 1``; ``cqi`` (n, B, blocks) is present exactly when
    the set takes channel quality input. Dedicated encoders serve those
    nodes with their own slices; a shared encoder serves any. One ``nn.forward``
    runs every node's stack over the node axis, each node's products the
    same BLAS calls as on its own. Returns the messages and that call's
    ``nn.ForwardCache``, which names the set and its version. Inference
    passes ``keep_cache=False``: the forward pass keeps nothing and no
    cache comes back.
    """
    values = np.asarray(observations, dtype=float)
    if values.ndim != 3:
        raise ValueError("observations must be (nodes, batch, length)")
    if encoders.cqie != (cqi is not None):
        raise ValueError(f"the encoders take {'a' if encoders.cqie else 'no'} channel "
                         "quality side input")
    if encoders.cqie:
        values = np.concatenate([values, np.asarray(cqi, dtype=float)], axis=-1)
    stop = first_node + len(values)
    encoders.check_nodes(stop)
    return nn.forward(encoders.node_range(first_node, stop), values, keep_cache=keep_cache)


def batch_gradient(encoders: EncoderSet, cache: nn.ForwardCache, upstream: Array
                   ) -> dict[str, Array]:
    """Per node, the sum over its batch of (ds_i/dpsi_i) u_ib for upstream
    rows u_ib, node-first (n, ...): slice i reads only node i's cache and
    rows. No node reads the gradient with respect to its observations, so
    the backward pass does not form it. A cache of another set, or of an
    older version of this one, is rejected through ``check_cache``."""
    encoders.check_cache(cache)
    return nn.backward(cache.stack, cache, upstream, input_grad=False).param_grads
