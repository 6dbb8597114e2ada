"""Desk-scale simulator for split edge-cloud learning over fading fronthaul links.

Edge nodes encode local observations into power-constrained messages,
transmit them over simulated fading uplinks to a node-count-agnostic
multi-branch cloud model, and receive their gradients back over the
reciprocal downlink. Training runs as five-phase communication rounds;
the reference implementations that cross-check them live in ``oracles``.
"""

from . import channel, checkpoint, cloud, config, data, edge, experiment, nn, oracles, protocol

__all__ = [
    "channel",
    "checkpoint",
    "cloud",
    "config",
    "data",
    "edge",
    "experiment",
    "nn",
    "oracles",
    "protocol",
]

__version__ = "0.1.0"
