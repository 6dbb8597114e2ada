"""Fronthaul links over fading: the fading draw, link noise, uplink and downlink legs.

A length-S real message occupies S/2 complex resource blocks; the first
half of the vector is the real part and the second half the imaginary
part. Every link function takes and returns these real stacked-halves
rows, the form the encoders emit and the cloud and edges consume; the
complex fading array ``h`` (one entry per resource block) is their only
complex input. Uplink transmissions are phase-precoded at the edge, so
the cloud receives H s + n with the real gain H = diag([|h|; |h|]). The
downlink reuses the same fading draw (TDD reciprocity) with conjugate
precoding at the cloud and phase compensation at the edge, which
delivers H m plus noise scaled by 1/alpha. The downlink legs compute in
the complex view, which stays private to this module. The links are
elementwise maps over node-first (N, B, S) rows, so one call carries
every node.
"""
from __future__ import annotations

import numpy as np

from . import nn

Array = np.ndarray

ALPHA_FLOOR = 1e-12  # denominator floor for the power scaling factor


def snr_to_noise_var(snr_db) -> float | Array:
    """Noise variance for a given SNR in dB under unit transmit power."""
    return 10.0 ** (-np.asarray(snr_db, dtype=float) / 10.0)


def _pack(rows: Array) -> Array:
    """Stacked-halves real rows -> complex rows of half the length."""
    rows = np.asarray(rows, dtype=float)
    if rows.shape[-1] % 2 != 0:
        raise ValueError("real form must have even length")
    half = rows.shape[-1] // 2
    out = np.empty(rows.shape[:-1] + (half,), dtype=complex)
    out.real = rows[..., :half]
    out.imag = rows[..., half:]
    return out


def _unpack(y: Array) -> Array:
    """Complex rows -> stacked-halves real rows of twice the length."""
    return np.concatenate([y.real, y.imag], axis=-1)


def _check_rows(rows: Array, h: Array) -> None:
    if rows.shape != (*h.shape[:-1], 2 * h.shape[-1]):
        raise ValueError(f"rows of shape {rows.shape} do not fit channel shape {h.shape}")


def sample_channel(rng: np.random.Generator, n_blocks: int,
                   pathloss: tuple | None = None, shape: tuple = ()) -> Array:
    """Draw i.i.d. circularly-symmetric complex Gaussian fading h of shape (*shape, n_blocks).

    Without pathloss each entry has unit variance (Rayleigh magnitude).
    With ``pathloss=(d, alpha)`` the per-entry variance is d**(-alpha);
    ``d`` may be an array broadcastable against ``shape``. One draw is
    shared by the uplink and downlink legs of a sample.
    """
    if n_blocks < 1:
        raise ValueError("need at least one resource block")
    factor = 1.0
    if pathloss is not None:
        d, alpha = pathloss
        d = np.asarray(d, dtype=float)
        if np.any(d <= 0):
            raise ValueError("pathloss distance must be positive")
        factor = d ** (-alpha)
    full = (*shape, n_blocks)
    # one std per entry of ``factor``, broadcast by the products below
    std = np.sqrt(np.asarray(factor) / 2.0)[..., None]
    # the bits of std * (re + 1j * im), without its complex temporaries
    h = np.empty(full, dtype=complex)
    np.multiply(std, rng.standard_normal(full), out=h.real)
    np.multiply(std, rng.standard_normal(full), out=h.imag)
    return h


def noise_std(variance) -> Array:
    """Standard deviation of each real component of CN(0, variance) noise."""
    return np.sqrt(np.asarray(variance, dtype=float) / 2.0)


def noise(rng: np.random.Generator, shape: tuple, variance) -> Array:
    """CN(0, variance) link noise for fading of ``shape``, as real rows.

    One ``standard_normal((2, *shape))`` draw gives every real part, then
    every imaginary part; the result has shape (*shape[:-1], 2 * shape[-1]).
    ``variance`` must broadcast against ``shape``. Variance 2 (std 1)
    returns the draw itself, which ``noise_std`` can later scale to any
    variance with the same bits as drawing at that variance.
    """
    std = noise_std(variance)
    try:
        np.broadcast_to(std, shape)
    except ValueError as err:
        raise ValueError(f"noise variance of shape {std.shape} does not broadcast "
                         f"against fading shape {tuple(shape)}") from err
    out = np.empty((*shape[:-1], 2 * shape[-1]))
    _noise_into(rng, std, out, np.empty((2, *shape)))
    return out


def _noise_into(rng: np.random.Generator, std: Array, out: Array, draw: Array) -> None:
    """``noise`` at standard deviation ``std`` into ``out``, its float rows,
    through ``draw``, a (2, *fading shape) float array to draw into."""
    rng.standard_normal(out=draw)
    draw *= std
    np.concatenate((draw[0], draw[1]), axis=-1, out=out)


def gain(h: Array) -> Array:
    """The real effective gain diag([|h|; |h|]) as elementwise row factors."""
    mag = np.abs(h)
    return np.concatenate([mag, mag], axis=-1)


def uplink_transmit(s: Array, h: Array, noise: Array | None) -> Array:
    """Edge-to-cloud leg: the received rows H s + n, or H s when ``noise`` is None.

    The edge rotates each entry by the negative channel phase, so the
    multiplicative channel reduces to the magnitude exactly.
    """
    s = np.asarray(s, dtype=float)
    _check_rows(s, h)
    y = gain(h)
    y *= s
    if noise is not None:
        y += noise
    return y


def compute_alpha(m: Array, p_c: float, mode: str) -> Array:
    """Downlink power scaling factor for node-first message rows (N, B, S).

    Per-RB mode scales each node's message by sqrt(p_c / max_j |m[j]|^2),
    one factor per (node, sample); sum mode shares one factor
    sqrt(p_c / sum_l ||m_l||^2) across the nodes, one per sample. The node
    sum runs over the leading axis, which adds node by node in order. All-zero
    messages carry no information, so the denominator is floored at 1e-12
    instead of rejecting them.
    """
    if p_c <= 0:
        raise ValueError("transmit power budget must be positive")
    power = np.abs(_pack(m)) ** 2
    if mode == nn.PER_RB:
        peak = np.max(power, axis=-1)
        return np.sqrt(p_c / np.maximum(peak, ALPHA_FLOOR))
    if mode == nn.SUM:
        total = np.sum(np.sum(power, axis=-1), axis=0)
        return np.sqrt(p_c / np.maximum(total, ALPHA_FLOOR))
    raise ValueError(f"unknown power mode {mode!r}")


def _per_row(alpha) -> Array:
    alpha = np.asarray(alpha, dtype=float)
    return alpha[..., None] if alpha.ndim else alpha


def downlink_transmit(m: Array, h: Array, alpha, noise: Array) -> Array:
    """Cloud-to-edge leg over the reciprocal (conjugate) channel.

    Returns the rows the edge receives: alpha * conj(h) * m + n, with the
    noise given as real rows.
    """
    m = np.asarray(m, dtype=float)
    _check_rows(m, h)
    # complex addition is per component, so adding the real noise rows to the
    # unpacked signal gives the bits of adding the complex noise before it
    y = _unpack(_per_row(alpha) * np.conj(h) * _pack(m))
    y += noise
    return y


def downlink_decode(y: Array, h: Array, alpha) -> Array:
    """Edge-side phase compensation (a product with h/|h|) and power unscaling.

    With the matching fading draw this recovers H m + n_eff, where the
    effective noise variance is sigma_e2 / alpha^2 per complex entry.
    """
    alpha = _per_row(alpha)
    if np.any(alpha <= 0):
        raise ValueError("power scaling factor must be positive")
    y = np.asarray(y, dtype=float)
    _check_rows(y, h)
    mag = np.abs(h)
    # a link faded to exactly zero (pathloss underflow) has no phase to undo
    phase = np.divide(h, mag, out=np.ones_like(h), where=mag > 0)
    return _unpack(phase * _pack(y) / alpha)
