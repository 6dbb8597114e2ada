"""Complex-baseband fronthaul links: fading, packing, uplink and downlink legs.

A length-S real message occupies S/2 complex resource blocks; the first
half of the vector is the real part and the second half the imaginary
part. Uplink transmissions are phase-precoded at the edge so the cloud
sees a nonnegative diagonal gain, and the downlink reuses the same fading
draw (TDD reciprocity) with conjugate precoding at the cloud and phase
compensation at the edge. Complex arrays are a definitional view; the
protocol mostly carries the real form.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray

ALPHA_FLOOR = 1e-12  # denominator floor for the power scaling factor


def snr_to_noise_var(snr_db) -> float | Array:
    """Noise variance for a given SNR in dB under unit transmit power."""
    return 10.0 ** (-np.asarray(snr_db, dtype=float) / 10.0)


def pack(s: Array) -> Array:
    """Stacked-halves real vector -> complex vector of half the length."""
    s = np.asarray(s, dtype=float)
    if s.shape[-1] % 2 != 0:
        raise ValueError("real form must have even length")
    half = s.shape[-1] // 2
    return s[..., :half] + 1j * s[..., half:]


def unpack(y: Array) -> Array:
    """Complex vector -> stacked-halves real vector of twice the length."""
    y = np.asarray(y, dtype=complex)
    return np.concatenate([y.real, y.imag], axis=-1)


@dataclass
class ChannelRealization:
    """One fading draw shared by the uplink and downlink legs of a sample.

    ``h`` has shape (..., n_blocks); leading axes batch over samples or
    nodes. Noise variances may be scalars or arrays broadcastable against
    the leading axes (one value per sample).
    """

    h: Array
    sigma_c2: float | Array = 0.0
    sigma_e2: float | Array = 0.0

    @property
    def magnitude(self) -> Array:
        return np.abs(self.h)

    @property
    def phase(self) -> Array:
        return np.angle(self.h)

    def effective_matrix(self) -> Array:
        """Real diagonal gain diag([|h|; |h|]) for a single realization."""
        if self.h.ndim != 1:
            raise ValueError("effective_matrix is defined for a single draw")
        mag = self.magnitude
        return np.diag(np.concatenate([mag, mag]))


def sample_channel(rng: np.random.Generator, n_blocks: int,
                   pathloss: tuple | None = None,
                   sigma_c2: float | Array = 0.0,
                   sigma_e2: float | Array = 0.0,
                   shape: tuple = ()) -> ChannelRealization:
    """Draw i.i.d. circularly-symmetric complex Gaussian fading.

    Without pathloss each entry has unit variance (Rayleigh magnitude).
    With ``pathloss=(d, alpha)`` the per-entry variance is d**(-alpha);
    ``d`` may be an array broadcastable against ``shape``.
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
    std = np.sqrt(np.broadcast_to(np.asarray(factor)[..., None], full) / 2.0)
    h = std * (rng.standard_normal(full) + 1j * rng.standard_normal(full))
    return ChannelRealization(h=h, sigma_c2=sigma_c2, sigma_e2=sigma_e2)


def complex_noise(rng: np.random.Generator, shape: tuple, variance) -> Array:
    """CN(0, variance) draws of ``shape``: every real part, then every imaginary part."""
    std = np.sqrt(np.asarray(variance, dtype=float) / 2.0)
    np.broadcast_to(std, shape)  # raises unless the variance broadcasts against the draw
    return std * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def uplink_transmit(s_tilde: Array, ch: ChannelRealization,
                    rng: np.random.Generator | None = None,
                    noise: Array | None = None) -> Array:
    """Edge-to-cloud leg; returns the received signal in real form.

    The edge rotates each entry by the negative channel phase, so the
    multiplicative channel reduces to the magnitude exactly: the returned
    real form is H s + n with H = diag([|h|; |h|]). ``noise`` may be
    supplied directly (complex, same shape) for reproducible draws.
    """
    s_tilde = np.asarray(s_tilde, dtype=complex)
    if s_tilde.shape != ch.h.shape:
        raise ValueError(f"message shape {s_tilde.shape} != channel shape {ch.h.shape}")
    if noise is None:
        if rng is None:
            raise ValueError("need an rng or an explicit noise draw")
        noise = complex_noise(rng, s_tilde.shape, ch.sigma_c2)
    y = np.abs(ch.h) * s_tilde + noise
    return unpack(y)


def compute_alpha(messages: Array, p_c: float, mode: str) -> Array:
    """Downlink power scaling factor for node-first messages (N, B, blocks).

    Per-RB mode scales each node's message by sqrt(p_c / max_j |m[j]|^2),
    one factor per (node, sample); sum mode shares one factor
    sqrt(p_c / sum_l ||m_l||^2) across the nodes, one per sample. The node
    sum runs over the leading axis, which adds node by node in order. All-zero
    messages carry no information, so the denominator is floored at 1e-12
    instead of rejecting them.
    """
    if p_c <= 0:
        raise ValueError("transmit power budget must be positive")
    m = np.asarray(messages, dtype=complex)
    if mode == "per-rb":
        peak = np.max(np.abs(m) ** 2, axis=-1)
        return np.sqrt(p_c / np.maximum(peak, ALPHA_FLOOR))
    if mode == "sum":
        total = np.sum(np.sum(np.abs(m) ** 2, axis=-1), axis=0)
        return np.sqrt(p_c / np.maximum(total, ALPHA_FLOOR))
    raise ValueError(f"unknown power mode {mode!r}")


def downlink_transmit(m_tilde: Array, ch: ChannelRealization, alpha,
                      rng: np.random.Generator | None = None,
                      noise: Array | None = None) -> Array:
    """Cloud-to-edge leg over the reciprocal (conjugate) channel.

    Returns the complex signal received at the edge:
    alpha * conj(h) * m + n with n ~ CN(0, sigma_e2 I).
    """
    m_tilde = np.asarray(m_tilde, dtype=complex)
    if m_tilde.shape != ch.h.shape:
        raise ValueError(f"message shape {m_tilde.shape} != channel shape {ch.h.shape}")
    if noise is None:
        if rng is None:
            raise ValueError("need an rng or an explicit noise draw")
        noise = complex_noise(rng, m_tilde.shape, ch.sigma_e2)
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim:
        alpha = alpha[..., None]
    return alpha * np.conj(ch.h) * m_tilde + noise


def downlink_decode(y_e_tilde: Array, phase: Array, alpha) -> Array:
    """Edge-side phase compensation and power unscaling; returns real form.

    With the matching realization this recovers H m + n_eff where the
    effective noise variance is sigma_e2 / alpha^2 per complex entry.
    """
    alpha_arr = np.asarray(alpha, dtype=float)
    if np.any(alpha_arr <= 0):
        raise ValueError("power scaling factor must be positive")
    if alpha_arr.ndim:
        alpha_arr = alpha_arr[..., None]
    y = np.asarray(y_e_tilde, dtype=complex)
    decoded = np.exp(1j * np.asarray(phase)) * y / alpha_arr
    return unpack(decoded)
