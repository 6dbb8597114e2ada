"""Dense feed-forward stacks with exact reverse-mode gradients.

Everything runs in float64 numpy. A stack is a flat list of layer
descriptors; its parameters live in a named dict so they can be swapped,
averaged across nodes, and checkpointed without touching layer code.
Forward passes take a batch of row vectors; backward passes return
parameter gradients summed over the batch plus the gradient with respect
to the input.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

Array = np.ndarray

PER_RB = "per-rb"
SUM = "sum"


@dataclass(frozen=True)
class Dense:
    in_dim: int
    out_dim: int


@dataclass(frozen=True)
class Relu:
    pass


@dataclass(frozen=True)
class Projection:
    """Power-capping output activation.

    The vector is read as stacked real and imaginary halves. In per-RB
    mode every (real, imag) pair is rescaled onto the power budget when it
    exceeds it; in sum mode the whole vector is rescaled when its squared
    norm exceeds the budget. Entries already inside the budget pass
    through untouched, so the map is continuous and piecewise smooth.
    """

    power: float
    mode: str = PER_RB


LayerSpec = Dense | Relu | Projection


class LayerStack:
    """An ordered stack of layers with named float64 parameters.

    Two stacks built from the same descriptors and seed hold bit-identical
    parameters. ``version`` increments on every parameter swap so stale
    forward caches can be rejected.
    """

    def __init__(self, layers: Sequence[LayerSpec], seed: int):
        layers = tuple(layers)
        if not layers:
            raise ValueError("a stack needs at least one layer")
        if not isinstance(layers[0], Dense):
            raise ValueError("layer 0 must be dense (defines the input dimension)")
        dim = layers[0].in_dim
        for idx, layer in enumerate(layers):
            if isinstance(layer, Dense):
                if layer.in_dim != dim:
                    raise ValueError(
                        f"layer {idx}: expects input dim {layer.in_dim}, got {dim}"
                    )
                dim = layer.out_dim
            elif isinstance(layer, Projection):
                if dim % 2 != 0:
                    raise ValueError(f"layer {idx}: projection needs an even dim, got {dim}")
                if layer.power < 0:
                    raise ValueError(f"layer {idx}: negative power budget")
                if layer.mode not in (PER_RB, SUM):
                    raise ValueError(f"layer {idx}: unknown projection mode {layer.mode!r}")
        self.layers = layers
        self.seed = int(seed)
        self.in_dim = layers[0].in_dim
        self.out_dim = dim
        self.version = 0
        self.params = self._init_params()

    def _init_params(self) -> dict[str, Array]:
        rng = np.random.default_rng(self.seed)
        params: dict[str, Array] = {}
        for idx, layer in enumerate(self.layers):
            if isinstance(layer, Dense):
                limit = np.sqrt(6.0 / (layer.in_dim + layer.out_dim))
                params[f"dense{idx}.w"] = rng.uniform(
                    -limit, limit, size=(layer.out_dim, layer.in_dim)
                )
                params[f"dense{idx}.b"] = np.zeros(layer.out_dim)
        return params

    @property
    def param_count(self) -> int:
        return sum(p.size for p in self.params.values())

    def set_params(self, params: Mapping[str, Array]) -> None:
        """Swap in a new parameter set (shapes must match) and bump the version."""
        if set(params) != set(self.params):
            raise ValueError("parameter names do not match this stack")
        for name, value in params.items():
            if value.shape != self.params[name].shape:
                raise ValueError(f"shape mismatch for {name}")
        self.params = {name: np.asarray(params[name], dtype=float) for name in self.params}
        self.version += 1


@dataclass
class ForwardCache:
    """Per-layer inputs recorded by one forward pass, consumed by backward."""

    stack: LayerStack
    version: int
    inputs: list[Array]
    output: Array


@dataclass
class GradientSet:
    """Parameter gradients (same names/shapes as the stack) plus the input gradient."""

    param_grads: dict[str, Array]
    input_grad: Array


def forward(stack: LayerStack, x: Array) -> tuple[Array, ForwardCache]:
    """Run the stack on a batch of rows ``x`` and keep what backward needs."""
    h = np.asarray(x, dtype=float)
    if h.ndim != 2:
        raise ValueError("layer 0 input must be a batch of rows")
    if h.shape[1] != stack.in_dim:
        raise ValueError(f"layer 0 input has dim {h.shape[1]}, expected {stack.in_dim}")
    inputs: list[Array] = []
    for idx, layer in enumerate(stack.layers):
        inputs.append(h)
        if isinstance(layer, Dense):
            h = h @ stack.params[f"dense{idx}.w"].T
            h += stack.params[f"dense{idx}.b"]
        elif isinstance(layer, Relu):
            h = np.maximum(h, 0.0)
        else:
            h = projection_forward(h, layer.power, layer.mode)
    return h, ForwardCache(stack, stack.version, inputs, h)


def backward(stack: LayerStack, cache: ForwardCache, upstream: Array) -> GradientSet:
    """Exact vector-Jacobian product through the stack.

    ``upstream`` must match the shape of the cached forward output.
    Parameter gradients are summed over batch rows; the caller owns any
    batch-size divisor.
    """
    if cache.stack is not stack:
        raise ValueError("cache was produced by a different stack")
    if cache.version != stack.version:
        raise ValueError("stale cache: parameters changed since the forward pass")
    g = np.asarray(upstream, dtype=float)
    if g.shape != cache.output.shape:
        raise ValueError(f"upstream shape {g.shape} != output shape {cache.output.shape}")
    grads: dict[str, Array] = {}
    ones = np.ones(g.shape[0])
    last = len(stack.layers) - 1
    for idx in reversed(range(len(stack.layers))):
        layer = stack.layers[idx]
        h_in = cache.inputs[idx]
        if isinstance(layer, Dense):
            grads[f"dense{idx}.w"] = g.T @ h_in
            grads[f"dense{idx}.b"] = ones @ g
            g = g @ stack.params[f"dense{idx}.w"]
        elif isinstance(layer, Relu):
            # below the last layer g is a temporary of this call, so the
            # mask can be applied in place; the last layer's g is upstream
            if idx == last:
                g = g * (h_in > 0.0)
            else:
                g *= h_in > 0.0
        else:
            g = projection_backward(h_in, layer.power, layer.mode, g)
    return GradientSet(grads, g)


def _budget_scale(sq: Array, power: float) -> tuple[Array, Array]:
    """Rescale factor sqrt(P / max(sq, P)) and its denominator max(sq, P).

    The factor is exactly 1 on and inside the budget and sqrt(P / sq)
    beyond it, so no entry branches. A zero budget makes max(sq, P) zero
    where sq == 0; those entries lie on the boundary and pass through, so
    their factor and their denominator are set to 1.
    """
    denom = np.maximum(sq, power)
    if power == 0.0:
        boundary = denom == 0.0
        denom[boundary] = 1.0
        return boundary.astype(float), denom
    return np.sqrt(power / denom), denom


def projection_forward(v: Array, power: float, mode: str = PER_RB) -> Array:
    """Cap transmit power, preserving direction of every clipped entry.

    Points exactly on the budget boundary take the pass-through branch.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-1] % 2 != 0:
        raise ValueError("projection input length must be even")
    if power < 0:
        raise ValueError("power budget must be nonnegative")
    if mode == PER_RB:
        half = v.shape[-1] // 2
        vr, vi = v[..., :half], v[..., half:]
        scale, _ = _budget_scale(vr * vr + vi * vi, power)
        return np.concatenate([vr * scale, vi * scale], axis=-1)
    if mode == SUM:
        scale, _ = _budget_scale(np.sum(v * v, axis=-1, keepdims=True), power)
        return v * scale
    raise ValueError(f"unknown projection mode {mode!r}")


def projection_backward(v: Array, power: float, mode: str, upstream: Array) -> Array:
    """Exact Jacobian of the projection: identity on pass-through entries,
    the normalization-branch Jacobian sqrt(P)/|w| (I - ww^T/|w|^2) on clipped ones."""
    v = np.asarray(v, dtype=float)
    g = np.asarray(upstream, dtype=float)
    if v.shape[-1] % 2 != 0:
        raise ValueError("projection input length must be even")
    if power < 0:
        raise ValueError("power budget must be nonnegative")
    if g.shape != v.shape:
        raise ValueError("upstream shape must match the projection input")
    if mode == PER_RB:
        half = v.shape[-1] // 2
        vr, vi = v[..., :half], v[..., half:]
        gr, gi = g[..., :half], g[..., half:]
        p = vr * vr + vi * vi
        coef, denom = _budget_scale(p, power)
        dot = (gr * vr + gi * vi) / denom * (p > power)
        out_r = coef * (gr - vr * dot)
        out_i = coef * (gi - vi * dot)
        return np.concatenate([out_r, out_i], axis=-1)
    if mode == SUM:
        total = np.sum(v * v, axis=-1, keepdims=True)
        coef, denom = _budget_scale(total, power)
        dot = np.sum(g * v, axis=-1, keepdims=True) / denom * (total > power)
        return coef * (g - v * dot)
    raise ValueError(f"unknown projection mode {mode!r}")


def softmax(logits: Array) -> Array:
    z = np.asarray(logits, dtype=float)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits: Array, label) -> tuple[Array, Array]:
    """Stabilized cross entropy with its gradient.

    Single form: ``logits`` of shape (X,) with an int label; batched form:
    (B, X) logits with a length-B label array. Returns (loss, grad) with
    loss scalar or (B,) and grad shaped like ``logits``.
    """
    z = np.asarray(logits, dtype=float)
    single = z.ndim == 1
    z2 = z[None, :] if single else z
    labels = np.atleast_1d(np.asarray(label, dtype=int))
    if labels.shape[0] != z2.shape[0]:
        raise ValueError("label count does not match the batch")
    n_classes = z2.shape[1]
    if np.any(labels < 0) or np.any(labels >= n_classes):
        raise ValueError(f"label out of range [0, {n_classes})")
    shift = z2 - z2.max(axis=1, keepdims=True)
    exp_shift = np.exp(shift)
    norm = exp_shift.sum(axis=1)
    loss = np.log(norm) - shift[np.arange(z2.shape[0]), labels]
    grad = exp_shift / norm[:, None]
    grad[np.arange(z2.shape[0]), labels] -= 1.0
    if single:
        return float(loss[0]), grad[0]
    return loss, grad


def sgd_step(params: Mapping[str, Array], grads: Mapping[str, Array], eta: float) -> dict[str, Array]:
    """Plain gradient step p <- p - eta * g, returning a fresh dict."""
    if set(params) != set(grads):
        raise ValueError("gradient names do not match parameters")
    out = {}
    for name, p in params.items():
        g = grads[name]
        if np.shape(g) != np.shape(p):
            raise ValueError(f"shape mismatch for {name}")
        out[name] = p - eta * g
    return out


def apply_update(stack: LayerStack, summed_grads: Mapping[str, Array], eta: float,
                 divisor: float = 1.0) -> None:
    """Commit p <- p - (eta/divisor) * g to the stack.

    Here and in the optimizers, ``stack`` is anything that holds a
    ``params`` dict and a ``set_params`` method: a layer stack, or a
    whole cloud model. Both the round protocol and the centralized
    reference path go through this helper so their floating-point
    arithmetic is identical.
    """
    stack.set_params(sgd_step(stack.params, summed_grads, eta / divisor))


def zero_grads_like(stack: LayerStack) -> dict[str, Array]:
    return {name: np.zeros_like(p) for name, p in stack.params.items()}


def accumulate(into: dict[str, Array], grads: Mapping[str, Array]) -> dict[str, Array]:
    for name, g in grads.items():
        into[name] = into[name] + g
    return into


class SgdOptimizer:
    """Stateless SGD; exists so edge and cloud share one update interface."""

    kind = "sgd"

    def __init__(self, eta: float):
        self.eta = eta

    def step(self, stack: LayerStack, summed_grads: Mapping[str, Array], divisor: float) -> None:
        apply_update(stack, summed_grads, self.eta, divisor)


class AdamOptimizer:
    """Adam applied to the batch-averaged gradient on one stack."""

    kind = "adam"

    def __init__(self, eta: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.eta = eta
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: dict[str, Array] = {}
        self.v: dict[str, Array] = {}

    def step(self, stack: LayerStack, summed_grads: Mapping[str, Array], divisor: float) -> None:
        self.t += 1
        new_params = {}
        for name, p in stack.params.items():
            g = summed_grads[name] / divisor
            if name not in self.m:
                self.m[name], self.v[name] = np.zeros_like(p), np.zeros_like(p)
            m, v = self.m[name], self.v[name]
            # the moments are updated in place, in the same operation order
            # as beta * m + (1 - beta) * g
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1 ** self.t)
            v_hat = v / (1.0 - self.beta2 ** self.t)
            new_params[name] = p - self.eta * m_hat / (np.sqrt(v_hat) + self.eps)
        stack.set_params(new_params)


def make_optimizer(kind: str, eta: float):
    if kind == "sgd":
        return SgdOptimizer(eta)
    if kind == "adam":
        return AdamOptimizer(eta)
    raise ValueError(f"unknown optimizer {kind!r}")
