"""Dense feed-forward stacks with exact reverse-mode gradients.

Everything runs in float64 numpy. A stack is a flat list of layer
descriptors; its parameters are named views of one buffer
(``ParamSet``), so they can be swapped, checkpointed and stepped in one
pass without touching layer code.
Forward passes take a batch of row vectors and keep only what the
backward pass reads, or nothing when the caller runs forward only;
backward passes return parameter gradients summed over the batch and,
unless the caller declines it, the gradient with respect to the input.

The same two calls run many stacks of one layout at once: node-first
rows (n, B, in) with node-stacked parameters ((n, out, in) weights and
(n, out) biases), or with one shared slice ((1, out, in), (1, out)).
A ``StackSet`` holds such stacks and hands out both forms. Each node's
products are then the same BLAS calls a 2-D call on a view of its
slice makes, so the bits match, and the parameter gradients come back
node-first, one slice per node. The match holds for views of the
slices, not for copies: on a copy of a slice a product can round
differently in the last bit.
"""
from __future__ import annotations

import copy
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

Array = np.ndarray

PER_RB = "per-rb"
SUM = "sum"
POWER_MODES = (PER_RB, SUM)


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


def perceptron(*widths: int) -> list[LayerSpec]:
    """Dense layers through ``widths``, a Relu between each two:
    ``perceptron(6, 8, 4)`` is Dense(6, 8), Relu, Dense(8, 4)."""
    layers: list[LayerSpec] = []
    for in_dim, out_dim in zip(widths, widths[1:]):
        layers += [Dense(in_dim, out_dim), Relu()]
    return layers[:-1]


def param_count(layers: Sequence[LayerSpec]) -> int:
    """The parameter count of a layer list: out * (in + 1) per Dense layer."""
    return sum(layer.out_dim * (layer.in_dim + 1) for layer in layers
               if isinstance(layer, Dense))


class ParamSet:
    """Named float64 parameter arrays held in one (slices, P) buffer.

    Row k of ``buffer`` holds slice k of every array, name after name,
    each flattened in C order: a set with one slice per node puts slice k
    of each array along its leading axis there, a set with one slice
    holds the whole arrays. ``params`` maps each name to a view of the
    buffer, so the optimizers step every array in one pass, in place.
    The views are live: after a step or ``set_params`` they hold the new
    values, and a caller that needs the old ones copies them first.
    ``version`` increments on every change, so ``check_cache`` rejects stale caches.
    Every stepped set is one: ``StackSet`` (``edge.EncoderSet``,
    ``cloud.BaselineModel``) and ``cloud.CloudModel``.
    """

    def _hold(self, arrays: Mapping[str, Array], slices: int) -> None:
        """Copy ``arrays`` into a new buffer of ``slices`` rows; each array
        splits into ``slices`` equal parts along its leading axis."""
        arrays = {name: np.asarray(a, dtype=float) for name, a in arrays.items()}
        self._shapes = {name: a.shape for name, a in arrays.items()}
        self._slices = slices
        self.buffer = self.gather(arrays)
        self.params = self.views(self.buffer)
        self.version = 0

    def views(self, flat: Array) -> dict[str, Array]:
        """By-name views of a (slices, P) array laid out like ``buffer``."""
        out, start = {}, 0
        for name, shape in self._shapes.items():
            size = math.prod(shape) // self._slices
            out[name] = flat[:, start:start + size].reshape(shape, copy=False)
            start += size
        return out

    def gather(self, named: Mapping[str, Array]) -> Array:
        """Arrays named and shaped as ``params`` as one new (slices, P) array
        laid out like ``buffer``, in one concatenate."""
        if {name: a.shape for name, a in named.items()} != self._shapes:
            raise ValueError("parameter names or shapes do not match this set")
        # a set with no parameters (sum aggregation) has no columns
        return np.concatenate([named[name].reshape(self._slices, -1) for name in self._shapes]
                              or [np.empty((self._slices, 0))], axis=1)

    def set_params(self, params: Mapping[str, Array]) -> None:
        """Copy a parameter set of the same names and shapes into the buffer
        and bump the version."""
        self.buffer[...] = self.gather(params)
        self.bump_version()

    def bump_version(self) -> None:
        """Mark the parameters changed; every in-place write calls this."""
        self.version += 1

    def check_cache(self, cache) -> None:
        """Raise ValueError unless ``cache`` (with ``param_set`` and ``version``)
        comes from a forward pass over this set at its current version."""
        if cache.param_set is not self:
            raise ValueError("cache was produced by a different parameter set")
        if cache.version != self.version:
            raise ValueError("stale cache: parameters changed since the forward pass")

    def __deepcopy__(self, memo):
        # a deep copy of a view is an array of its own, so the copy's views
        # are derived again from the copy's buffer
        clone = copy.copy(self)
        memo[id(self)] = clone
        clone.__dict__.update(copy.deepcopy(self.__dict__, memo))
        clone.params = clone.views(clone.buffer)
        return clone


def check_layers(layers: Sequence[LayerSpec]) -> tuple[LayerSpec, ...]:
    """The layer list as a tuple, after checking that it starts with a
    Dense layer, that each Dense layer takes the width before it, and that
    each projection has an even width, a nonnegative budget and a known mode."""
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
            if layer.mode not in POWER_MODES:
                raise ValueError(f"layer {idx}: unknown projection mode {layer.mode!r}")
    return layers


def init_params(layers: Sequence[LayerSpec], seed: int) -> dict[str, Array]:
    """One stack's initial parameters drawn from ``seed``: per Dense layer a
    Glorot-uniform (out, in) weight ``dense{idx}.w`` and a zero bias
    ``dense{idx}.b``. The same layers and seed give the same bits."""
    rng = np.random.default_rng(int(seed))
    params: dict[str, Array] = {}
    for idx, layer in enumerate(layers):
        if isinstance(layer, Dense):
            limit = np.sqrt(6.0 / (layer.in_dim + layer.out_dim))
            params[f"dense{idx}.w"] = rng.uniform(
                -limit, limit, size=(layer.out_dim, layer.in_dim)
            )
            params[f"dense{idx}.b"] = np.zeros(layer.out_dim)
    return params


# a stack as ``forward`` and ``backward`` read it, with views of its
# ``StackSet`` ``param_set``'s arrays as ``params``: one slice, or node-first slices
StackView = namedtuple("StackView", "layers params in_dim param_set")


class StackSet(ParamSet):
    """Stacks of one layer list held node-stacked as one parameter set.

    ``params`` holds (n, out, in) weights and (n, out) biases, slice k
    being stack k's: views of one (n, P) buffer, slice k starting with
    the bits of ``init_params(layers, seeds[k])``. Checkpoints save the
    stacked arrays as they are. A set of no seeds has no parameters.
    """

    def __init__(self, layers: Sequence[LayerSpec], seeds: Sequence[int]):
        self.layers = check_layers(layers) if seeds else tuple(layers)
        draws = [init_params(self.layers, seed) for seed in seeds]
        self._hold({name: np.stack([draw[name] for draw in draws])
                    for name in (draws[0] if draws else ())}, slices=len(draws))

    @property
    def n_slices(self) -> int:
        return self.buffer.shape[0]

    def slice_view(self, i: int) -> StackView:
        """Slice i as a 2-D stack."""
        return self._view(lambda p: p[i])

    def node_range(self, start: int, stop: int) -> StackView:
        """Slices start to stop-1 as a node-first stack, node i reading slice
        i; a set of one slice yields that slice for any range, which then
        serves every node."""
        if self.n_slices == 1:
            start, stop = 0, 1
        return self._view(lambda p: p[start:stop])

    def _view(self, pick) -> StackView:
        return StackView(self.layers, {name: pick(p) for name, p in self.params.items()},
                         self.layers[0].in_dim, self)


@dataclass
class ForwardCache:
    """What one forward pass keeps for backward, one entry per layer: the
    input of a Dense or Projection layer, and a ReLU's slope, its input
    > 0, as a bool array."""

    stack: StackView
    param_set: ParamSet  # the set the forward pass read
    version: int  # that set's version then
    saved: list[Array]
    output: Array


@dataclass
class GradientSet:
    """Parameter gradients (same names/shapes as the stack) plus the input
    gradient, None when the backward pass was asked not to form it."""

    param_grads: dict[str, Array]
    input_grad: Array | None


def forward(stack: StackView, x: Array, keep_cache: bool = True
            ) -> tuple[Array, ForwardCache | None]:
    """Run the stack on a batch of rows ``x`` and keep what backward needs.

    ``x`` is (B, in), or node-first (n, B, in) when the parameters are
    node-stacked with n slices or one shared slice; any other node count
    is a ValueError naming both counts. With ``keep_cache``
    false nothing is kept (no layer input, no ReLU slope) and the cache
    returned is None.
    """
    h = np.asarray(x, dtype=float)
    if h.ndim not in (2, 3):
        raise ValueError("layer 0 input must be a batch of rows, or node-first batches of rows")
    if h.shape[-1] != stack.in_dim:
        raise ValueError(f"layer 0 input has dim {h.shape[-1]}, expected {stack.in_dim}")
    w0 = stack.params["dense0.w"]
    if h.ndim != w0.ndim:
        raise ValueError(f"{h.ndim}-D input needs {'node-stacked' if h.ndim == 3 else '2-D'} "
                         f"weights, got {w0.ndim}-D")
    if h.ndim == 3 and w0.shape[0] not in (len(h), 1):
        raise ValueError(f"input for {len(h)} nodes, parameters for {w0.shape[0]} nodes "
                         "(need the same count, or 1 shared)")
    saved: list[Array] = []
    for idx, layer in enumerate(stack.layers):
        if keep_cache:
            # a ReLU's backward reads only its slope
            saved.append(h > 0.0 if isinstance(layer, Relu) else h)
        if isinstance(layer, Dense):
            h = np.matmul(h, stack.params[f"dense{idx}.w"].swapaxes(-1, -2))
            h += stack.params[f"dense{idx}.b"][..., None, :]
        elif isinstance(layer, Relu):
            # h is this call's own temporary, which nothing else keeps
            h = np.maximum(h, 0.0, out=h)
        else:
            h = projection_forward(h, layer.power, layer.mode)
    if not keep_cache:
        return h, None
    return h, ForwardCache(stack, stack.param_set, stack.param_set.version, saved, h)


def backward(stack: StackView, cache: ForwardCache, upstream: Array,
             input_grad: bool = True) -> GradientSet:
    """Exact vector-Jacobian product through the stack.

    ``upstream`` must match the shape of the cached forward output.
    Parameter gradients are summed over batch rows; the caller owns any
    batch-size divisor. For node-first rows they are node-first, one
    slice per node, even over a shared slice. With ``input_grad`` false
    the pass ends at layer 0's parameter gradients and returns no input
    gradient. A cache of another set or of an older version is rejected.
    """
    stack.param_set.check_cache(cache)
    g = np.asarray(upstream, dtype=float)
    if g.shape != cache.output.shape:
        raise ValueError(f"upstream shape {g.shape} != output shape {cache.output.shape}")
    grads: dict[str, Array] = {}
    ones = np.ones(g.shape[-2])
    last = len(stack.layers) - 1
    for idx in reversed(range(len(stack.layers))):
        layer = stack.layers[idx]
        saved = cache.saved[idx]
        if isinstance(layer, Dense):
            grads[f"dense{idx}.w"] = np.matmul(g.swapaxes(-1, -2), saved)
            grads[f"dense{idx}.b"] = np.matmul(ones, g)
            if idx > 0 or input_grad:
                g = np.matmul(g, stack.params[f"dense{idx}.w"])
        elif isinstance(layer, Relu):
            # below the last layer g is a temporary of this call, so the
            # slope can be applied in place; the last layer's g is upstream
            if idx == last:
                g = g * saved
            else:
                g *= saved
        else:
            g = projection_backward(saved, layer.power, layer.mode, g)
    return GradientSet(grads, g if input_grad else None)


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


def _halves(v: Array) -> Array:
    """The last axis as (2, half): ``[..., 0, :]`` the real half and
    ``[..., 1, :]`` the imaginary half, a view of a contiguous ``v``."""
    return v.reshape(*v.shape[:-1], 2, v.shape[-1] // 2)


def projection_forward(v: Array, power: float, mode: str = PER_RB) -> Array:
    """Cap transmit power, preserving direction of every clipped entry.

    Points exactly on the budget boundary take the pass-through branch.
    In per-RB mode both halves are scaled in one pass over a (..., 2, half)
    view, into one output array.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-1] % 2 != 0:
        raise ValueError("projection input length must be even")
    if power < 0:
        raise ValueError("power budget must be nonnegative")
    if mode == PER_RB:
        pair = _halves(v)
        vr, vi = pair[..., 0, :], pair[..., 1, :]
        sq = vr * vr
        sq += vi * vi
        scale, _ = _budget_scale(sq, power)
        out = np.empty(pair.shape)
        np.multiply(pair, scale[..., None, :], out=out)
        return out.reshape(v.shape)
    if mode == SUM:
        scale, _ = _budget_scale(np.sum(v * v, axis=-1, keepdims=True), power)
        return v * scale
    raise ValueError(f"unknown projection mode {mode!r}")


def projection_backward(v: Array, power: float, mode: str, upstream: Array) -> Array:
    """Exact Jacobian of the projection: identity on pass-through entries,
    the normalization-branch Jacobian sqrt(P)/|w| (I - ww^T/|w|^2) on clipped ones.

    In per-RB mode ``v`` and ``upstream`` are read as (..., 2, half) views,
    so each step after the per-RB dot product runs once over both halves,
    in place on one output array.
    """
    v = np.asarray(v, dtype=float)
    g = np.asarray(upstream, dtype=float)
    if v.shape[-1] % 2 != 0:
        raise ValueError("projection input length must be even")
    if power < 0:
        raise ValueError("power budget must be nonnegative")
    if g.shape != v.shape:
        raise ValueError("upstream shape must match the projection input")
    shape = v.shape
    if mode == PER_RB:
        v, g = _halves(v), _halves(g)
        vr, vi = v[..., 0, :], v[..., 1, :]
        sq = vr * vr
        sq += vi * vi
        dot = g[..., 0, :] * vr
        dot += g[..., 1, :] * vi
    elif mode == SUM:
        sq = np.sum(v * v, axis=-1, keepdims=True)
        dot = np.sum(g * v, axis=-1, keepdims=True)
    else:
        raise ValueError(f"unknown projection mode {mode!r}")
    coef, denom = _budget_scale(sq, power)
    dot /= denom
    dot *= sq > power
    if mode == PER_RB:  # one factor per RB, for both its halves
        coef, dot = coef[..., None, :], dot[..., None, :]
    out = v * dot
    np.subtract(g, out, out=out)
    out *= coef
    return out.reshape(shape)


def softmax_cross_entropy(logits: Array, labels) -> tuple[Array, Array]:
    """Stabilized cross entropy with its gradient, for (B, X) logits and a
    length-B label array; returns the (B,) losses and the (B, X) gradient."""
    z = np.asarray(logits, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if z.ndim != 2 or labels.shape != z.shape[:1]:
        raise ValueError("need (batch, classes) logits and one label per row")
    n_classes = z.shape[1]
    if np.any(labels < 0) or np.any(labels >= n_classes):
        raise ValueError(f"label out of range [0, {n_classes})")
    shift = z - z.max(axis=1, keepdims=True)
    exp_shift = np.exp(shift)
    norm = exp_shift.sum(axis=1)
    rows = np.arange(z.shape[0])
    loss = np.log(norm) - shift[rows, labels]
    grad = exp_shift / norm[:, None]
    grad[rows, labels] -= 1.0
    return loss, grad


# The optimizers step a ``ParamSet`` in place, in one pass over its
# (slices, P) buffer. ``divisor`` is the sample count the summed gradients
# are averaged over: a number, or one count per slice; a slice whose count
# is 0 had no sample and takes no step.
class SgdOptimizer:
    """Stateless SGD; exists so edge and cloud share one update interface."""

    def __init__(self, eta: float):
        self.eta = eta

    def step(self, stack: ParamSet, summed_grads: Mapping[str, Array], divisor) -> None:
        counts = np.asarray(divisor, dtype=float)
        # rate 0 for a slice with no sample: p - 0 * g is p
        rate = np.divide(self.eta, counts, out=np.zeros_like(counts), where=counts > 0)
        g = stack.gather(summed_grads)
        g *= rate[..., None]
        stack.buffer -= g
        stack.bump_version()


class AdamOptimizer:
    """Adam applied to the averaged gradient, with one step count per slice
    when the divisor has one count per slice.

    ``m`` and ``v`` map each parameter name to a view of one (slices, P)
    moment array laid out like the stepped set's buffer. A dict assigned
    to either is taken in by name at the next step.
    """

    def __init__(self, eta: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.eta = eta
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t: int | Array = 0
        self.m: dict[str, Array] = {}
        self.v: dict[str, Array] = {}
        self._flat: tuple | None = None  # (m, v) arrays and the dicts that view them

    def _moments(self, stack: ParamSet) -> tuple[Array, Array]:
        """The (slices, P) moment arrays, zero before the first step; the
        dicts ``m`` and ``v`` are their views, or are gathered into new ones
        when they were replaced."""
        if self._flat is None or self._flat[2] is not self.m or self._flat[3] is not self.v:
            m, v = (stack.gather(named) if named else np.zeros_like(stack.buffer)
                    for named in (self.m, self.v))
            self.m, self.v = stack.views(m), stack.views(v)
            self._flat = (m, v, self.m, self.v)
        return self._flat[0], self._flat[1]

    def step(self, stack: ParamSet, summed_grads: Mapping[str, Array], divisor) -> None:
        """A slice with count 0 keeps its parameters, moments and step count."""
        counts = np.asarray(divisor, dtype=float)
        live = counts > 0
        self.t = self.t + live
        # each stepping slice's divisor and 1 - beta ** t (numbers for a number
        # divisor), the powers in Python floats: numpy's power can round differently
        if counts.ndim == 0:
            at = ...
            n, c1, c2 = [float(counts), *(1.0 - b ** int(self.t) for b in (self.beta1, self.beta2))]
        else:
            # every slice, as views, or copies of the live ones
            at = ... if live.all() else np.flatnonzero(live)
            n, c1, c2 = (x[:, None] for x in (
                counts[at], *(np.array([1.0 - b ** k for k in self.t[at].tolist()])
                              for b in (self.beta1, self.beta2))))
        m_all, v_all = self._moments(stack)
        g = stack.gather(summed_grads)[at]
        m, v, p = m_all[at], v_all[at], stack.buffer[at]
        # in place, element by element the operations and order of
        # m = beta1 m + (1 - beta1) g, v = beta2 v + (1 - beta2) g g and
        # p - eta m_hat / (sqrt(v_hat) + eps); m_hat * eta is eta * m_hat
        # bit for bit, since a product of two floats does not depend on order
        g /= n
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        g2 = (1.0 - self.beta2) * g
        g2 *= g
        v += g2
        move = m / c1
        move *= self.eta
        v_hat = np.divide(v, c2, out=g2)
        np.sqrt(v_hat, out=v_hat)
        v_hat += self.eps
        move /= v_hat
        p -= move
        if at is not ...:
            m_all[at], v_all[at], stack.buffer[at] = m, v, p
        stack.bump_version()


OPTIMIZERS = {"sgd": SgdOptimizer, "adam": AdamOptimizer}


def make_optimizer(kind: str, eta: float):
    if kind not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {kind!r}")
    return OPTIMIZERS[kind](eta)
