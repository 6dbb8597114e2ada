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
import os
import queue
import threading
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

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


class _Worker:
    """One daemon thread that runs the calls handed to it, in turn. The
    thread starts with the first call. (``concurrent.futures`` would do
    the same, but importing it imports ``logging``: 0.6 MB more peak
    RSS in every process, split or not.)"""

    def __init__(self) -> None:
        self._calls: queue.SimpleQueue = queue.SimpleQueue()
        self._thread: threading.Thread | None = None

    def submit(self, fn: Callable[..., None], *args) -> Callable[[], None]:
        """Start ``fn(*args)`` on the thread. Returns the call that waits
        for it to end and re-raises its exception."""
        if self._thread is None:
            self._thread = threading.Thread(target=self._serve, name="fronthaul-split",
                                            daemon=True)
            self._thread.start()
        done = threading.Lock()
        done.acquire()
        failed: list[BaseException] = []
        self._calls.put((fn, args, done, failed))

        def join() -> None:
            with done:
                pass
            if failed:
                raise failed[0]
        return join

    def _serve(self) -> None:
        while True:
            fn, args, done, failed = self._calls.get()
            try:
                fn(*args)
            except BaseException as err:
                failed.append(err)
            # held until the next call, the call's arrays would outlive it
            del fn, args
            done.release()


def _new_worker() -> None:
    """Make the process's one worker. A forked child makes its own: the
    parent's thread does not run there."""
    global _WORKER
    _WORKER = _Worker()


_new_worker()
os.register_at_fork(after_in_child=_new_worker)
# float values a half must write to go to the worker: numpy calls on fewer
# keep the interpreter lock, and the handoff costs more than the half saves
_SPLIT_VALUES = 120_000


def _split_at(n: int, values: int) -> int:
    """The first node of the worker's half when work over n nodes that
    writes ``values`` float values splits, at least ``_SPLIT_VALUES`` per
    half; 0 when it runs whole on the caller."""
    return n // 2 if values >= 2 * _SPLIT_VALUES else 0


def _split(n: int, values: int, work: Callable[[int, int], None]) -> None:
    """Run ``work(lo, hi)`` over the range 0..n-1 in two halves at once,
    [n // 2, n) on the worker thread and [0, n // 2) here, when
    ``_split_at`` splits it; otherwise run ``work(0, n)`` here.

    The halves write disjoint parts of arrays the caller allocated. The
    worker's half allocates no large array, not even a temporary: glibc
    keeps what a thread frees in that thread's own arena, where the
    caller cannot reuse it (a projection's temporaries there raised
    wide-config peak memory by 5 MB). The worker's half calls no
    public function of the package, which the benchmark's tracer wraps
    with one span stack, and never splits again. An exception of either
    half re-raises here once both halves have stopped.
    """
    mid = _split_at(n, values)
    if not mid:
        work(0, n)
        return
    join = _WORKER.submit(work, mid, n)
    try:
        work(0, mid)
    finally:
        join()


def _in_background(values: int, task: Callable[[], None]) -> Callable[[], None]:
    """Start ``task()`` on the worker thread when it writes at least
    ``_SPLIT_VALUES`` float values, or else run it here at once. Returns
    the call that waits for the task to end and re-raises its exception.
    The task keeps the rules of ``_split``'s worker half."""
    if values < _SPLIT_VALUES:
        task()
        return lambda: None
    return _WORKER.submit(task)


def _pass_values(layers: tuple[LayerSpec, ...], rows: Array) -> int:
    """Float values of every layer output over ``rows``, the size a pass's
    split reads, forward or backward: a ReLU's counts though it runs in place."""
    width = total = 0
    for layer in layers:
        if isinstance(layer, Dense):
            width = layer.out_dim
        total += width
    return rows.size // rows.shape[-1] * total


def _node_rows(arrays: list, lo: int, hi: int) -> list:
    """Nodes lo..hi-1 of each node-first array of a list, None kept."""
    return [None if a is None else a[lo:hi] for a in arrays]


def _node_params(params: Mapping[str, Array], lo: int, hi: int) -> dict[str, Array]:
    """Nodes lo..hi-1 of node-stacked parameters; a shared slice whole."""
    return {name: p if len(p) == 1 else p[lo:hi] for name, p in params.items()}


def forward(stack: StackView, x: Array, keep_cache: bool = True
            ) -> tuple[Array, ForwardCache | None]:
    """Run the stack on a batch of rows ``x`` and keep what backward needs.

    ``x`` is (B, in), or node-first (n, B, in) when the parameters are
    node-stacked with n slices or one shared slice; any other node count
    is a ValueError naming both counts. With ``keep_cache``
    false nothing is kept (no layer input, no ReLU slope) and the cache
    returned is None. A node-first batch large enough for ``_split`` runs
    its two node halves at once, into arrays this call allocates first.
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
    layers = stack.layers
    saved = [None] * len(layers) if keep_cache else None
    n, values = len(h), _pass_values(layers, h)
    # a serial pass allocates layer by layer, so that without a cache each
    # output is freed once the next layer has read it. Allocating first in
    # every forward and backward pass, as the split does, cost 2.9% of
    # default-config training speed and 4 MB of peak memory in wide-config
    # training (bench pairs)
    if h.ndim == 2 or not _split_at(n, values):
        out = _forward_rows(layers, stack.params, h, [None] * len(layers), saved)
    else:
        # per layer its input and output, a ReLU's output its input, and
        # each ReLU's slope where the others keep their input
        ins, outs = [], []
        for layer in layers:
            ins.append(outs[-1] if outs else h)
            width = layer.out_dim if isinstance(layer, Dense) else ins[-1].shape[-1]
            outs.append(ins[-1] if isinstance(layer, Relu) else np.empty((*h.shape[:-1], width)))
        if keep_cache:
            saved = [np.empty(a.shape, dtype=bool) if isinstance(layer, Relu) else a
                     for layer, a in zip(layers, ins)]
        # a last projection, which makes temporaries, runs here (``_split``)
        top = len(layers) - isinstance(layers[-1], Projection)
        _split(n, values, lambda lo, hi: _forward_rows(
            layers[:top], _node_params(stack.params, lo, hi), h[lo:hi],
            _node_rows(outs, lo, hi), None if saved is None else _node_rows(saved, lo, hi)))
        if top < len(layers):
            _project(ins[-1], layers[-1].power, layers[-1].mode, outs[-1])
        out = outs[-1]
    if not keep_cache:
        return out, None
    return out, ForwardCache(stack, stack.param_set, stack.param_set.version, saved, out)


def _forward_rows(layers: tuple[LayerSpec, ...], params: Mapping[str, Array], h: Array,
                  outs: list, saved: list | None) -> Array:
    """``forward``'s layer loop over rows ``h``; returns the last output.
    Layer idx writes into outs[idx], or a new array where that is None,
    a ReLU in place. Unless ``saved`` is None, saved[idx] gets what
    backward reads: the layer's input, or a ReLU's slope, written into
    the array already there, if any."""
    for idx, layer in enumerate(layers):
        if isinstance(layer, Relu):
            if saved is not None:
                # a ReLU's backward reads only its slope
                saved[idx] = np.greater(h, 0.0, out=saved[idx])
            # h is an output of this call, which nothing else keeps
            h = np.maximum(h, 0.0, out=h)
            continue
        if saved is not None:
            saved[idx] = h
        if isinstance(layer, Dense):
            h = np.matmul(h, params[f"dense{idx}.w"].swapaxes(-1, -2), out=outs[idx])
            h += params[f"dense{idx}.b"][..., None, :]
        else:
            h = _project(h, layer.power, layer.mode, outs[idx])
    return h


def backward(stack: StackView, cache: ForwardCache, upstream: Array,
             input_grad: bool = True) -> GradientSet:
    """Exact vector-Jacobian product through the stack.

    ``upstream`` must match the shape of the cached forward output.
    Parameter gradients are summed over batch rows; the caller owns any
    batch-size divisor. For node-first rows they are node-first, one
    slice per node, even over a shared slice. With ``input_grad`` false
    the pass ends at layer 0's parameter gradients and returns no input
    gradient. A cache of another set or of an older version is rejected.
    As in ``forward``, a large node-first batch runs its two node halves
    at once.
    """
    stack.param_set.check_cache(cache)
    g = np.asarray(upstream, dtype=float)
    if g.shape != cache.output.shape:
        raise ValueError(f"upstream shape {g.shape} != output shape {cache.output.shape}")
    layers = stack.layers
    passed = [None] * len(layers)
    grads: dict[str, Array] = {}
    n, values = len(g), _pass_values(layers, g)
    # serial, each passed-down gradient is freed once the layer below has
    # read it; allocating first costs speed and memory (see ``forward``)
    if g.ndim == 2 or not _split_at(n, values):
        g = _backward_rows(layers, stack.params, cache.saved, g, input_grad, grads, passed)
    else:
        # per layer, in the order the layer loop forms them, its weight and
        # bias gradients and the gradient it passes down where the loop
        # does not apply a ReLU's slope in place
        last = len(layers) - 1
        for idx in reversed(range(len(layers))):
            layer = layers[idx]
            if isinstance(layer, Dense):
                grads[f"dense{idx}.w"] = np.empty((n, layer.out_dim, layer.in_dim))
                grads[f"dense{idx}.b"] = np.empty((n, layer.out_dim))
                keep = idx > 0 or input_grad
            else:
                keep = idx == last or not isinstance(layer, Relu)
            if keep:
                passed[idx] = np.empty((*g.shape[:-1], cache.saved[idx].shape[-1]))
        top = len(layers) - isinstance(layers[-1], Projection)
        if top < len(layers):  # here, as in ``forward``
            g = _project_back(cache.saved[-1], layers[-1].power, layers[-1].mode, g, passed[-1])
        _split(n, values, lambda lo, hi: _backward_rows(
            layers[:top], _node_params(stack.params, lo, hi), _node_rows(cache.saved, lo, hi),
            g[lo:hi], input_grad, {name: a[lo:hi] for name, a in grads.items()},
            _node_rows(passed, lo, hi)))
        g = passed[0]
    return GradientSet(grads, g if input_grad else None)


def _backward_rows(layers: tuple[LayerSpec, ...], params: Mapping[str, Array], saved: list,
                   g: Array, input_grad: bool, grads: dict[str, Array], passed: list
                   ) -> Array:
    """``backward``'s layer loop on upstream rows ``g``; returns the gradient
    layer 0 passes down, or its upstream without ``input_grad``. Dense
    layer idx writes its gradients into ``grads``, and layer idx the
    gradient it passes down into passed[idx]: each into the array already
    there, if any, or a new one."""
    ones = np.ones(g.shape[-2])
    last = len(layers) - 1
    for idx in reversed(range(len(layers))):
        layer = layers[idx]
        if isinstance(layer, Dense):
            w, b = f"dense{idx}.w", f"dense{idx}.b"
            grads[w] = np.matmul(g.swapaxes(-1, -2), saved[idx], out=grads.get(w))
            grads[b] = np.matmul(ones, g, out=grads.get(b))
            if idx > 0 or input_grad:
                g = np.matmul(g, params[w], out=passed[idx])
        elif isinstance(layer, Relu):
            # below the last layer g is a temporary of this call, so the
            # slope can be applied in place; the last layer's g is upstream
            if idx == last:
                g = np.multiply(g, saved[idx], out=passed[idx])
            else:
                g *= saved[idx]
        else:
            g = _project_back(saved[idx], layer.power, layer.mode, g, passed[idx])
    return g


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


def _check_projection(v: Array, power: float, mode: str) -> None:
    if v.shape[-1] % 2 != 0:
        raise ValueError("projection input length must be even")
    if power < 0:
        raise ValueError("power budget must be nonnegative")
    if mode not in POWER_MODES:
        raise ValueError(f"unknown projection mode {mode!r}")


def projection_forward(v: Array, power: float, mode: str = PER_RB) -> Array:
    """Cap transmit power, preserving direction of every clipped entry.

    Points exactly on the budget boundary take the pass-through branch.
    In per-RB mode both halves are scaled in one pass over a (..., 2, half)
    view, into one output array.
    """
    v = np.asarray(v, dtype=float)
    _check_projection(v, power, mode)
    return _project(v, power, mode)


def _project(v: Array, power: float, mode: str, out: Array | None = None) -> Array:
    """``projection_forward`` of float rows ``v`` into ``out``, a contiguous
    array of the same shape, or a new one; returns it."""
    if out is None:
        out = np.empty(v.shape)
    if mode == PER_RB:
        pair = _halves(v)
        vr, vi = pair[..., 0, :], pair[..., 1, :]
        sq = vr * vr
        sq += vi * vi
        scale, _ = _budget_scale(sq, power)
        np.multiply(pair, scale[..., None, :], out=_halves(out))
    else:
        scale, _ = _budget_scale(np.sum(v * v, axis=-1, keepdims=True), power)
        np.multiply(v, scale, out=out)
    return out


def projection_backward(v: Array, power: float, mode: str, upstream: Array) -> Array:
    """Exact Jacobian of the projection: identity on pass-through entries,
    the normalization-branch Jacobian sqrt(P)/|w| (I - ww^T/|w|^2) on clipped ones.

    In per-RB mode ``v`` and ``upstream`` are read as (..., 2, half) views,
    so each step after the per-RB dot product runs once over both halves,
    in place on one output array.
    """
    v = np.asarray(v, dtype=float)
    g = np.asarray(upstream, dtype=float)
    _check_projection(v, power, mode)
    if g.shape != v.shape:
        raise ValueError("upstream shape must match the projection input")
    return _project_back(v, power, mode, g)


def _project_back(v: Array, power: float, mode: str, g: Array, out: Array | None = None
                  ) -> Array:
    """``projection_backward`` of float rows ``v`` and ``g`` into ``out``, a
    contiguous array of the same shape, or a new one; returns it."""
    whole = out = np.empty(v.shape) if out is None else out
    if mode == PER_RB:
        v, g, out = _halves(v), _halves(g), _halves(out)
        vr, vi = v[..., 0, :], v[..., 1, :]
        sq = vr * vr
        sq += vi * vi
        dot = g[..., 0, :] * vr
        dot += g[..., 1, :] * vi
    else:
        sq = np.sum(v * v, axis=-1, keepdims=True)
        dot = np.sum(g * v, axis=-1, keepdims=True)
    coef, denom = _budget_scale(sq, power)
    dot /= denom
    dot *= sq > power
    if mode == PER_RB:  # one factor per RB, for both its halves
        coef, dot = coef[..., None, :], dot[..., None, :]
    np.multiply(v, dot, out=out)
    np.subtract(g, out, out=out)
    out *= coef
    return whole


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
