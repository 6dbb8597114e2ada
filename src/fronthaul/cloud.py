"""Multi-branch cloud model, its backward pass, and the baseline architectures.

The cloud holds M branch pairs: an inner stack mapping a received signal
to a latent vector and an outer stack mapping the pooled latent to
logits. Received signals are sum-pooled across nodes inside every
branch, so the model's parameter count and its computation graph never
depend on how many nodes are connected. The backward pass produces both
the cloud's own parameter gradients and, per node, the gradient of each
sample's loss with respect to that node's received signal, which is the
payload of the downlink leg.

Baselines mirror the architectures this model is compared against:
plain sum aggregation, a rigid concatenation network, and a multi-head
network with one learnable head per node.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import nn

Array = np.ndarray


def _child_seeds(seed: int, count: int) -> list[int]:
    children = np.random.SeedSequence(seed).spawn(count)
    return [int(c.generate_state(1)[0]) for c in children]


_BRANCH_LAYERS = [nn.Dense, nn.Relu, nn.Dense]


@dataclass
class CloudModel:
    """M branch pairs (inner: S -> R, outer: R -> X). Construction takes no
    node count; the same instance serves any population.

    Every branch stack is Dense, Relu, Dense, and all inner stacks share
    one shape, as do all outer stacks: the fused forward and backward
    passes stack the branches' parameters along a leading axis.
    """

    branches: list[tuple[nn.LayerStack, nn.LayerStack]]

    def __post_init__(self):
        if not self.branches:
            raise ValueError("need at least one branch")
        z0, u0 = self.branches[0]
        for z, u in self.branches:
            if any([type(layer) for layer in s.layers] != _BRANCH_LAYERS for s in (z, u)):
                raise ValueError("branch stacks must be Dense, Relu, Dense")
            if z.layers != z0.layers or u.layers != u0.layers or z.out_dim != u.in_dim:
                raise ValueError("branch dimensions are inconsistent")

    @property
    def n_branches(self) -> int:
        return len(self.branches)

    @property
    def input_dim(self) -> int:
        return self.branches[0][0].in_dim

    @property
    def latent_dim(self) -> int:
        return self.branches[0][0].out_dim

    @property
    def output_dim(self) -> int:
        return self.branches[0][1].out_dim

    @property
    def param_count(self) -> int:
        return sum(z.param_count + u.param_count for z, u in self.branches)

    def versions(self) -> tuple[int, ...]:
        return tuple(s.version for pair in self.branches for s in pair)


def build_cloud_model(n_branches: int, message_dim: int, latent_dim: int,
                      n_classes: int, hidden: int, seed: int) -> CloudModel:
    """Branch stacks are small two-layer perceptrons around one hidden width."""
    seeds = _child_seeds(seed, 2 * n_branches)
    branches = []
    for m in range(n_branches):
        z = nn.LayerStack(
            [nn.Dense(message_dim, hidden), nn.Relu(), nn.Dense(hidden, latent_dim)],
            seeds[2 * m])
        u = nn.LayerStack(
            [nn.Dense(latent_dim, hidden), nn.Relu(), nn.Dense(hidden, n_classes)],
            seeds[2 * m + 1])
        branches.append((z, u))
    return CloudModel(branches)


@dataclass
class _BranchWeights:
    """Branch parameters stacked for the fused passes.

    ``z_in`` is every inner first layer on top of each other, (M*H, S);
    the rest are (M, out, in) or (M, out) with the branch axis first.
    """

    z_in: Array
    z_in_b: Array
    z_out: Array
    z_out_b: Array
    u_in: Array
    u_in_b: Array
    u_out: Array
    u_out_b: Array


def _branch_weights(model: CloudModel) -> _BranchWeights:
    z_stacks = [z for z, _ in model.branches]
    u_stacks = [u for _, u in model.branches]

    def stacked(stacks, name):
        return np.stack([s.params[name] for s in stacks])

    return _BranchWeights(
        np.concatenate([z.params["dense0.w"] for z in z_stacks]),
        np.concatenate([z.params["dense0.b"] for z in z_stacks]),
        stacked(z_stacks, "dense2.w"), stacked(z_stacks, "dense2.b"),
        stacked(u_stacks, "dense0.w"), stacked(u_stacks, "dense0.b"),
        stacked(u_stacks, "dense2.w"), stacked(u_stacks, "dense2.b"))


@dataclass
class CloudCache:
    model: CloudModel
    versions: tuple[int, ...]  # every branch stack's version at the forward pass
    weights: _BranchWeights
    received: list[Array]  # per node, (B, S)
    active: Array  # (B, N) float mask
    # per node, (B, M*H) pre-activations of every inner first layer, held
    # at zero for inactive pairs
    inner_pre: list[Array]
    pooled: Array  # (M, B, H) masked node sum of the rectified inner activations
    latent: Array  # (M, B, R) pooled latent per branch
    outer_pre: Array  # (M, B, H_u) outer pre-activations
    outer_act: Array  # (M, B, H_u) rectified outer activations
    squeezed: bool


def _prepare_received(model_in_dim: int, received: Sequence[Array]
                      ) -> tuple[list[Array], bool]:
    if len(received) == 0:
        raise ValueError("no received signals")
    rows = []
    squeezed = None
    for i, y in enumerate(received):
        y = np.asarray(y, dtype=float)
        if y.ndim == 1:
            y = y[None, :]
            sq = True
        elif y.ndim == 2:
            sq = False
        else:
            raise ValueError(f"received signal {i} must be a vector or batch")
        if y.shape[-1] != model_in_dim:
            raise ValueError(f"received signal {i} has length {y.shape[-1]}, "
                             f"expected {model_in_dim}")
        if squeezed is None:
            squeezed = sq
            batch = y.shape[0]
        elif sq != squeezed or y.shape[0] != batch:
            raise ValueError("received signals disagree on batch shape")
        rows.append(y)
    return rows, squeezed


def cloud_infer(model: CloudModel, received: Sequence[Array],
                active: Array | None = None) -> tuple[Array, CloudCache]:
    """Pooled multi-branch inference.

    Per branch m: latents z_m(y_i) are summed over nodes, passed through
    the outer stack, and the branch outputs are summed into the logits.
    ``active`` masks (sample, node) pairs that never reached the cloud;
    their latents are excluded from the pool.

    The branches run fused. All inner stacks read the same signal, so
    one product per node computes every branch's first layer. The inner
    output layer is affine and commutes with the masked node sum,
    sum_i a_i (W h_i + b) = W (sum_i a_i h_i) + (sum_i a_i) b, so it runs
    once per branch on the pooled rows. The outer stacks run batched
    over the branch axis.
    """
    rows, squeezed = _prepare_received(model.input_dim, received)
    batch = rows[0].shape[0]
    if active is None:
        mask = np.ones((batch, len(rows)))
    else:
        mask = np.asarray(active, dtype=float)
        if mask.shape != (batch, len(rows)):
            raise ValueError("active mask shape must be (batch, nodes)")
        if not np.all((mask == 0.0) | (mask == 1.0)):
            raise ValueError("active mask entries must be 0 or 1")
    w = _branch_weights(model)
    inner_pre = []
    pooled = np.zeros((batch, w.z_in.shape[0]))
    scratch = np.empty_like(pooled)
    for i, y in enumerate(rows):
        pre = y @ w.z_in.T
        pre += w.z_in_b
        # zeroing an inactive pair's pre-activations zeroes its rectified
        # activation here and its rectifier slope in the backward pass
        pre[mask[:, i] == 0.0] = 0.0
        inner_pre.append(pre)
        pooled += np.maximum(pre, 0.0, out=scratch)
    # (B, M*H) -> (M, B, H): a strided view, one (B, H) block per branch
    pooled = pooled.reshape(batch, model.n_branches, -1).transpose(1, 0, 2)
    latent = np.matmul(pooled, w.z_out.transpose(0, 2, 1))
    latent += mask.sum(axis=1)[:, None] * w.z_out_b[:, None, :]
    outer_pre = np.matmul(latent, w.u_in.transpose(0, 2, 1))
    outer_pre += w.u_in_b[:, None, :]
    outer_act = np.maximum(outer_pre, 0.0)
    out = np.matmul(outer_act, w.u_out.transpose(0, 2, 1))
    out += w.u_out_b[:, None, :]
    logits = out.sum(axis=0)
    cache = CloudCache(model, model.versions(), w, rows, mask, inner_pre, pooled,
                       latent, outer_pre, outer_act, squeezed)
    return (logits[0] if squeezed else logits), cache


@dataclass
class CloudGradients:
    z_grads: list[dict[str, Array]]
    u_grads: list[dict[str, Array]]


def cloud_backward(model: CloudModel, cache: CloudCache, grad_logits: Array
                   ) -> tuple[CloudGradients, list[Array]]:
    """Parameter gradients plus per-node downlink gradient messages.

    Gradients are summed over the batch (the update owns the divisor);
    inner-stack gradients only accumulate contributions from each
    sample's active nodes. The returned message for node i holds, per
    sample, the gradient of that sample's loss with respect to the
    node's received signal; rows for inactive pairs are zero.
    """
    if cache.model is not model:
        raise ValueError("cache was produced by a different model")
    if cache.versions != model.versions():
        raise ValueError("stale cache: parameters changed since the forward pass")
    g = np.asarray(grad_logits, dtype=float)
    if cache.squeezed:
        g = g[None, :]
    batch = cache.active.shape[0]
    if g.shape != (batch, model.output_dim):
        raise ValueError("gradient shape does not match the cached forward")
    w = cache.weights
    ones = np.ones(batch)
    # outer stacks: every branch output receives the whole logit gradient
    u_out_w = np.matmul(g.T, cache.outer_act)
    u_out_b = ones @ g
    g_hidden = np.matmul(g, w.u_out)
    g_hidden *= cache.outer_pre > 0.0
    u_in_w = np.matmul(g_hidden.transpose(0, 2, 1), cache.latent)
    u_in_b = np.matmul(ones, g_hidden)
    g_latent = np.matmul(g_hidden, w.u_in)
    # inner output layer on the pooled rows; its bias entered once per active node
    z_out_w = np.matmul(g_latent.transpose(0, 2, 1), cache.pooled)
    z_out_b = np.matmul(cache.active.sum(axis=1), g_latent)
    g_pooled = np.matmul(g_latent, w.z_out).transpose(1, 0, 2).reshape(batch, -1)
    # inner first layers, per node; a node's message sums over branches
    z_in_w = np.zeros_like(w.z_in)
    z_in_b = np.zeros_like(w.z_in_b)
    messages = []
    g_act = np.empty_like(g_pooled)
    for i, y in enumerate(cache.received):
        np.greater(cache.inner_pre[i], 0.0, out=g_act)  # the rectifier's slope
        g_act *= g_pooled
        z_in_w += g_act.T @ y
        z_in_b += ones @ g_act
        messages.append(g_act @ w.z_in)
    hidden = z_in_w.shape[0] // model.n_branches
    z_grads = [{"dense0.w": z_in_w[m * hidden:(m + 1) * hidden],
                "dense0.b": z_in_b[m * hidden:(m + 1) * hidden],
                "dense2.w": z_out_w[m], "dense2.b": z_out_b[m]}
               for m in range(model.n_branches)]
    u_grads = [{"dense0.w": u_in_w[m], "dense0.b": u_in_b[m],
                "dense2.w": u_out_w[m], "dense2.b": u_out_b.copy()}
               for m in range(model.n_branches)]
    if cache.squeezed:
        messages = [msg[0] for msg in messages]
    return CloudGradients(z_grads, u_grads), messages


# --- baseline cloud architectures -------------------------------------------

SUM_AGG = "sum_agg"
CATNET = "catnet"
MHNET = "mhnet"


@dataclass
class BaselineModel:
    """Comparison cloud models.

    ``sum_agg`` has no parameters and emits the plain sum of received
    signals as logits (softmax lives in the loss), which forces the
    message length to equal the class count. ``catnet`` is one
    perceptron over the concatenation of exactly ``n_fixed`` signals.
    ``mhnet`` owns one head stack per node and sums the active heads'
    outputs.
    """

    kind: str
    message_dim: int
    n_classes: int
    stacks: list[nn.LayerStack]
    n_fixed: int | None = None

    def __post_init__(self):
        if self.kind == SUM_AGG:
            if self.message_dim != self.n_classes:
                raise ValueError("sum aggregation requires message length == class count")
            if self.stacks:
                raise ValueError("sum aggregation has no trainable stacks")
        elif self.kind == CATNET:
            if self.n_fixed is None or len(self.stacks) != 1:
                raise ValueError("catnet needs n_fixed and exactly one stack")
            if self.stacks[0].in_dim != self.n_fixed * self.message_dim:
                raise ValueError("catnet input dim must be n_fixed * message length")
        elif self.kind == MHNET:
            if not self.stacks:
                raise ValueError("mhnet needs at least one head")
            for head in self.stacks:
                if head.in_dim != self.message_dim or head.out_dim != self.n_classes:
                    raise ValueError("each head maps a received signal to logits")
        else:
            raise ValueError(f"unknown baseline kind {self.kind!r}")

    @property
    def param_count(self) -> int:
        return sum(s.param_count for s in self.stacks)

    @property
    def output_dim(self) -> int:
        return self.n_classes


def _mlp3(in_dim: int, hidden: int, out_dim: int, seed: int) -> nn.LayerStack:
    return nn.LayerStack(
        [nn.Dense(in_dim, hidden), nn.Relu(),
         nn.Dense(hidden, hidden), nn.Relu(),
         nn.Dense(hidden, out_dim)], seed)


def _mlp3_params(in_dim: int, hidden: int, out_dim: int) -> int:
    return (in_dim * hidden + hidden) + (hidden * hidden + hidden) + (hidden * out_dim + out_dim)


def matched_hidden_width(kind: str, message_dim: int, n_classes: int, n_nodes: int,
                         target_params: int) -> int:
    """Hidden width whose three-layer perceptron budget lands nearest the target.

    Keeps architecture comparisons honest: sweeps never hand a baseline
    more or fewer parameters than the model it is compared against.
    """
    if kind == CATNET:
        def count(w):
            return _mlp3_params(n_nodes * message_dim, w, n_classes)
    elif kind == MHNET:
        def count(w):
            return n_nodes * _mlp3_params(message_dim, w, n_classes)
    else:
        raise ValueError("only catnet and mhnet take a width")
    best, best_gap = 1, abs(count(1) - target_params)
    w = 2
    while True:
        gap = abs(count(w) - target_params)
        if gap < best_gap:
            best, best_gap = w, gap
        if count(w) > target_params and w > best + 2:
            break
        w += 1
    return best


def build_baseline(kind: str, message_dim: int, n_classes: int, n_nodes: int,
                   seed: int, hidden: int | None = None,
                   target_params: int | None = None) -> BaselineModel:
    if kind == SUM_AGG:
        return BaselineModel(SUM_AGG, message_dim, n_classes, [])
    if hidden is None:
        if target_params is None:
            raise ValueError("need a hidden width or a parameter budget")
        hidden = matched_hidden_width(kind, message_dim, n_classes, n_nodes, target_params)
    if kind == CATNET:
        stack = _mlp3(n_nodes * message_dim, hidden, n_classes, seed)
        return BaselineModel(CATNET, message_dim, n_classes, [stack], n_fixed=n_nodes)
    if kind == MHNET:
        seeds = _child_seeds(seed, n_nodes)
        heads = [_mlp3(message_dim, hidden, n_classes, s) for s in seeds]
        return BaselineModel(MHNET, message_dim, n_classes, heads)
    raise ValueError(f"unknown baseline kind {kind!r}")


@dataclass
class BaselineCache:
    model: BaselineModel
    caches: list[nn.ForwardCache]
    active: Array
    squeezed: bool
    n_nodes: int


def baseline_infer(model: BaselineModel, received: Sequence[Array],
                   active: Array | None = None) -> tuple[Array, BaselineCache]:
    rows, squeezed = _prepare_received(model.message_dim, received)
    n_nodes = len(rows)
    batch = rows[0].shape[0]
    if active is None:
        mask = np.ones((batch, n_nodes))
    else:
        mask = np.asarray(active, dtype=float)
        if mask.shape != (batch, n_nodes):
            raise ValueError("active mask shape must be (batch, nodes)")
    if model.kind == SUM_AGG:
        logits = np.zeros((batch, model.n_classes))
        for i in range(n_nodes):
            logits = logits + mask[:, i:i + 1] * rows[i]
        cache = BaselineCache(model, [], mask, squeezed, n_nodes)
        return (logits[0] if squeezed else logits), cache
    if model.kind == CATNET:
        if n_nodes != model.n_fixed:
            raise ValueError(f"catnet was built for {model.n_fixed} nodes, got {n_nodes}")
        if not np.all(mask == 1.0):
            raise ValueError("catnet cannot run with inactive nodes")
        stacked = np.concatenate(rows, axis=-1)
        logits, fc = nn.forward(model.stacks[0], stacked)
        cache = BaselineCache(model, [fc], mask, squeezed, n_nodes)
        return (logits[0] if squeezed else logits), cache
    # mhnet: one head per node index
    if n_nodes > len(model.stacks):
        raise ValueError(f"mhnet has {len(model.stacks)} heads, got {n_nodes} nodes")
    logits = np.zeros((batch, model.n_classes))
    caches = []
    for i in range(n_nodes):
        out, fc = nn.forward(model.stacks[i], rows[i])
        caches.append(fc)
        logits = logits + mask[:, i:i + 1] * out
    cache = BaselineCache(model, caches, mask, squeezed, n_nodes)
    return (logits[0] if squeezed else logits), cache


def baseline_backward(model: BaselineModel, cache: BaselineCache, grad_logits: Array
                      ) -> tuple[list[dict[str, Array]], list[Array]]:
    """Stack gradients (summed over batch) and per-node downlink messages."""
    if cache.model is not model:
        raise ValueError("cache was produced by a different model")
    g = np.asarray(grad_logits, dtype=float)
    if cache.squeezed:
        g = g[None, :]
    batch = cache.active.shape[0]
    if g.shape != (batch, model.n_classes):
        raise ValueError("gradient shape does not match the cached forward")
    if model.kind == SUM_AGG:
        messages = [g * cache.active[:, i:i + 1] for i in range(cache.n_nodes)]
        grads: list[dict[str, Array]] = []
    elif model.kind == CATNET:
        grad_set = nn.backward(model.stacks[0], cache.caches[0], g)
        messages = [grad_set.input_grad[:, i * model.message_dim:(i + 1) * model.message_dim]
                    for i in range(cache.n_nodes)]
        grads = [grad_set.param_grads]
    else:
        grads = []
        messages = []
        for i in range(cache.n_nodes):
            grad_set = nn.backward(model.stacks[i], cache.caches[i],
                                   g * cache.active[:, i:i + 1])
            grads.append(grad_set.param_grads)
            messages.append(grad_set.input_grad)
    if cache.squeezed:
        messages = [m[0] for m in messages]
    return grads, messages
