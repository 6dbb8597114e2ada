"""Multi-branch cloud model, its backward pass, and the baseline architectures.

The cloud holds M branch pairs: an inner stack mapping a received signal
to a latent vector and an outer stack mapping the pooled latent to
logits. The branches' parameters are held stacked along a branch axis,
one parameter set that one optimizer steps. Received signals are
sum-pooled across nodes inside every branch, so the model's parameter
count and its computation graph never depend on how many nodes are
connected. The backward pass produces both the cloud's own parameter
gradients, stacked the same way, and, per node, the gradient of each
sample's loss with respect to that node's received signal, which is the
payload of the downlink leg.

Baselines mirror the architectures this model is compared against:
plain sum aggregation, a rigid concatenation network, and a multi-head
network with one learnable head per node.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import nn

Array = np.ndarray


def _child_seeds(seed: int, count: int) -> list[int]:
    children = np.random.SeedSequence(seed).spawn(count)
    return [int(c.generate_state(1)[0]) for c in children]


# The cloud's parameter keys: each branch's inner stack, then its outer
# stack, layer by layer, weight before bias, as ``nn.init_params`` orders them.
_KEYS = ("z_in", "z_in_b", "z_out", "z_out_b", "u_in", "u_in_b", "u_out", "u_out_b")


class CloudModel(nn.ParamSet):
    """M branch pairs (inner: S -> H -> R, outer: R -> H_u -> X), each a
    Dense, Relu, Dense stack, held as one stacked parameter set.

    ``params`` holds eight arrays with the branch axis first: ``z_in`` is
    every inner first layer on top of each other, (M*H, S), ``z_in_b``
    its (M*H,) bias, and the rest are (M, out, in) or (M, out). They are
    views of one one-row buffer that one optimizer steps; ``version``
    increments on every change so stale caches can be rejected.
    Construction takes no node count; the same instance serves any
    population.
    """

    def __init__(self, params: Mapping[str, Array]):
        if set(params) != set(_KEYS):
            raise ValueError("cloud parameters need exactly the keys " + ", ".join(_KEYS))
        shapes = {key: np.shape(p) for key, p in params.items()}
        if len(shapes["z_out"]) != 3 or shapes["z_out"][0] < 1:
            raise ValueError("need at least one branch")
        m, r, h = shapes["z_out"]
        s, h_u, x = shapes["z_in"][-1], shapes["u_in"][1:2], shapes["u_out"][1:2]
        want = {"z_in": (m * h, s), "z_in_b": (m * h,), "z_out": (m, r, h),
                "z_out_b": (m, r), "u_in": (m, *h_u, r), "u_in_b": (m, *h_u),
                "u_out": (m, *x, *h_u), "u_out_b": (m, *x)}
        if shapes != want:
            raise ValueError("branch dimensions are inconsistent")
        self._hold({key: params[key] for key in _KEYS}, slices=1)

    @property
    def n_branches(self) -> int:
        return self.params["z_out"].shape[0]

    @property
    def input_dim(self) -> int:
        return self.params["z_in"].shape[1]

    @property
    def output_dim(self) -> int:
        return self.params["u_out"].shape[1]

    def check_nodes(self, n_nodes: int) -> None:
        """Every population is served: nothing in the model depends on the node count."""

    def infer(self, received: Array, active: Array | None = None, keep_cache: bool = True
              ) -> tuple[Array, CloudCache | None]:
        return cloud_infer(self, received, active, keep_cache)

    def backward(self, cache: CloudCache, grad_logits: Array
                 ) -> tuple[dict[str, Array], Array]:
        return cloud_backward(self, cache, grad_logits)


def build_cloud_model(n_branches: int, message_dim: int, latent_dim: int,
                      n_classes: int, hidden: int, seed: int) -> CloudModel:
    """Branch stacks are small two-layer perceptrons around one hidden width.

    Each branch stack draws its initial parameters from its own child
    seed with ``nn.init_params``; the draws are stacked.
    """
    if n_branches < 1:
        raise ValueError("need at least one branch")
    seeds = _child_seeds(seed, 2 * n_branches)
    inner = nn.perceptron(message_dim, hidden, latent_dim)
    outer = nn.perceptron(latent_dim, hidden, n_classes)
    # branch m's inner stack from seed 2m, its outer stack from seed 2m+1;
    # the eight arrays of one branch come in ``_KEYS`` order
    branches = [[*nn.init_params(inner, z).values(), *nn.init_params(outer, u).values()]
                for z, u in zip(seeds[::2], seeds[1::2])]
    return CloudModel({key: (np.concatenate if key.startswith("z_in") else np.stack)(arrays)
                       for key, arrays in zip(_KEYS, zip(*branches))})


@dataclass
class CloudCache:
    param_set: CloudModel  # the model the forward pass read
    version: int  # the model's version at the forward pass
    received: Array  # (N, B, S)
    active: Array  # (B, N) float mask
    # (N, B, M*H) bool slopes, pre-activation > 0, of every inner first
    # layer's rectifier; False for inactive pairs
    inner_slope: Array
    pooled: Array  # (M, B, H) masked node sum of the rectified inner activations
    latent: Array  # (M, B, R) pooled latent per branch
    outer_act: Array  # (M, B, H_u) rectified outer activations; > 0 is their slope


def _prepare_received(model_in_dim: int, received: Array, allow_empty: bool = False) -> Array:
    """Node-first received rows (N, B, S) as one float array; a sequence of
    per-node (B, S) arrays is stacked. N = 0 is allowed only when
    ``allow_empty`` is set, and then only as a (0, B, S) array."""
    if len(received) == 0 and not allow_empty:
        raise ValueError("no received signals")
    rows = np.asarray(received, dtype=float)
    if rows.ndim != 3:
        raise ValueError("received signals must be (nodes, batch, length)")
    if rows.shape[-1] != model_in_dim:
        raise ValueError(f"received signals have length {rows.shape[-1]}, "
                         f"expected {model_in_dim}")
    return rows


def _active_mask(active: Array | None, batch: int, n_nodes: int) -> Array:
    """The (B, N) float mask of (sample, node) pairs that reached the cloud,
    all ones when ``active`` is None; every entry must be 0 or 1."""
    if active is None:
        return np.ones((batch, n_nodes))
    mask = np.asarray(active, dtype=float)
    if mask.shape != (batch, n_nodes):
        raise ValueError("active mask shape must be (batch, nodes)")
    if not np.all((mask == 0.0) | (mask == 1.0)):
        raise ValueError("active mask entries must be 0 or 1")
    return mask


def cloud_infer(model: CloudModel, received: Array, active: Array | None = None,
                keep_cache: bool = True, held: tuple[Array, int] | None = None
                ) -> tuple[Array, CloudCache | None]:
    """Pooled multi-branch inference on node-first received rows (N, B, S).

    Per branch m: latents z_m(y_i) are summed over nodes, passed through
    the outer stack, and the branch outputs are summed into the logits.
    ``active`` masks (sample, node) pairs that never reached the cloud;
    their latents are excluded from the pool.

    The branches run fused. All inner stacks read the same signal, so
    one product per node computes every branch's first layer, its bias
    included: the node's rows gain a last column of ones and the stacked
    weights a last column holding the bias, so no separate pass adds it.
    That gives the bits of a product followed by a bias add when the
    BLAS kernel accumulates each dot product in input order with one
    fused multiply-add per term, as OpenBLAS's SkylakeX double-precision
    GEMM does: the last term 1.0 * b rounds acc + b once, as the add
    did. Other kernels, and the matrix-vector product a one-row batch
    runs as, may split the sum and differ in the last bit;
    ``tests/digests.json`` names the kernel its bits were made with. The inner
    output layer is affine and commutes with the masked node sum,
    sum_i a_i (W h_i + b) = W (sum_i a_i h_i) + (sum_i a_i) b, so it runs
    once per branch on the pooled rows. The outer stacks run batched
    over the branch axis.

    Inference passes ``keep_cache=False`` and gets ``(logits, None)``: no
    rectifier slopes are kept, and without a mask no mask is built and
    every sample's active count is the node count, the same bits.

    ``held``, for inference only (no mask, no cache), is ``(pooled, k)``:
    a float (B, M*H) array holding the rectified first-layer sum of k
    earlier nodes, as this loop leaves it. The given rows' nodes are
    added onto it in place, in node order, so it ends holding the sum of
    k + N nodes, bit for bit the sum one call over all k + N nodes pools,
    and the inner output bias enters k + N times. N may then be 0: the
    call runs only the layers after the pool.
    """
    rows = _prepare_received(model.input_dim, received, allow_empty=held is not None)
    n_nodes, batch = rows.shape[:2]
    w = model.params
    # the first layers with their bias as a last input column, (M*H, S+1),
    # and one node's rows with a last column of ones
    w1 = np.concatenate([w["z_in"], w["z_in_b"][:, None]], axis=1)
    if held is None:
        pooled, earlier = np.zeros((batch, w1.shape[0])), 0
    else:
        pooled, earlier = held
        if active is not None or keep_cache:
            raise ValueError("a held pool is for inference only: no mask, no cache")
        if pooled.shape != (batch, w1.shape[0]) or pooled.dtype != float:
            raise ValueError(f"held pool must be a float ({batch}, {w1.shape[0]}) array")
    mask = None if active is None and not keep_cache else _active_mask(active, batch, n_nodes)
    y1 = np.ones((batch, w1.shape[1]))
    pre = np.empty_like(pooled)
    inner_slope = np.empty((n_nodes, *pooled.shape), dtype=bool) if keep_cache else None
    for i, y in enumerate(rows):
        y1[:, :-1] = y
        np.matmul(y1, w1.T, out=pre)
        if mask is not None:
            # zeroing an inactive pair's pre-activations zeroes its rectified
            # activation and its rectifier slope
            pre[mask[:, i] == 0.0] = 0.0
        if keep_cache:
            np.greater(pre, 0.0, out=inner_slope[i])
        pooled += np.maximum(pre, 0.0, out=pre)
    # (B, M*H) -> (M, B, H): a strided view, one (B, H) block per branch
    pooled = pooled.reshape(batch, model.n_branches, -1).transpose(1, 0, 2)
    latent = np.matmul(pooled, w["z_out"].transpose(0, 2, 1))
    counts = earlier + n_nodes if mask is None else mask.sum(axis=1)[:, None]
    latent += counts * w["z_out_b"][:, None, :]
    outer_act = np.matmul(latent, w["u_in"].transpose(0, 2, 1))
    outer_act += w["u_in_b"][:, None, :]
    np.maximum(outer_act, 0.0, out=outer_act)  # the outer rectifier, in place
    out = np.matmul(outer_act, w["u_out"].transpose(0, 2, 1))
    out += w["u_out_b"][:, None, :]
    logits = out.sum(axis=0)
    cache = CloudCache(model, model.version, rows, mask, inner_slope, pooled,
                       latent, outer_act) if keep_cache else None
    return logits, cache


def cloud_backward(model: CloudModel, cache: CloudCache, grad_logits: Array
                   ) -> tuple[dict[str, Array], Array]:
    """Parameter gradients plus the node-first downlink gradient messages.

    The gradients come as one dict keyed and shaped like ``model.params``,
    summed over the batch (the update owns the divisor);
    inner-stack gradients only accumulate contributions from each
    sample's active nodes. The messages (N, B, S) hold, per node and
    sample, the gradient of that sample's loss with respect to the
    node's received signal; rows for inactive pairs are zero. A cache from
    another model or an older version is rejected before any work.
    """
    model.check_cache(cache)
    g = np.asarray(grad_logits, dtype=float)
    batch = cache.active.shape[0]
    if g.shape != (batch, model.output_dim):
        raise ValueError("gradient shape does not match the cached forward")
    w = model.params
    ones = np.ones(batch)
    # outer stacks: every branch output receives the whole logit gradient
    u_out_w = np.matmul(g.T, cache.outer_act)
    # every branch's output bias gets the same gradient, one row per branch
    u_out_b = np.repeat((ones @ g)[None, :], model.n_branches, axis=0)
    g_hidden = np.matmul(g, w["u_out"])
    g_hidden *= cache.outer_act > 0.0
    u_in_w = np.matmul(g_hidden.transpose(0, 2, 1), cache.latent)
    u_in_b = np.matmul(ones, g_hidden)
    g_latent = np.matmul(g_hidden, w["u_in"])
    # inner output layer on the pooled rows; its bias entered once per active node
    z_out_w = np.matmul(g_latent.transpose(0, 2, 1), cache.pooled)
    z_out_b = np.matmul(cache.active.sum(axis=1), g_latent)
    g_pooled = np.matmul(g_latent, w["z_out"]).transpose(1, 0, 2).reshape(batch, -1)
    # inner first layers, per node, into per-node parts that the node halves
    # of a large batch write at once (``nn._split``); a node's message sums
    # over branches
    n_nodes = len(cache.received)
    w_parts = np.empty((n_nodes, *w["z_in"].shape))
    b_parts = np.empty((n_nodes, *w["z_in_b"].shape))
    messages = np.empty(cache.received.shape)
    g_acts = np.empty((2, *g_pooled.shape))  # one per half

    def nodes(lo: int, hi: int) -> None:
        g_act = g_acts[0 if lo == 0 else 1]
        for i in range(lo, hi):
            np.multiply(cache.inner_slope[i], g_pooled, out=g_act)
            np.matmul(g_act.T, cache.received[i], out=w_parts[i])
            np.matmul(ones, g_act, out=b_parts[i])
            np.matmul(g_act, w["z_in"], out=messages[i])

    nn._split(n_nodes, cache.inner_slope.size + messages.size, nodes)
    # the parts add in node order, onto zeros, as one loop over the nodes adds them
    z_in_w = np.zeros_like(w["z_in"])
    z_in_b = np.zeros_like(w["z_in_b"])
    for i in range(n_nodes):
        z_in_w += w_parts[i]
        z_in_b += b_parts[i]
    grads = {"z_in": z_in_w, "z_in_b": z_in_b, "z_out": z_out_w, "z_out_b": z_out_b,
             "u_in": u_in_w, "u_in_b": u_in_b, "u_out": u_out_w, "u_out_b": u_out_b}
    return grads, messages


# --- baseline cloud architectures -------------------------------------------

SUM_AGG = "sum_agg"
CATNET = "catnet"
MHNET = "mhnet"


class BaselineModel(nn.StackSet):
    """Comparison cloud models.

    ``sum_agg`` has no parameters and emits the plain sum of received
    signals as logits (softmax lives in the loss), which forces the
    message length to equal the class count. ``catnet`` is one
    perceptron over the concatenation of exactly ``n_nodes`` signals.
    ``mhnet`` owns one head stack per node and sums the active heads'
    outputs.

    The stacks are the slices of one stack set, each with two hidden
    layers of width ``hidden``: none for ``sum_agg``, one for ``catnet``
    drawn from ``seed``, and for ``mhnet`` one per head, head i drawn from
    child seed i of ``seed``.
    """

    def __init__(self, kind: str, message_dim: int, n_classes: int, n_nodes: int,
                 hidden: int | None, seed: int):
        if kind == SUM_AGG:
            if message_dim != n_classes:
                raise ValueError("sum aggregation requires message length == class count")
            layers, seeds = (), []
        elif kind in (CATNET, MHNET):
            layers = _baseline_layout(kind, message_dim, n_classes, n_nodes, hidden)
            seeds = [seed] if kind == CATNET else _child_seeds(seed, n_nodes)
        else:
            raise ValueError(f"unknown baseline kind {kind!r}")
        super().__init__(layers, seeds)
        self.kind = kind
        self.message_dim = message_dim
        self.n_classes = n_classes
        self.n_nodes = n_nodes

    def check_nodes(self, n_nodes: int) -> None:
        """Raise unless the model pools ``n_nodes`` nodes: catnet takes exactly
        the count it was built for, mhnet at most one node per head."""
        if self.kind == CATNET and n_nodes != self.n_nodes:
            raise ValueError(f"catnet was built for {self.n_nodes} nodes, got {n_nodes}")
        if self.kind == MHNET and n_nodes > self.n_slices:
            raise ValueError(f"mhnet has {self.n_slices} heads, got {n_nodes} nodes")

    def infer(self, received: Array, active: Array | None = None, keep_cache: bool = True
              ) -> tuple[Array, BaselineCache | None]:
        return baseline_infer(self, received, active, keep_cache)

    def backward(self, cache: BaselineCache, grad_logits: Array
                 ) -> tuple[dict[str, Array], Array]:
        return baseline_backward(self, cache, grad_logits)


def _baseline_layout(kind: str, message_dim: int, n_classes: int, n_nodes: int,
                     hidden: int) -> list[nn.LayerSpec]:
    """The layer list of every stack of a catnet or mhnet: a perceptron with
    two hidden layers of one width, over the concatenated signals for
    catnet's one stack and over one signal for each mhnet head."""
    if kind not in (CATNET, MHNET):
        raise ValueError(f"only catnet and mhnet have stacks, not {kind!r}")
    if n_nodes < 1:
        raise ValueError(f"{kind} needs at least one node")
    width = n_nodes * message_dim if kind == CATNET else message_dim
    return nn.perceptron(width, hidden, hidden, n_classes)


def matched_hidden_width(kind: str, message_dim: int, n_classes: int, n_nodes: int,
                         target_params: int) -> int:
    """Hidden width whose parameter count lands nearest the target, the
    narrower of two equally near widths.

    Keeps architecture comparisons honest: sweeps never hand a baseline
    more or fewer parameters than the model it is compared against.
    """
    def count(w):
        return ((n_nodes if kind == MHNET else 1)
                * nn.param_count(_baseline_layout(kind, message_dim, n_classes, n_nodes, w)))
    # the count grows with the width: step up to the first width at or past the target
    w = 1
    while count(w) < target_params:
        w += 1
    return w - 1 if w > 1 and target_params - count(w - 1) <= count(w) - target_params else w


def build_baseline(kind: str, message_dim: int, n_classes: int, n_nodes: int,
                   seed: int, hidden: int | None = None,
                   target_params: int | None = None) -> BaselineModel:
    if kind != SUM_AGG and hidden is None:
        if target_params is None:
            raise ValueError("need a hidden width or a parameter budget")
        hidden = matched_hidden_width(kind, message_dim, n_classes, n_nodes, target_params)
    return BaselineModel(kind, message_dim, n_classes, n_nodes, hidden, seed)


@dataclass
class BaselineCache:
    param_set: BaselineModel  # the model the forward pass read
    version: int  # the model's version at the forward pass
    forward: nn.ForwardCache | None  # catnet's, or every head's node-first; None for sum_agg
    active: Array  # (B, N) float mask


def _masked_node_sum(mask: Array, rows: Array) -> Array:
    """sum_i mask[:, i] * rows[i] over node-first rows (N, B, X), added in
    node order onto zeros, as a loop over the nodes adds it."""
    return (mask.T[:, :, None] * rows).sum(axis=0)


def baseline_infer(model: BaselineModel, received: Array, active: Array | None = None,
                   keep_cache: bool = True) -> tuple[Array, BaselineCache | None]:
    """Logits from node-first received rows (N, B, S); with ``keep_cache``
    false the stacks keep no forward cache and no cache is returned. mhnet
    runs its first N heads in one node-first forward pass."""
    rows = _prepare_received(model.message_dim, received)
    n_nodes, batch = rows.shape[:2]
    mask = _active_mask(active, batch, n_nodes)
    model.check_nodes(n_nodes)
    fc = None
    if model.kind == SUM_AGG:
        logits = _masked_node_sum(mask, rows)
    elif model.kind == CATNET:
        if not np.all(mask == 1.0):
            raise ValueError("catnet cannot run with inactive nodes")
        stacked = np.concatenate(rows, axis=-1)
        logits, fc = nn.forward(model.slice_view(0), stacked, keep_cache=keep_cache)
    else:
        # mhnet: one head per node index
        out, fc = nn.forward(model.node_range(0, n_nodes), rows, keep_cache=keep_cache)
        logits = _masked_node_sum(mask, out)
    return logits, BaselineCache(model, model.version, fc, mask) if keep_cache else None


def baseline_backward(model: BaselineModel, cache: BaselineCache, grad_logits: Array
                      ) -> tuple[dict[str, Array], Array]:
    """Parameter gradients keyed and shaped like ``model.params`` (summed
    over the batch) and the node-first downlink messages (N, B, S). A head
    no node used gets a zero gradient. A cache from another model or an
    older version is rejected first, for every kind: sum_agg keeps no
    forward cache of its own to check."""
    model.check_cache(cache)
    g = np.asarray(grad_logits, dtype=float)
    batch, n_nodes = cache.active.shape
    if g.shape != (batch, model.n_classes):
        raise ValueError("gradient shape does not match the cached forward")
    if model.kind == CATNET:
        grad_set = nn.backward(cache.forward.stack, cache.forward, g)
        # (B, N*S) -> (N, B, S): node i's message is its block of the input gradient
        messages = grad_set.input_grad.reshape(batch, n_nodes, -1).transpose(1, 0, 2)
        return {name: p[None] for name, p in grad_set.param_grads.items()}, messages
    # node i's rows of the logit gradient, zero where the pair was inactive
    upstream = cache.active.T[:, :, None] * g
    if model.kind == SUM_AGG:
        return {}, upstream
    grad_set = nn.backward(cache.forward.stack, cache.forward, upstream)
    unused = model.n_slices - n_nodes
    grads = {name: np.concatenate([p, np.zeros((unused, *p.shape[1:]))]) if unused else p
             for name, p in grad_set.param_grads.items()}
    return grads, grad_set.input_grad
