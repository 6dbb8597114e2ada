"""Reference implementations the protocol is checked against.

The centralized reference round (one joint SGD step through the composite
edge-channel-cloud graph), the finite-difference oracle and the
equivalence runner that steps the protocol and the reference side by
side. The reference reads from ``protocol`` only the shared draws and the
state; its encode loop, uplink map and edge commit are written out here,
apart from the phase helpers, so the code is never checked against itself.
"""
from __future__ import annotations

import time
from typing import Any, Mapping

import numpy as np

from . import cloud, data, edge, nn, protocol

Array = np.ndarray


def sgd_step(params: Mapping[str, Array], grads: Mapping[str, Array], eta) -> dict[str, Array]:
    """Plain gradient step p <- p - eta * g, returning a fresh dict.

    ``eta`` is a number, or one rate per slice along every parameter's
    leading axis.
    """
    if set(params) != set(grads):
        raise ValueError("gradient names do not match parameters")
    rate = np.asarray(eta, dtype=float)
    out = {}
    for name, p in params.items():
        g = grads[name]
        if np.shape(g) != np.shape(p):
            raise ValueError(f"shape mismatch for {name}")
        out[name] = p - rate.reshape(rate.shape + (1,) * (np.ndim(p) - rate.ndim)) * g
    return out


def centralized_oracle_round(state: protocol.TrainingState, round_index: int) -> None:
    """One joint SGD step through the full composite graph.

    The fading and noise draws are embedded as fixed affine maps, the
    loss is backpropagated end to end, and every parameter set is
    updated in a single commit. Consumes the identical random streams
    as the protocol round for the same config and round index. ``state``
    is a ``protocol.init_state`` state; its optimizers are not read.
    """
    cfg = state.config
    if cfg.optimizer != "sgd":
        raise ValueError("the centralized reference is defined for plain SGD")
    if round_index != state.round_index + 1:
        raise ValueError(f"round {round_index} does not follow round {state.round_index}")
    batch = state.schedule[round_index - 1]
    env = protocol.draw_round_env(cfg, state.dataset, batch, round_index)
    b = len(batch)

    encoders = state.encoders
    caches, gains, received = [], [], []
    for i in range(cfg.n_train):
        mag = np.abs(env.h[i])
        x = env.observations[i]
        if cfg.cqie:
            x = np.concatenate([x, edge.cqi_side_input(mag, cfg.pathloss)], axis=-1)
        s, cache = nn.forward(encoders.node_encoder(i), x)
        caches.append(cache)
        # the fixed uplink map y = H s + n, H = diag([|h|; |h|])
        gains.append(np.concatenate([mag, mag], axis=-1))
        received.append(gains[i] * s + env.up_noise[i])

    logits, cloud_cache = state.cloud_model.infer(received, env.active)
    _, grad_logits = nn.softmax_cross_entropy(logits, env.labels)
    cloud_grads, messages = state.cloud_model.backward(cloud_cache, grad_logits)

    # per-node encoder gradients through the fixed channel map: d = H m
    encoder_grads = [nn.backward(caches[i].stack, caches[i], gains[i] * messages[i]).param_grads
                     for i in range(cfg.n_train)]

    # single joint commit; without async coordination every node is active
    # on all b samples
    state.cloud_model.set_params(sgd_step(state.cloud_model.params, cloud_grads,
                                          cfg.eta / b))
    counts = env.active.sum(axis=0)
    stepped = {name: p.copy() for name, p in encoders.params.items()}
    for name, p in stepped.items():
        if cfg.encoder_sharing:
            total = np.zeros_like(p[0])
            for i in np.flatnonzero(counts):
                total = total + encoder_grads[i][name] * (b / counts[i])
            p[0] = p[0] - cfg.eta / cfg.n_train / b * total
        else:
            for i in np.flatnonzero(counts):
                p[i] = p[i] - cfg.eta / counts[i] * encoder_grads[i][name]
    encoders.set_params(stepped)
    state.round_index = round_index


class NoSmoothInstanceError(RuntimeError):
    """No draw of an oracle instance came far enough from every kink to check."""


_SMOOTH_MARGIN = 1e-3  # distance to the nearest kink a checked instance needs
_SMOOTH_DRAWS = 100


def _draw_smooth(draw):
    """First of up to ``_SMOOTH_DRAWS`` draws that lies in one smooth piece.

    ``draw()`` returns an instance and its kink margin. When every draw
    is too close to a kink nothing is checked: a kinked instance would
    report a spurious failure.
    """
    for _ in range(_SMOOTH_DRAWS):
        instance, margin = draw()
        if margin > _SMOOTH_MARGIN:
            return instance
    raise NoSmoothInstanceError(f"no instance in {_SMOOTH_DRAWS} draws lies "
                                f"{_SMOOTH_MARGIN:g} from every kink")


def _rel_err(a: Array, b: Array) -> float:
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / scale))


def _central_differences(value, pairs, step: float) -> float:
    """Largest relative error of central differences of ``value()`` against
    analytic gradients.

    ``pairs`` holds (array, gradient) of equal shape; each array entry is
    moved by +-``step`` in place, ``value()`` is read, and the entry is
    restored before the next one moves. Entries are indexed in the array
    itself: a reshape of a strided view would move a copy.
    """
    worst = 0.0
    for p, g in pairs:
        for idx in np.ndindex(p.shape):
            old = p[idx]
            p[idx] = old + step
            up_val = value()
            p[idx] = old - step
            dn_val = value()
            p[idx] = old
            fd = (up_val - dn_val) / (2 * step)
            worst = max(worst, _rel_err(np.asarray(fd), np.asarray(g[idx])))
    return worst


def _kink_margin(stack: nn.StackView, x: Array) -> float:
    """Distance of the forward pass on ``x`` to the nearest non-smooth point.

    Central differences are only meaningful inside one smooth piece, so
    the oracle redraws any instance that sits too close to a rectifier
    zero or a projection power boundary. The pass is replayed here, in
    the forward's operation order, from ``x`` and the parameters.
    """
    margin = np.inf
    h = x
    for idx, layer in enumerate(stack.layers):
        if isinstance(layer, nn.Dense):
            h = h @ stack.params[f"dense{idx}.w"].T
            h += stack.params[f"dense{idx}.b"]
        elif isinstance(layer, nn.Relu):
            margin = min(margin, float(np.min(np.abs(h))))
            h = np.maximum(h, 0.0)
        else:
            if layer.mode == nn.PER_RB:
                half = h.shape[-1] // 2
                p = h[..., :half] ** 2 + h[..., half:] ** 2
            else:
                p = np.sum(h * h, axis=-1)
            margin = min(margin, float(np.min(np.abs(p - layer.power))))
            h = nn.projection_forward(h, layer.power, layer.mode)
    return margin


def _fd_stack_instance(rng: np.random.Generator, step: float) -> float:
    """Finite-difference check of one random stack; returns max relative error."""
    in_dim = int(rng.integers(2, 6))
    hidden = int(rng.integers(2, 7))
    out_dim = 2 * int(rng.integers(1, 4))
    mode = nn.PER_RB if rng.random() < 0.5 else nn.SUM
    layout = rng.integers(0, 3)
    if layout == 0:
        layers = nn.perceptron(in_dim, out_dim)
    elif layout == 1:
        layers = nn.perceptron(in_dim, hidden, out_dim)
    else:
        # keep clipped and pass-through entries both present under the budget
        layers = [*nn.perceptron(in_dim, hidden, out_dim),
                  nn.Projection(float(rng.uniform(0.2, 1.5)), mode)]
    stack = nn.StackSet(layers, [int(rng.integers(0, 2 ** 31))]).slice_view(0)

    def draw():
        x = rng.normal(size=(1, in_dim)) * 2.0
        _, cache = nn.forward(stack, x)
        return (x, cache), _kink_margin(stack, x)

    x, cache = _draw_smooth(draw)
    upstream = rng.normal(size=(1, out_dim))
    grads = nn.backward(stack, cache, upstream)

    def value() -> float:
        out, _ = nn.forward(stack, x)
        return float(out[0] @ upstream[0])

    pairs = [(p, grads.param_grads[name]) for name, p in stack.params.items()]
    return _central_differences(value, pairs + [(x, grads.input_grad)], step)


def _cloud_kink_margin(model: cloud.CloudModel, received: list[Array], active: Array) -> float:
    """Distance of the cloud's forward pass to the nearest rectifier kink.

    The inner and outer pre-activations are replayed, in the forward's
    operation order, from the received rows, the mask and the parameters.
    Inactive pairs' pre-activations are held at zero and never move, so
    they are no kink.
    """
    w = model.params
    batch = len(active)
    pooled = np.zeros((batch, w["z_in"].shape[0]))
    margin = np.inf
    for i, y in enumerate(received):
        pre = y @ w["z_in"].T
        pre += w["z_in_b"]
        on = active[:, i] == 1.0
        pre[~on] = 0.0
        margin = min(margin, float(np.min(np.abs(pre[on]), initial=np.inf)))
        pooled += np.maximum(pre, 0.0)
    pooled = pooled.reshape(batch, model.n_branches, -1).transpose(1, 0, 2)
    latent = np.matmul(pooled, w["z_out"].transpose(0, 2, 1))
    latent += active.sum(axis=1)[:, None] * w["z_out_b"][:, None, :]
    outer_pre = np.matmul(latent, w["u_in"].transpose(0, 2, 1))
    outer_pre += w["u_in_b"][:, None, :]
    return min(margin, float(np.min(np.abs(outer_pre))))


def _fd_cloud_instance(rng: np.random.Generator, n_branches: int, n_nodes: int,
                       step: float) -> float:
    """One cloud instance on a masked batch of three samples.

    Sample 0 never reaches the cloud from node 0 and the last sample
    reaches it from every node, so inactive pairs, a row's active count
    on the inner output bias and, with one node, a row with no active
    node are all differentiated. The loss is the batch sum.
    """
    model = cloud.build_cloud_model(n_branches, message_dim=4, latent_dim=3,
                                    n_classes=3, hidden=4,
                                    seed=int(rng.integers(0, 2 ** 31)))
    batch = 3

    def draw():
        # nonzero biases: the count-weighted inner output bias moves the
        # logits; a row with no active node has outer pre-activations set by
        # the biases alone, so they are redrawn with the mask and the inputs
        model.set_params({key: rng.normal(scale=0.5, size=p.shape) if key.endswith("_b") else p
                          for key, p in model.params.items()})
        active = (rng.random((batch, n_nodes)) < 0.6).astype(float)
        active[0, 0] = 0.0
        active[-1] = 1.0
        received = [rng.normal(size=(batch, 4)) for _ in range(n_nodes)]
        logits, cache = cloud.cloud_infer(model, received, active)
        return (active, received, logits, cache), _cloud_kink_margin(model, received, active)

    active, received, logits, cache = _draw_smooth(draw)
    labels = rng.integers(0, 3, size=batch)
    _, gx = nn.softmax_cross_entropy(logits, labels)
    grads, messages = cloud.cloud_backward(model, cache, gx)

    def value() -> float:
        lg, _ = cloud.cloud_infer(model, received, active)
        return float(np.sum(nn.softmax_cross_entropy(lg, labels)[0]))

    pairs = [(p, grads[key]) for key, p in model.params.items()]
    return _central_differences(value, pairs + list(zip(received, messages)), step)


def run_gradcheck(seed: int = 0, stack_instances: int = 140,
                  cloud_repeats: int = 16, tolerance: float = 1e-5,
                  step: float = 1e-5) -> dict[str, Any]:
    """Finite-difference oracle over every layer type and the full cloud path
    on masked batches; ``NoSmoothInstanceError`` if an instance stays kinked."""
    rng = np.random.default_rng(seed)
    t0 = time.time()
    worst = 0.0
    instances = 0
    for _ in range(stack_instances):
        worst = max(worst, _fd_stack_instance(rng, step))
        instances += 1
    for n_branches in (1, 3):
        for n_nodes in (1, 3):
            for _ in range(cloud_repeats):
                worst = max(worst, _fd_cloud_instance(rng, n_branches, n_nodes, step))
                instances += 1
    elapsed = time.time() - t0
    return {"ok": worst <= tolerance, "instances": instances,
            "max_rel_err": worst, "tolerance": tolerance, "elapsed_s": elapsed}


def _max_param_deviation(a, b) -> float:
    pa = protocol.state_parameters(a)
    pb = protocol.state_parameters(b)
    worst = 0.0
    for name in pa:
        worst = max(worst, _rel_err(pa[name], pb[name]))
    return worst


def _track_oracle(seed: int, sharing: bool, rounds: int) -> float:
    """Largest parameter deviation between the protocol and the centralized
    reference over ``rounds`` rounds of a toy run with a noiseless downlink."""
    dataset = data.generate_synthetic(data.dataset_seed(seed), n_classes=3, grid=8,
                                      samples=(64, 16, 16), window=6)
    cfg = protocol.TrainingConfig(
        n_train=3, message_dim=8, n_branches=2, latent_dim=6, cloud_hidden=10,
        encoder_hidden=(12,), n_classes=3, obs_dim=36, rounds=rounds, batch_size=8,
        eta=0.05, snr_up_db=(10.0, 10.0), snr_dn_db=(10.0, 10.0),
        downlink="noiseless", encoder_sharing=sharing, val_cadence=0,
        master_seed=seed)
    state = protocol.init_state(cfg, dataset)
    oracle = protocol.init_state(cfg, dataset)
    worst = 0.0
    for k in range(1, rounds + 1):
        protocol.run_training_round(state, k)
        centralized_oracle_round(oracle, k)
        worst = max(worst, _max_param_deviation(state, oracle))
    return worst


def run_equivalence(seed: int = 0, rounds: int = 50, fedavg_rounds: int = 20,
                    tolerance: float = 1e-10) -> dict[str, Any]:
    """Protocol-vs-centralized agreement with a noiseless downlink.

    Dedicated encoders over ``rounds`` rounds, then the shared-encoder
    averaging path against the jointly-updated shared encoder at the
    scaled rate; both must track within ``tolerance``.
    """
    t0 = time.time()
    dedicated_dev = _track_oracle(seed, sharing=False, rounds=rounds)
    fedavg_dev = _track_oracle(seed + 1, sharing=True, rounds=fedavg_rounds)
    elapsed = time.time() - t0
    return {"ok": dedicated_dev <= tolerance and fedavg_dev <= tolerance,
            "dedicated_max_dev": dedicated_dev, "fedavg_max_dev": fedavg_dev,
            "rounds": rounds, "fedavg_rounds": fedavg_rounds,
            "tolerance": tolerance, "elapsed_s": elapsed}
