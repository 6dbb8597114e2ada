"""Five-phase communication rounds and the centralized reference path.

One training round runs edge forward-pass, uplink coordination, cloud
backpropagation, downlink coordination, and edge backpropagation, in
that order. Parameter commits are staged per phase: the cloud updates
from this round's uplink (computed under last round's edge parameters)
and the edges update from this round's downlink messages, so neither
side ever reads the other's post-round parameters.

All randomness is drawn from streams keyed by (domain, round), never
from a shared cursor, so results are independent of evaluation order
and identical however the per-node work is scheduled. The centralized
reference round consumes the same streams and must track the protocol
parameter-for-parameter when the downlink is noiseless; that agreement
is the main correctness check on the whole protocol.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import channel, cloud, data, edge, nn

Array = np.ndarray

# rng stream domains; spawn keys are (domain, round, ...) so no draw depends
# on another domain being sampled or skipped
_DOM_SCHEDULE = 1
_DOM_INIT = 2
_DOM_CHANNEL = 3
_DOM_UP_NOISE = 4
_DOM_DN_NOISE = 5
_DOM_SNR = 6
_DOM_CROP = 7
_DOM_ACTIVE = 8
_DOM_PATHLOSS = 9
_DOM_EVAL = 10

PHASES = ("edge-forward", "uplink", "cloud-backprop", "downlink", "edge-backprop")

_SPLIT_IDS = {"train": 0, "val": 1, "test": 2}


def stream(master_seed: int, domain: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(domain, *key)))


@dataclass
class TrainingConfig:
    # population and dimensions
    n_train: int = 3
    message_dim: int = 16
    n_branches: int = 5
    latent_dim: int = 32
    cloud_hidden: int = 32
    encoder_hidden: tuple = (64,)
    n_classes: int = 4
    obs_dim: int = 144
    architecture: str = "proposed"  # proposed | catnet | mhnet | sum_agg
    baseline_hidden: int | None = None  # None means match the proposed budget
    # optimization
    rounds: int = 400
    batch_size: int = 64
    eta: float = 0.05
    optimizer: str = "sgd"
    # fronthaul
    snr_up_db: tuple = (0.0, 30.0)
    snr_dn_db: tuple = (0.0, 30.0)
    noiseless_downlink: bool = False
    downlink: str = "wireless"  # wireless | exact
    power_mode: str = nn.PER_RB
    p_e: float = 1.0
    p_c: float = 1.0
    freeze_snr_per_round: bool = False
    # coordination
    async_coordination: bool = False
    drop_probability: float | None = None  # None means (N-1)/(2N)
    encoder_sharing: bool = False
    cqie: bool = False
    pathloss: bool = False
    pathloss_d: tuple = (1.0, 10.0)
    pathloss_alpha: float = 2.7
    # evaluation
    val_cadence: int = 10
    eval_snr_db: float | None = None  # None means noiseless evaluation channels
    # reproducibility
    master_seed: int = 1234

    def validate(self) -> None:
        if self.message_dim % 2 != 0 or self.message_dim < 2:
            raise ValueError("message_dim must be even and positive")
        if self.n_train < 1:
            raise ValueError("need at least one edge node")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.rounds < 0:
            raise ValueError("rounds must be nonnegative")
        for name, pair in (("snr_up_db", self.snr_up_db), ("snr_dn_db", self.snr_dn_db)):
            lo, hi = pair
            if hi < lo:
                raise ValueError(f"{name} range is reversed")
        if self.power_mode not in (nn.PER_RB, nn.SUM):
            raise ValueError(f"unknown power mode {self.power_mode!r}")
        if self.downlink not in ("wireless", "exact"):
            raise ValueError(f"unknown downlink mode {self.downlink!r}")
        if self.architecture not in ("proposed", cloud.CATNET, cloud.MHNET, cloud.SUM_AGG):
            raise ValueError(f"unknown architecture {self.architecture!r}")
        if self.architecture == cloud.CATNET and self.async_coordination:
            raise ValueError("the concatenation baseline cannot run asynchronously")
        if self.architecture == cloud.SUM_AGG and self.message_dim != self.n_classes:
            raise ValueError("sum aggregation requires message_dim == n_classes")
        if self.drop_probability is not None and not 0.0 <= self.drop_probability < 1.0:
            raise ValueError("drop_probability must be in [0, 1)")
        if self.p_e < 0 or self.p_c <= 0:
            raise ValueError("power budgets must be positive")
        lo, hi = self.pathloss_d
        if self.pathloss and (lo <= 0 or hi < lo):
            raise ValueError("pathloss distance range must be positive and ordered")

    @property
    def n_blocks(self) -> int:
        return self.message_dim // 2

    @property
    def effective_drop_probability(self) -> float:
        if self.drop_probability is not None:
            return self.drop_probability
        return (self.n_train - 1) / (2.0 * self.n_train)


@dataclass
class RoundRecord:
    round_index: int
    batch_indices: Array
    active_mask: Array
    train_loss: float
    snr_up_db_mean: float
    snr_dn_db_mean: float
    mean_active: float
    # parameter norms, computed only on the rounds metrics.csv prints
    # (round_index a multiple of max(1, val_cadence)) and None otherwise
    param_norm_cloud: float | None
    param_norm_edges: float | None
    uplink_values: int
    downlink_values: int
    redraw_count: int
    val_accuracy: float | None = None
    val_loss: float | None = None

    @property
    def per_node_active_counts(self) -> Array:
        return self.active_mask.sum(axis=0).astype(int)


@dataclass
class FronthaulCounter:
    """Tallies every real value carried over the edge-cloud boundary."""

    uplink_values: int = 0
    downlink_values: int = 0


@dataclass
class TrainingState:
    config: TrainingConfig
    dataset: data.SyntheticDataset
    nodes: list[edge.EdgeNode]
    cloud_model: cloud.CloudModel | cloud.BaselineModel
    schedule: list[Array]
    edge_optimizers: list  # one per node, or one for a shared encoder
    cloud_optimizer: nn.SgdOptimizer | nn.AdamOptimizer
    counter: FronthaulCounter = field(default_factory=FronthaulCounter)
    round_index: int = 0


def schedule_minibatches(master_seed: int, dataset_size: int, batch_size: int,
                         rounds: int) -> list[Array]:
    """Predetermined mini-batch index sets, one per round.

    Each epoch is a seeded shuffle of the full index range chunked into
    consecutive batches, so cloud and nodes can regenerate the identical
    schedule from the shared seed alone.
    """
    if batch_size > dataset_size:
        raise ValueError("batch size exceeds the dataset")
    rng = stream(master_seed, _DOM_SCHEDULE)
    batches: list[Array] = []
    while len(batches) < rounds:
        perm = rng.permutation(dataset_size)
        for start in range(0, dataset_size, batch_size):
            batches.append(perm[start:start + batch_size])
    return batches[:rounds]


def sample_active_sets(rng: np.random.Generator, n_train: int, batch_size: int,
                       drop_probability: float) -> tuple[Array, int]:
    """Per-sample active node mask under independent dropping.

    Samples that come up with no active node at all are redrawn, since a
    round cannot process a sample nobody delivered: returns the boolean
    mask of shape (batch, nodes) and how many redraws that took.
    """
    if n_train < 1:
        raise ValueError("need at least one node")
    mask = rng.random((batch_size, n_train)) >= drop_probability
    redraws = 0
    # only rows with no active node draw again, so visiting just those
    # consumes the stream exactly as a scan over every row would
    for b in np.flatnonzero(~mask.any(axis=1)):
        while not mask[b].any():
            mask[b] = rng.random(n_train) >= drop_probability
            redraws += 1
    return mask, redraws


@dataclass
class RoundEnv:
    """Every random draw one round consumes, in fixed shapes.

    Tensors cover all (sample, node) pairs whether or not a pair is
    active, so toggling coordination modes never shifts another stream.
    """

    batch_indices: Array
    labels: Array
    observations: Array  # (N, B, A)
    h: Array  # (B, N, blocks) complex fading
    up_noise: Array  # (B, N, blocks) complex, already scaled
    dn_noise: Array  # (B, N, blocks) complex, already scaled
    snr_up_db: Array  # (B,)
    snr_dn_db: Array  # (B,)
    active: Array  # (B, N) bool
    redraws: int


def draw_round_env(config: TrainingConfig, dataset: data.SyntheticDataset,
                   batch_indices: Array, round_index: int) -> RoundEnv:
    cfg = config
    b = len(batch_indices)
    n = cfg.n_train
    blocks = cfg.n_blocks
    seed = cfg.master_seed
    k = round_index

    snr_rng = stream(seed, _DOM_SNR, k)
    if cfg.freeze_snr_per_round:
        snr_up = np.full(b, snr_rng.uniform(*cfg.snr_up_db))
        snr_dn = np.full(b, snr_rng.uniform(*cfg.snr_dn_db))
    else:
        snr_up = snr_rng.uniform(cfg.snr_up_db[0], cfg.snr_up_db[1], size=b)
        snr_dn = snr_rng.uniform(cfg.snr_dn_db[0], cfg.snr_dn_db[1], size=b)
    sigma_c2 = channel.snr_to_noise_var(snr_up)
    sigma_e2 = np.zeros(b) if cfg.noiseless_downlink else channel.snr_to_noise_var(snr_dn)

    if cfg.pathloss:
        d = stream(seed, _DOM_PATHLOSS, k).uniform(
            cfg.pathloss_d[0], cfg.pathloss_d[1], size=(b, n))
        pathloss = (d, cfg.pathloss_alpha)
    else:
        pathloss = None
    ch = channel.sample_channel(stream(seed, _DOM_CHANNEL, k), blocks,
                                pathloss=pathloss, shape=(b, n))

    up_rng = stream(seed, _DOM_UP_NOISE, k)
    up_noise = np.sqrt(sigma_c2[:, None, None] / 2.0) * (
        up_rng.standard_normal((b, n, blocks)) + 1j * up_rng.standard_normal((b, n, blocks)))
    dn_rng = stream(seed, _DOM_DN_NOISE, k)
    dn_noise = np.sqrt(sigma_e2[:, None, None] / 2.0) * (
        dn_rng.standard_normal((b, n, blocks)) + 1j * dn_rng.standard_normal((b, n, blocks)))

    if cfg.async_coordination:
        active, redraws = sample_active_sets(
            stream(seed, _DOM_ACTIVE, k), n, b, cfg.effective_drop_probability)
    else:
        active, redraws = np.ones((b, n), dtype=bool), 0

    states = dataset.train_states[batch_indices]
    offsets = stream(seed, _DOM_CROP, k).integers(
        0, dataset.grid - dataset.window + 1, size=(b, n, 2))
    observations = data.crop_batch(states, offsets, dataset.window)

    return RoundEnv(batch_indices=np.asarray(batch_indices),
                    labels=dataset.train_labels[batch_indices],
                    observations=observations, h=ch.h,
                    up_noise=up_noise, dn_noise=dn_noise,
                    snr_up_db=snr_up, snr_dn_db=snr_dn,
                    active=active, redraws=redraws)


def _encoder_seed(config: TrainingConfig, node_index: int) -> int:
    # one shared initialization when nodes reuse the identical encoder
    idx = 0 if config.encoder_sharing else node_index
    return int(np.random.SeedSequence(
        config.master_seed, spawn_key=(_DOM_INIT, 1 + idx)).generate_state(1)[0])


def _cloud_seed(config: TrainingConfig) -> int:
    return int(np.random.SeedSequence(
        config.master_seed, spawn_key=(_DOM_INIT, 0)).generate_state(1)[0])


def proposed_param_count(config: TrainingConfig) -> int:
    cfg = config
    z = (cfg.message_dim * cfg.cloud_hidden + cfg.cloud_hidden
         + cfg.cloud_hidden * cfg.latent_dim + cfg.latent_dim)
    u = (cfg.latent_dim * cfg.cloud_hidden + cfg.cloud_hidden
         + cfg.cloud_hidden * cfg.n_classes + cfg.n_classes)
    return cfg.n_branches * (z + u)


def build_cloud(config: TrainingConfig):
    if config.architecture == "proposed":
        return cloud.build_cloud_model(config.n_branches, config.message_dim,
                                       config.latent_dim, config.n_classes,
                                       config.cloud_hidden, _cloud_seed(config))
    target = None if config.baseline_hidden is not None else proposed_param_count(config)
    return cloud.build_baseline(config.architecture, config.message_dim,
                                config.n_classes, config.n_train, _cloud_seed(config),
                                hidden=config.baseline_hidden, target_params=target)


def build_nodes(config: TrainingConfig) -> list[edge.EdgeNode]:
    nodes = []
    for i in range(config.n_train):
        enc = edge.build_encoder(config.obs_dim, config.message_dim,
                                 config.encoder_hidden, config.p_e, config.power_mode,
                                 _encoder_seed(config, i), cqie=config.cqie)
        nodes.append(edge.EdgeNode(i, enc, config.power_mode, config.p_e, config.cqie))
    return nodes


def init_state(config: TrainingConfig, dataset: data.SyntheticDataset) -> TrainingState:
    config.validate()
    if dataset.n_classes != config.n_classes:
        raise ValueError("config n_classes does not match the dataset")
    if dataset.obs_dim != config.obs_dim:
        raise ValueError("config obs_dim does not match the dataset window")
    nodes = build_nodes(config)
    cloud_model = build_cloud(config)
    schedule = schedule_minibatches(config.master_seed, len(dataset.train_labels),
                                    config.batch_size, config.rounds)
    n_edge_opts = 1 if config.encoder_sharing else len(nodes)
    edge_opts = [nn.make_optimizer(config.optimizer, config.eta) for _ in range(n_edge_opts)]
    return TrainingState(config=config, dataset=dataset, nodes=nodes,
                         cloud_model=cloud_model, schedule=schedule,
                         edge_optimizers=edge_opts,
                         cloud_optimizer=nn.make_optimizer(config.optimizer, config.eta))


def _extend_magnitude(h_rows: Array) -> Array:
    """Diagonal channel gain diag([|h|; |h|]) as elementwise row factors."""
    mag = np.abs(h_rows)
    return np.concatenate([mag, mag], axis=-1)


def _norm(params_list) -> float:
    total = 0.0
    for params in params_list:
        for p in params.values():
            total += float(np.sum(p * p))
    return math.sqrt(total)


def run_training_round(state: TrainingState, round_index: int,
                       phase_hook=None) -> RoundRecord:
    """Execute one five-phase round and commit the staged updates."""
    cfg = state.config
    if round_index != state.round_index + 1:
        raise ValueError(f"round {round_index} does not follow round {state.round_index}")
    batch = state.schedule[round_index - 1]
    env = draw_round_env(cfg, state.dataset, batch, round_index)
    b = len(batch)
    n = cfg.n_train

    def hook(phase):
        if phase_hook is not None:
            phase_hook(phase, round_index)

    hook("edge-forward")
    caches = []
    messages_up = []
    for i, node in enumerate(state.nodes):
        cqi = None
        if node.cqie:
            cqi = edge.cqi_side_input(np.abs(env.h[:, i, :]), cfg.pathloss)
        s, cache = edge.encode(node, env.observations[i], cqi)
        messages_up.append(s)
        caches.append(cache)

    hook("uplink")
    sigma_c2 = channel.snr_to_noise_var(env.snr_up_db)[:, None]
    received = []
    for i in range(n):
        ch = channel.ChannelRealization(h=env.h[:, i, :], sigma_c2=sigma_c2)
        y = channel.uplink_transmit(channel.pack(messages_up[i]), ch,
                                    noise=env.up_noise[:, i, :])
        received.append(y)
    uplink_count = n * b * cfg.message_dim
    state.counter.uplink_values += uplink_count

    hook("cloud-backprop")
    logits, cloud_cache = state.cloud_model.infer(received, env.active)
    losses, grad_logits = nn.softmax_cross_entropy(logits, env.labels)
    cloud_grads, dn_messages = state.cloud_model.backward(cloud_cache, grad_logits)
    state.cloud_optimizer.step(state.cloud_model, cloud_grads, b)

    hook("downlink")
    # rows for inactive pairs come out of the backward pass as exact zeros
    # and are never transmitted; the counter only sees active pairs
    gradient_rows = _downlink_phase(state, env, dn_messages)
    downlink_count = int(env.active.sum()) * cfg.message_dim
    state.counter.downlink_values += downlink_count

    hook("edge-backprop")
    _edge_backprop_phase(state, env, caches, gradient_rows)

    state.round_index = round_index
    on_cadence = round_index % max(1, cfg.val_cadence) == 0
    return RoundRecord(
        round_index=round_index,
        batch_indices=env.batch_indices,
        active_mask=env.active,
        train_loss=float(np.mean(losses)),
        snr_up_db_mean=float(np.mean(env.snr_up_db)),
        snr_dn_db_mean=float(np.mean(env.snr_dn_db)),
        mean_active=float(env.active.sum(axis=1).mean()),
        # the per-branch views keep the summation order, and so the rounding,
        # of the norm over per-branch stacks
        param_norm_cloud=_norm([state.cloud_model.named_params()]) if on_cadence else None,
        param_norm_edges=(_norm([node.encoder.params for node in state.nodes])
                          if on_cadence else None),
        uplink_values=uplink_count,
        downlink_values=downlink_count,
        redraw_count=env.redraws,
    )


def _downlink_phase(state: TrainingState, env: RoundEnv,
                    dn_messages: list[Array]) -> list[Array]:
    """Deliver per-node gradient rows; returns (B, S) arrays per node."""
    cfg = state.config
    rows = []
    if cfg.downlink == "exact":
        # reliable links with channel knowledge at the cloud: d = H m
        for i in range(cfg.n_train):
            rows.append(_extend_magnitude(env.h[:, i, :]) * dn_messages[i])
        return rows
    packed = [channel.pack(m) for m in dn_messages]
    if cfg.power_mode == nn.SUM:
        alpha_shared = channel.compute_alpha(packed, cfg.p_c, "sum")
    sigma_e2 = np.zeros(len(env.snr_dn_db)) if cfg.noiseless_downlink \
        else channel.snr_to_noise_var(env.snr_dn_db)
    for i in range(cfg.n_train):
        alpha = alpha_shared if cfg.power_mode == nn.SUM \
            else channel.compute_alpha(packed, cfg.p_c, "per-rb", i)
        ch = channel.ChannelRealization(h=env.h[:, i, :], sigma_e2=sigma_e2[:, None])
        y_tilde = channel.downlink_transmit(packed[i], ch, alpha,
                                            noise=env.dn_noise[:, i, :])
        rows.append(channel.downlink_decode(y_tilde, np.angle(env.h[:, i, :]), alpha))
    return rows


def _edge_backprop_phase(state: TrainingState, env: RoundEnv,
                         caches: list[nn.ForwardCache],
                         gradient_rows: list[Array]) -> None:
    """One local step per node on its delivered gradient rows.

    A node sums the gradient over the rows of its active samples and
    divides by their count; a node with no active sample does not step.
    A shared encoder takes one step on the mean over nodes of those
    averaged gradients, which for SGD equals averaging the nodes' stepped
    parameters.
    """
    cfg = state.config
    b = len(env.batch_indices)
    counts = env.active.sum(axis=0)
    steps = []
    for i, node in enumerate(state.nodes):
        count = int(counts[i])
        if count == 0:
            continue
        # a fully active node's rows need no mask
        rows = gradient_rows[i] if count == b else gradient_rows[i] * env.active[:, i][:, None]
        steps.append((i, edge.batch_gradient(node, caches[i], rows), count))
    if not cfg.encoder_sharing:
        for i, grads, count in steps:
            state.edge_optimizers[i].step(state.nodes[i].encoder, grads, count)
        return
    shared = state.nodes[0].encoder
    total = nn.zero_grads_like(shared)
    for _, grads, count in steps:
        for name in total:
            total[name] = total[name] + grads[name] / count
    state.edge_optimizers[0].step(shared, total, cfg.n_train)
    for node in state.nodes[1:]:
        node.encoder.set_params(shared.params)


def run_inference(nodes: list[edge.EdgeNode], model, channels, observations,
                  rng: np.random.Generator | None = None,
                  pathloss: bool = False) -> Array:
    """One cooperative inference pass: encode, transmit uplink, pool at the cloud."""
    received = []
    for node, ch, obs in zip(nodes, channels, observations):
        cqi = edge.cqi_side_input(ch.magnitude, pathloss) if node.cqie else None
        s, _ = edge.encode(node, obs, cqi)
        y = channel.uplink_transmit(channel.pack(s), ch, rng)
        received.append(y)
    logits, _ = model.infer(received)
    return logits


def _clone_encoder(node: edge.EdgeNode) -> nn.LayerStack:
    clone = nn.LayerStack(node.encoder.layers, node.encoder.seed)
    clone.set_params(node.encoder.params)
    return clone


def evaluation_nodes(state: TrainingState, n_test: int) -> list[edge.EdgeNode]:
    """Node population for evaluation.

    With encoder sharing a single trained encoder is replicated to any
    requested population; without it the first n_test trained nodes
    serve, which caps n_test at the training population.
    """
    cfg = state.config
    if cfg.encoder_sharing:
        return [edge.EdgeNode(i, _clone_encoder(state.nodes[0]), cfg.power_mode,
                              cfg.p_e, cfg.cqie) for i in range(n_test)]
    if n_test > cfg.n_train:
        raise ValueError(f"{n_test} nodes requested but only {cfg.n_train} trained "
                         "encoders exist (enable encoder sharing to scale up)")
    return state.nodes[:n_test]


def evaluate(state: TrainingState, split: str = "val", n_test: int | None = None,
             snr_db: float | None = None, chunk: int = 512) -> tuple[float, float]:
    """Accuracy and mean loss on a split under fixed evaluation channels.

    ``snr_db`` of None evaluates over noiseless links (fading still
    applies). Draws are keyed by (split, n_test), so sweeping the SNR
    reuses the same fading and crops and the comparison is paired.
    """
    cfg = state.config
    n_test = cfg.n_train if n_test is None else n_test
    nodes = evaluation_nodes(state, n_test)
    states, labels = state.dataset.split(split)
    n_samples = len(labels)
    blocks = cfg.n_blocks
    rng = stream(cfg.master_seed, _DOM_EVAL, _SPLIT_IDS[split], n_test)
    sigma2 = 0.0 if snr_db is None else float(channel.snr_to_noise_var(snr_db))

    correct = 0
    loss_total = 0.0
    for start in range(0, n_samples, chunk):
        stop = min(start + chunk, n_samples)
        nb = stop - start
        if cfg.pathloss:
            d = rng.uniform(cfg.pathloss_d[0], cfg.pathloss_d[1], size=(nb, n_test))
            pathloss = (d, cfg.pathloss_alpha)
        else:
            pathloss = None
        ch_all = channel.sample_channel(rng, blocks, pathloss=pathloss, shape=(nb, n_test))
        noise = np.sqrt(sigma2 / 2.0) * (rng.standard_normal((nb, n_test, blocks))
                                         + 1j * rng.standard_normal((nb, n_test, blocks)))
        offsets = rng.integers(0, state.dataset.grid - state.dataset.window + 1,
                               size=(nb, n_test, 2))
        observations = data.crop_batch(states[start:stop], offsets, state.dataset.window)
        received = []
        for i, node in enumerate(nodes):
            cqi = None
            if node.cqie:
                cqi = edge.cqi_side_input(np.abs(ch_all.h[:, i, :]), cfg.pathloss)
            s, _ = edge.encode(node, observations[i], cqi)
            ch = channel.ChannelRealization(h=ch_all.h[:, i, :])
            received.append(channel.uplink_transmit(channel.pack(s), ch,
                                                    noise=noise[:, i, :]))
        logits, _ = state.cloud_model.infer(received)
        losses, _ = nn.softmax_cross_entropy(logits, labels[start:stop])
        loss_total += float(np.sum(losses))
        correct += int(np.sum(np.argmax(logits, axis=1) == labels[start:stop]))
    return correct / n_samples, loss_total / n_samples


def train(config: TrainingConfig, dataset: data.SyntheticDataset,
          round_callback=None) -> tuple[TrainingState, list[RoundRecord]]:
    """Run the configured number of rounds with periodic validation."""
    state = init_state(config, dataset)
    records: list[RoundRecord] = []
    for k in range(1, config.rounds + 1):
        record = run_training_round(state, k)
        if config.val_cadence and k % config.val_cadence == 0:
            acc, loss = evaluate(state, "val", n_test=config.n_train,
                                 snr_db=config.eval_snr_db)
            record.val_accuracy = acc
            record.val_loss = loss
        records.append(record)
        if round_callback is not None:
            round_callback(record)
    return state, records


# --- centralized reference path ----------------------------------------------


@dataclass
class OracleState:
    """Mirror of TrainingState updated by end-to-end joint steps."""

    config: TrainingConfig
    dataset: data.SyntheticDataset
    nodes: list[edge.EdgeNode]
    cloud_model: cloud.CloudModel | cloud.BaselineModel
    schedule: list[Array]
    round_index: int = 0


def init_oracle_state(config: TrainingConfig,
                      dataset: data.SyntheticDataset) -> OracleState:
    config.validate()
    if config.optimizer != "sgd":
        raise ValueError("the centralized reference is defined for plain SGD")
    return OracleState(config=config, dataset=dataset, nodes=build_nodes(config),
                       cloud_model=build_cloud(config),
                       schedule=schedule_minibatches(config.master_seed,
                                                     len(dataset.train_labels),
                                                     config.batch_size, config.rounds))


def centralized_oracle_round(state: OracleState, round_index: int) -> None:
    """One joint SGD step through the full composite graph.

    The fading and noise draws are embedded as fixed affine maps, the
    loss is backpropagated end to end, and every parameter set is
    updated in a single commit. Consumes the identical random streams
    as the protocol round for the same config and round index.
    """
    cfg = state.config
    if round_index != state.round_index + 1:
        raise ValueError(f"round {round_index} does not follow round {state.round_index}")
    batch = state.schedule[round_index - 1]
    env = draw_round_env(cfg, state.dataset, batch, round_index)
    b = len(batch)

    caches = []
    received = []
    for i, node in enumerate(state.nodes):
        cqi = None
        if node.cqie:
            cqi = edge.cqi_side_input(np.abs(env.h[:, i, :]), cfg.pathloss)
        s, cache = edge.encode(node, env.observations[i], cqi)
        caches.append(cache)
        gain = _extend_magnitude(env.h[:, i, :])
        received.append(gain * s + channel.unpack(env.up_noise[:, i, :]))

    logits, cloud_cache = state.cloud_model.infer(received, env.active)
    _, grad_logits = nn.softmax_cross_entropy(logits, env.labels)
    cloud_grads, messages = state.cloud_model.backward(cloud_cache, grad_logits)

    # per-node encoder gradients through the fixed channel map: d = H m
    encoder_grads = []
    for i, node in enumerate(state.nodes):
        d_rows = _extend_magnitude(env.h[:, i, :]) * messages[i]
        encoder_grads.append(edge.batch_gradient(node, caches[i], d_rows))

    # single joint commit
    nn.apply_update(state.cloud_model, cloud_grads, cfg.eta, b)
    if cfg.encoder_sharing:
        total = nn.zero_grads_like(state.nodes[0].encoder)
        for i in range(cfg.n_train):
            if cfg.async_coordination:
                count = int(env.active[:, i].sum())
                if count == 0:
                    continue
                for name in total:
                    total[name] = total[name] + encoder_grads[i][name] * (b / count)
            else:
                nn.accumulate(total, encoder_grads[i])
        shared = nn.sgd_step(state.nodes[0].encoder.params, total, cfg.eta / cfg.n_train / b)
        for node in state.nodes:
            node.encoder.set_params(shared)
    else:
        for i, node in enumerate(state.nodes):
            if cfg.async_coordination:
                count = int(env.active[:, i].sum())
                if count == 0:
                    continue
                node.encoder.set_params(nn.sgd_step(node.encoder.params,
                                                    encoder_grads[i], cfg.eta / count))
            else:
                node.encoder.set_params(nn.sgd_step(node.encoder.params,
                                                    encoder_grads[i], cfg.eta / b))
    state.round_index = round_index


# --- named parameter views (checkpointing) ------------------------------------


def state_parameters(state) -> dict[str, Array]:
    """Flat named view over every trainable array in the state."""
    out = {f"cloud.{name}": p for name, p in state.cloud_model.named_params().items()}
    if state.config.encoder_sharing:
        for name, p in state.nodes[0].encoder.params.items():
            out[f"encoder_shared.{name}"] = p
    else:
        for i, node in enumerate(state.nodes):
            for name, p in node.encoder.params.items():
                out[f"encoder{i}.{name}"] = p
    return out


def load_state_parameters(state, params: dict[str, Array]) -> None:
    """Install a named parameter dict saved by ``state_parameters``."""
    expected = state_parameters(state)
    if set(params) != set(expected):
        diff = sorted(set(expected) ^ set(params))
        raise ValueError(f"parameter names do not match this configuration: {diff[:4]}")
    for name, p in params.items():
        if p.shape != expected[name].shape:
            raise ValueError(f"shape mismatch for {name}")

    def install(prefix, stack):
        stack.set_params({name: params[f"{prefix}.{name}"] for name in stack.params})

    state.cloud_model.set_named_params({name[len("cloud."):]: p for name, p in params.items()
                                        if name.startswith("cloud.")})
    if state.config.encoder_sharing:
        for node in state.nodes:
            install("encoder_shared", node.encoder)
    else:
        for i, node in enumerate(state.nodes):
            install(f"encoder{i}", node.encoder)
