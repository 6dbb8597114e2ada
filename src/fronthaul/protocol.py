"""Five-phase communication rounds, evaluation and decentralized inference.

One training round runs edge forward-pass, uplink coordination, cloud
backpropagation, downlink coordination, and edge backpropagation, in
that order. Parameter commits are staged per phase: the cloud updates
from this round's uplink (computed under last round's edge parameters)
and the edges update from this round's downlink messages, so neither
side ever reads the other's post-round parameters.

All randomness is drawn from streams keyed by (domain, round), never
from a shared cursor, so results are independent of evaluation order
and identical however the per-node work is scheduled. The centralized
reference round in ``fronthaul.oracles`` consumes the same streams and
must track the protocol parameter-for-parameter when the downlink is
noiseless; that agreement is the main correctness check on the whole
protocol.
"""
from __future__ import annotations

import math
import numbers
import weakref
from dataclasses import dataclass, field, fields

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

ARCHITECTURES = ("proposed", cloud.CATNET, cloud.MHNET, cloud.SUM_AGG)
# the gradient downlink: the paper's noisy wireless links; the same links with
# zero noise, which the centralized reference tracks; or ideal delivery of H m
DOWNLINKS = ("wireless", "noiseless", "exact")

_SPLIT_IDS = {"train": 0, "val": 1, "test": 2}
_EVAL_CHUNK = 512  # evaluation samples per encode-and-uplink pass
# the pools' bytes: 8 MiB holds the benchmark grid's 9 noise levels of
# 768 samples at M*H = 96 (5.31 MB)
_POOL_CAP = 8 << 20


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
    encoder_hidden: tuple = (48,)
    n_classes: int = 4
    obs_dim: int = 144
    architecture: str = "proposed"  # one of ARCHITECTURES
    baseline_hidden: int | None = None  # None means match the proposed budget
    # optimization
    rounds: int = 400
    batch_size: int = 64
    eta: float = 0.05
    optimizer: str = "sgd"  # one of nn.OPTIMIZERS
    # fronthaul
    snr_up_db: tuple = (0.0, 30.0)
    snr_dn_db: tuple = (0.0, 30.0)
    downlink: str = "wireless"  # one of DOWNLINKS
    power_mode: str = nn.PER_RB  # one of nn.POWER_MODES
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
        for f in fields(self):
            value = getattr(self, f.name)
            if any(isinstance(x, float) and not math.isfinite(x)
                   for x in (value if isinstance(value, tuple) else (value,))):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.message_dim % 2 != 0 or self.message_dim < 2:
            raise ValueError("message_dim must be even and positive")
        if self.n_train < 1:
            raise ValueError("need at least one edge node")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.rounds < 0:
            raise ValueError("rounds must be nonnegative")
        for name in ("n_branches", "latent_dim", "cloud_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if any(width < 1 for width in self.encoder_hidden):
            raise ValueError("encoder_hidden widths must be at least 1")
        if self.baseline_hidden is not None and self.baseline_hidden < 1:
            raise ValueError("baseline_hidden must be at least 1")
        if self.eta < 0:
            raise ValueError("eta must be nonnegative")
        if self.val_cadence < 0:
            raise ValueError("val_cadence must be nonnegative")
        for name, pair in (("snr_up_db", self.snr_up_db), ("snr_dn_db", self.snr_dn_db)):
            lo, hi = pair
            if hi < lo:
                raise ValueError(f"{name} range is reversed")
        if self.power_mode not in nn.POWER_MODES:
            raise ValueError(f"unknown power mode {self.power_mode!r}")
        if self.downlink not in DOWNLINKS:
            raise ValueError(f"unknown downlink mode {self.downlink!r}")
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.architecture!r}")
        if self.optimizer not in nn.OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.architecture == cloud.CATNET and self.async_coordination:
            raise ValueError("architecture = catnet needs async_coordination = false: the "
                             "concatenation baseline needs every node on every sample")
        if self.architecture == cloud.SUM_AGG and self.message_dim != self.n_classes:
            raise ValueError("sum aggregation requires message_dim == n_classes")
        if self.drop_probability is not None and not 0.0 <= self.drop_probability < 1.0:
            raise ValueError("drop_probability must be in [0, 1)")
        if self.p_e <= 0 or self.p_c <= 0:
            raise ValueError("power budgets must be positive")
        lo, hi = self.pathloss_d
        if self.pathloss and (lo <= 0 or hi < lo):
            raise ValueError("pathloss distance range must be positive and ordered")
        with np.errstate(all="ignore"):
            factor = np.power([lo, hi], -self.pathloss_alpha)
        # the factor is monotone in d, so the two ends cover the range
        if self.pathloss and not np.all(np.isfinite(factor) & (factor > 0)):
            raise ValueError(f"pathloss_d = {lo:g},{hi:g}: the fading variance "
                             f"d**(-pathloss_alpha) is {factor[0]:g} to {factor[1]:g}; "
                             "it must be positive and finite")

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


@dataclass
class EvalPopulation:
    """One split's evaluation nodes: their draws, and what the parameters make of them.

    The draws are held node-first over the whole split: the fading
    magnitudes |h| (n, n_samples, blocks), the unit noise rows (n,
    n_samples, S) and the crop offsets (n, n_samples, 2), one node per
    stream, with the split's labels. No parameter touches them; they are
    valid for the dataset object named while ``key`` still matches, and
    the first m of them are the population of m nodes.

    ``rows`` (the noiseless received rows H s of the first k <= n nodes,
    (k, n_samples, S)) and ``pools`` were made for ``made_for``: the cloud
    model object and its ``version``, and the encoder set object and its
    ``version``. ``pools`` maps an uplink noise std to ``(pooled, k)``: the
    proposed cloud's rectified first-layer sum over the first k nodes'
    received rows at that std, (n_samples, M*H), as ``cloud.cloud_infer``
    leaves it, least recently used first, at most ``_POOL_CAP`` bytes.

    At 12 nodes on 768 samples with S = 16 the draws and rows are 3.11 MB
    (H s and the unit noise 1.18 MB each, |h| 0.59 MB, the offsets 0.15
    MB), and 9 noise levels with M*H = 96 pool 5.31 MB. A deep copy is
    None, so a copied state holds no population; see ``_eval_population``
    for the one state in the process that holds one.
    """

    dataset: data.SyntheticDataset
    key: tuple
    labels: Array
    magnitude: Array
    unit: Array
    offsets: Array
    rows: Array
    made_for: tuple | None = None
    pools: dict[float, tuple[Array, int]] = field(default_factory=dict)

    def __deepcopy__(self, memo):
        return None

    def free_made(self) -> None:
        """Drop the rows and pools, keeping the draws."""
        self.rows = np.empty((0, *self.rows.shape[1:]))
        self.made_for, self.pools = None, {}


@dataclass
class TrainingState:
    config: TrainingConfig
    dataset: data.SyntheticDataset
    encoders: edge.EncoderSet
    cloud_model: cloud.CloudModel | cloud.BaselineModel
    schedule: list[Array]
    edge_optimizer: nn.SgdOptimizer | nn.AdamOptimizer
    cloud_optimizer: nn.SgdOptimizer | nn.AdamOptimizer
    round_index: int = 0
    # the process's one evaluation population while this state evaluated last
    eval_population: EvalPopulation | None = field(default=None, repr=False, compare=False)


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
    The link tensors are drawn sample-first, (B, N, ...), and held
    node-first as transposed views.
    """

    batch_indices: Array
    labels: Array
    observations: Array  # (N, B, A)
    h: Array  # (N, B, blocks) complex fading
    up_noise: Array  # (N, B, S) real rows, already scaled
    dn_noise: Array | None  # (N, B, S) real rows, already scaled; None under exact
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

    if cfg.pathloss:
        d = stream(seed, _DOM_PATHLOSS, k).uniform(
            cfg.pathloss_d[0], cfg.pathloss_d[1], size=(b, n))
        pathloss = (d, cfg.pathloss_alpha)
    else:
        pathloss = None
    h = channel.sample_channel(stream(seed, _DOM_CHANNEL, k), blocks,
                               pathloss=pathloss, shape=(b, n))

    up_noise = channel.noise(stream(seed, _DOM_UP_NOISE, k), (b, n, blocks),
                             sigma_c2[:, None, None])
    dn_noise = None  # exact delivery reads no downlink noise, so none is drawn
    if cfg.downlink != "exact":
        sigma_e2 = np.zeros(b) if cfg.downlink == "noiseless" else channel.snr_to_noise_var(snr_dn)
        dn_noise = channel.noise(stream(seed, _DOM_DN_NOISE, k), (b, n, blocks),
                                 sigma_e2[:, None, None]).transpose(1, 0, 2)

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
                    observations=observations, h=h.transpose(1, 0, 2),
                    up_noise=up_noise.transpose(1, 0, 2),
                    dn_noise=dn_noise,
                    snr_up_db=snr_up, snr_dn_db=snr_dn,
                    active=active, redraws=redraws)


def _encoder_seed(config: TrainingConfig, node_index: int) -> int:
    return int(np.random.SeedSequence(
        config.master_seed, spawn_key=(_DOM_INIT, 1 + node_index)).generate_state(1)[0])


def _cloud_seed(config: TrainingConfig) -> int:
    return int(np.random.SeedSequence(
        config.master_seed, spawn_key=(_DOM_INIT, 0)).generate_state(1)[0])


def _proposed_cloud(config: TrainingConfig) -> cloud.CloudModel:
    return cloud.build_cloud_model(config.n_branches, config.message_dim,
                                   config.latent_dim, config.n_classes,
                                   config.cloud_hidden, _cloud_seed(config))


def proposed_param_count(config: TrainingConfig) -> int:
    """The parameter budget the baselines are matched to, read from the
    proposed cloud the config builds."""
    return _proposed_cloud(config).buffer.size


def build_cloud(config: TrainingConfig):
    if config.architecture == "proposed":
        return _proposed_cloud(config)
    target = None if config.baseline_hidden is not None else proposed_param_count(config)
    return cloud.build_baseline(config.architecture, config.message_dim,
                                config.n_classes, config.n_train, _cloud_seed(config),
                                hidden=config.baseline_hidden, target_params=target)


def init_encoders(config: TrainingConfig) -> edge.EncoderSet:
    """One encoder per node, each from its node's seed, or with encoder
    sharing one encoder (node 0's) that serves every node."""
    count = 1 if config.encoder_sharing else config.n_train
    layers = edge.encoder_layers(config.obs_dim, config.message_dim, config.encoder_hidden,
                                 config.p_e, config.power_mode, cqie=config.cqie)
    return edge.EncoderSet(layers, [_encoder_seed(config, i) for i in range(count)],
                           config.cqie, shared=config.encoder_sharing)


def init_state(config: TrainingConfig, dataset: data.SyntheticDataset) -> TrainingState:
    config.validate()
    if dataset.n_classes != config.n_classes:
        raise ValueError("config n_classes does not match the dataset")
    if dataset.obs_dim != config.obs_dim:
        raise ValueError("config obs_dim does not match the dataset window")
    schedule = schedule_minibatches(config.master_seed, len(dataset.train_labels),
                                    config.batch_size, config.rounds)
    return TrainingState(config=config, dataset=dataset, encoders=init_encoders(config),
                         cloud_model=build_cloud(config), schedule=schedule,
                         edge_optimizer=nn.make_optimizer(config.optimizer, config.eta),
                         cloud_optimizer=nn.make_optimizer(config.optimizer, config.eta))


def _norm(model) -> float:
    """The L2 norm over a model's parameters, its buffer's squares summed by
    numpy's pairwise add, not by BLAS, whose sum splits across threads:
    the bits do not depend on the BLAS thread count."""
    b = model.buffer.reshape(-1)
    return math.sqrt(float(np.add.reduce(b * b)))


def _encode_and_uplink(encoders: edge.EncoderSet, observations: Array, h: Array,
                       noise: Array | None, pathloss: bool, keep_cache: bool = False,
                       before_uplink=None, first_node: int = 0
                       ) -> tuple[Array, nn.ForwardCache | None]:
    """Encode every node's rows, then carry all messages over the uplink at once.

    ``observations`` (N, B, A), the fading ``h`` (N, B, blocks), complex or
    its magnitudes |h|, and the scaled ``noise`` rows (N, B, S), or None for
    noiseless rows, are node-first, for nodes ``first_node`` onward; only
    |h| is read, and a channel-aware node reads its own as side input.
    ``before_uplink`` runs between the two steps. Returns the received rows
    (N, B, S) and the encoders' forward cache.
    """
    cqi = edge.cqi_side_input(np.abs(h), pathloss) if encoders.cqie else None
    messages, cache = edge.encode(encoders, observations, cqi, keep_cache=keep_cache,
                                  first_node=first_node)
    if before_uplink is not None:
        before_uplink()
    return channel.uplink_transmit(messages, h, noise), cache


def run_training_round(state: TrainingState, round_index: int,
                       phase_hook=None) -> RoundRecord:
    """Execute one five-phase round and commit the staged updates.

    The rows and pools of the process's evaluation population are freed
    first, whichever state holds it, and its draws kept: the round makes
    them stale on this state, and on another state they would stay
    resident while training runs. Validation between rounds draws once.
    """
    holder = _holder()
    if holder is not None and holder.eval_population is not None:
        holder.eval_population.free_made()
    cfg = state.config
    if round_index != state.round_index + 1:
        raise ValueError(f"round {round_index} does not follow round {state.round_index}")
    batch = state.schedule[round_index - 1]
    env = draw_round_env(cfg, state.dataset, batch, round_index)
    b = len(batch)

    def hook(phase):
        if phase_hook is not None:
            phase_hook(phase, round_index)

    hook("edge-forward")
    received, edge_cache = _encode_and_uplink(state.encoders, env.observations, env.h,
                                              env.up_noise, cfg.pathloss, keep_cache=True,
                                              before_uplink=lambda: hook("uplink"))
    uplink_count = received.size

    hook("cloud-backprop")
    logits, cloud_cache = state.cloud_model.infer(received, env.active)
    losses, grad_logits = nn.softmax_cross_entropy(logits, env.labels)
    cloud_grads, dn_messages = state.cloud_model.backward(cloud_cache, grad_logits)
    state.cloud_optimizer.step(state.cloud_model, cloud_grads, b)

    hook("downlink")
    # rows for inactive pairs come out of the backward pass as exact zeros
    # and are never transmitted, so only active pairs count
    gradient_rows = _downlink_phase(cfg, env, dn_messages)
    downlink_count = int(env.active.sum()) * cfg.message_dim

    hook("edge-backprop")
    _edge_backprop_phase(state, env, edge_cache, gradient_rows)

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
        param_norm_cloud=_norm(state.cloud_model) if on_cadence else None,
        param_norm_edges=_norm(state.encoders) if on_cadence else None,
        uplink_values=uplink_count,
        downlink_values=downlink_count,
        redraw_count=env.redraws,
    )


def _downlink_phase(config: TrainingConfig, env: RoundEnv, dn_messages: Array) -> Array:
    """Deliver the node-first gradient messages (N, B, S); returns the decoded rows.

    A noiseless downlink runs the wireless legs on the zero noise that
    ``draw_round_env`` drew for it."""
    if config.downlink == "exact":
        # reliable links with channel knowledge at the cloud: d = H m
        return channel.gain(env.h) * dn_messages
    alpha = channel.compute_alpha(dn_messages, config.p_c, config.power_mode)
    received = channel.downlink_transmit(dn_messages, env.h, alpha, env.dn_noise)
    return channel.downlink_decode(received, env.h, alpha)


def _edge_backprop_phase(state: TrainingState, env: RoundEnv, cache: nn.ForwardCache,
                         gradient_rows: Array) -> None:
    """One local step per node on its delivered gradient rows.

    A node sums the gradient over the rows of its active samples and
    divides by their count; a node with no active sample does not step.
    A shared encoder takes one step on the mean over nodes of those
    averaged gradients, which for SGD equals averaging the nodes' stepped
    parameters. Under Adam a node that does not step keeps its step count
    and moments.
    """
    # rows of inactive samples carry downlink noise only
    rows = gradient_rows * env.active.T[:, :, None]
    grads, divisor = state.encoders.step_gradients(
        edge.batch_gradient(state.encoders, cache, rows), env.active.sum(axis=0))
    state.edge_optimizer.step(state.encoders, grads, divisor)


def run_inference(encoders: edge.EncoderSet, model, h: Array, sigma_c2,
                  observations: Array, rng: np.random.Generator,
                  pathloss: bool = False) -> Array:
    """One cooperative inference pass: encode, transmit uplink, pool at the cloud.

    The fading ``h`` is node-first, (N, B, blocks), and ``observations`` is
    (N, B, A); node i encodes with encoder i, or with the shared encoder.
    The uplink noise of variance ``sigma_c2`` (a scalar, or one value per
    sample as (B, 1)) is drawn from ``rng`` node by node. A population the
    encoders cannot serve or the cloud cannot pool fails before any draw
    or encoding. The encoders and the cloud run forward only and keep no
    backward cache.
    """
    encoders.check_nodes(len(h))
    model.check_nodes(len(h))
    noise = np.stack([channel.noise(rng, h_node.shape, sigma_c2) for h_node in h])
    received, _ = _encode_and_uplink(encoders, observations, h, noise, pathloss)
    logits, _ = model.infer(received, keep_cache=False)
    return logits


# the one state whose ``eval_population`` is held, as a weak reference
_holder = lambda: None  # noqa: E731


def _eval_population(state: TrainingState, split: str, n_test: int) -> EvalPopulation:
    """The state's population for ``split``, its first ``n_test`` nodes drawn
    and encoded, drawing and encoding only the nodes it lacks.

    The process holds one population, on the state that evaluated last:
    evaluating this state frees another state's population first.

    Node i draws from its own stream, keyed by (split, i), over the whole
    split: the pathloss distances, the fading, the unit noise and the crop
    offsets, in that order. So the first m nodes of a larger population
    are the population of m, and a sweep over n_test draws each node once.
    The draws are keyed on the dataset object, the split, ``master_seed``,
    ``message_dim`` and the pathloss fields; a change of any draws the
    population again. The rows H s and the pools are keyed on
    ``made_for``, the cloud and encoder set objects and their
    ``version``s, which every parameter change (a step, ``set_params``, a
    load) bumps: on a miss the pools are dropped and the first n_test
    nodes are cropped again from the stored offsets and encoded over the
    stored |h|, which is all the uplink gain and the channel-quality input
    read. Nodes beyond the held rows are encoded and appended, each by its
    own encoder.
    """
    global _holder
    holder = _holder()
    if holder is not state:
        if holder is not None:
            holder.eval_population = None
        _holder = weakref.ref(state)
    cfg = state.config
    key = (split, cfg.master_seed, cfg.n_blocks, cfg.pathloss, tuple(cfg.pathloss_d),
           cfg.pathloss_alpha)
    population = state.eval_population
    if population is None or population.dataset is not state.dataset or population.key != key:
        labels = state.dataset.split(split)[1]
        shape = (0, len(labels))
        population = state.eval_population = EvalPopulation(
            state.dataset, key, labels, np.empty((*shape, cfg.n_blocks)),
            np.empty((*shape, cfg.message_dim)), np.empty((*shape, 2), dtype=np.int64),
            np.empty((*shape, cfg.message_dim)))
    if len(population.magnitude) < n_test:
        _draw_nodes(state, population, split, n_test)
    made_for = (state.cloud_model, state.cloud_model.version,
                state.encoders, state.encoders.version)
    if population.made_for != made_for:
        population.free_made()
        population.made_for = made_for
    if len(population.rows) < n_test:
        _encode_nodes(state, population, split, len(population.rows), n_test)
    return population


def _grown(held: Array, n: int) -> Array:
    """A new array of ``n`` nodes along the leading axis, the first
    ``len(held)`` copied from ``held``: one transient copy while it grows."""
    out = np.empty((n, *held.shape[1:]), dtype=held.dtype)
    out[:len(held)] = held
    return out


def _draw_nodes(state: TrainingState, population: EvalPopulation, split: str,
                n_test: int) -> None:
    """Draw |h|, the unit noise and the crop offsets of the nodes after the
    held ones, up to ``n_test``, each from its own stream; encode nothing."""
    cfg = state.config
    n_samples = len(population.labels)
    magnitude, unit, offsets = (_grown(a, n_test) for a in
                                (population.magnitude, population.unit, population.offsets))
    for i in range(len(population.magnitude), n_test):
        rng = stream(cfg.master_seed, _DOM_EVAL, _SPLIT_IDS[split], i)
        pathloss = None
        if cfg.pathloss:
            pathloss = (rng.uniform(cfg.pathloss_d[0], cfg.pathloss_d[1], size=n_samples),
                        cfg.pathloss_alpha)
        h = channel.sample_channel(rng, cfg.n_blocks, pathloss=pathloss, shape=(n_samples,))
        np.abs(h, out=magnitude[i])
        unit[i] = channel.noise(rng, (n_samples, cfg.n_blocks), 2.0)
        offsets[i] = rng.integers(0, state.dataset.grid - state.dataset.window + 1,
                                  size=(n_samples, 2))
    population.magnitude, population.unit, population.offsets = magnitude, unit, offsets


def _encode_nodes(state: TrainingState, population: EvalPopulation, split: str,
                  first: int, n_test: int) -> None:
    """Keep the rows of nodes before ``first``; crop and encode nodes
    ``first`` to ``n_test - 1`` from their held draws, chunk by chunk."""
    states = state.dataset.split(split)[0]
    rows = _grown(population.rows[:first], n_test)
    for start in range(0, len(population.labels), _EVAL_CHUNK):
        chunk = slice(start, start + _EVAL_CHUNK)
        offsets = population.offsets[first:n_test, chunk].transpose(1, 0, 2)
        observations = data.crop_batch(states[chunk], offsets, state.dataset.window)
        hs, _ = _encode_and_uplink(state.encoders, observations,
                                   population.magnitude[first:n_test, chunk], None,
                                   state.config.pathloss, first_node=first)
        rows[first:, chunk] = hs
    population.rows = rows


def _take_pool(model: cloud.CloudModel, population: EvalPopulation, std: float,
               n_test: int) -> tuple[Array, int]:
    """The pooled sums (n_samples, M*H) held for ``std`` and their node count
    k <= ``n_test``, taken out of the population's pools until ``evaluate``
    puts them back as the most recently used entry, so a pass that fails
    leaves no half-pooled entry.

    On a miss, or when the entry holds k > n_test nodes, the sums restart
    from zero (k = 0) in the entry's array, or in the least recently used
    entry's array when the pools have no room for one more, or else in a
    new one.
    """
    pools = population.pools
    pooled, count = pools.pop(std, (None, 0))
    if pooled is not None and count <= n_test:
        return pooled, count
    if pooled is None:
        shape = (len(population.labels), model.params["z_in"].shape[0])
        while pools and (sum(p.nbytes for p, _ in pools.values())
                         + math.prod(shape) * 8 > _POOL_CAP):
            pooled, _ = pools.pop(next(iter(pools)))
        if pooled is None:
            return np.zeros(shape), 0
    pooled.fill(0.0)
    return pooled, 0


def evaluate(state: TrainingState, split: str = "val", n_test: int | None = None,
             snr_db: float | None = None) -> tuple[float, float]:
    """Accuracy and mean loss on a split under fixed evaluation channels.

    ``snr_db`` of None evaluates over noiseless links (fading still
    applies). Each node's draws are keyed by (split, node), so both
    sweeps are paired: every SNR reuses the same fading and crops, and
    the population of n nodes is the first n nodes of any larger one.
    Dedicated encoders serve at most n_train nodes, a shared one any number;
    the cloud's own rule (catnet exactly its node count, mhnet at most one
    node per head) is checked before any draw too. The cloud runs forward
    only and keeps no cache.

    The state keeps the last split's population in
    ``state.eval_population``: per node the draws (|h|, the unit noise and
    the crop offsets), the labels, and the received rows H s. A call draws
    only the nodes it lacks and encodes only the nodes whose rows it
    lacks, then hands the cloud the first n_test. Each SNR scales the unit
    noise by sqrt(sigma^2 / 2) and adds H s, which gives the bits a fresh
    draw at that SNR would. A parameter change of the cloud or the encoder
    set (its ``version``), or another object for either, re-crops and
    re-encodes the first n_test held nodes but does not draw again, so
    validation between training steps reuses one draw. A different split,
    another dataset object, or a change of ``master_seed``,
    ``message_dim`` or the pathloss fields draws the population again and
    replaces the old one. The process holds one population: evaluating
    this state frees the one another state holds, a training round frees
    its rows and pools, and a deep copy of a state holds none.

    The proposed cloud sums each node's rectified first layer over nodes
    before any layer that mixes them, so the population also pools: per
    uplink noise std (equal stds give equal rows), the cloud's first-layer
    sum over the first k nodes. A call at that std and n_test >= k hands
    the cloud only nodes k to n_test - 1 to add onto the sum, in node
    order as a pass over all n_test nodes adds them, so no bit moves; a
    repeated cell runs only the layers after the pool. A miss, or k >
    n_test, pools again from the first node. The pools share the rows'
    key and keep at most ``_POOL_CAP`` bytes, evicting the least recently
    used std. The baselines pool nothing and get all n_test nodes each
    call.
    The loss is summed per chunk of ``_EVAL_CHUNK`` samples in every case.

    A bad ``split``, ``n_test`` or ``snr_db`` (a bool, a non-finite value,
    or one whose noise variance overflows) raises ValueError before any
    draw and leaves the held population as it was.
    """
    if split not in _SPLIT_IDS:
        raise ValueError(f"split must be one of {sorted(_SPLIT_IDS)}, got {split!r}")
    n_test = state.config.n_train if n_test is None else n_test
    if isinstance(n_test, bool) or not isinstance(n_test, numbers.Integral) or n_test < 1:
        raise ValueError(f"n_test must be an integer of at least 1, got {n_test!r}")
    n_test = int(n_test)
    model = state.cloud_model
    state.encoders.check_nodes(n_test)
    model.check_nodes(n_test)
    if snr_db is not None and (isinstance(snr_db, bool) or not (
            isinstance(snr_db, numbers.Real) and math.isfinite(snr_db))):
        raise ValueError(f"snr_db must be None or a finite number, got {snr_db!r}")
    with np.errstate(over="ignore"):
        std = float(channel.noise_std(0.0 if snr_db is None else
                                      channel.snr_to_noise_var(snr_db)))
    if not math.isfinite(std):
        raise ValueError(f"snr_db = {snr_db!r} dB overflows the noise variance")
    population = _eval_population(state, split, n_test)
    pooled, first = None, 0
    if isinstance(model, cloud.CloudModel):
        pooled, first = _take_pool(model, population, std, n_test)

    correct = 0
    loss_total = 0.0
    n_samples = len(population.labels)
    for start in range(0, n_samples, _EVAL_CHUNK):
        chunk = slice(start, start + _EVAL_CHUNK)
        received = population.unit[first:n_test, chunk] * std
        received += population.rows[first:n_test, chunk]
        if pooled is None:
            logits, _ = model.infer(received, keep_cache=False)
        else:
            logits, _ = cloud.cloud_infer(model, received, keep_cache=False,
                                          held=(pooled[chunk], first))
        labels = population.labels[chunk]
        losses, _ = nn.softmax_cross_entropy(logits, labels)
        loss_total += float(np.sum(losses))
        correct += int(np.sum(np.argmax(logits, axis=1) == labels))
    if pooled is not None and pooled.nbytes <= _POOL_CAP:
        population.pools[std] = pooled, n_test
    return correct / n_samples, loss_total / n_samples


def train(config: TrainingConfig, dataset: data.SyntheticDataset,
          round_callback=None) -> tuple[TrainingState, list[RoundRecord]]:
    """Run the configured number of rounds with periodic validation.

    ``round_callback``, if given, receives each round's record once the
    round and its validation are done; training ends after the first
    round for which it returns true.
    """
    state = init_state(config, dataset)
    records: list[RoundRecord] = []
    for k in range(1, config.rounds + 1):
        record = run_training_round(state, k)
        if config.val_cadence and k % config.val_cadence == 0:
            record.val_accuracy, _ = evaluate(state, "val", n_test=config.n_train,
                                              snr_db=config.eval_snr_db)
        records.append(record)
        if round_callback is not None and round_callback(record):
            break
    return state, records


def rounds_to_target(records: list[RoundRecord], target: float) -> int | None:
    """The round of the first validation at or above ``target``, None if
    no validation in ``records`` reaches it."""
    return next((r.round_index for r in records
                 if r.val_accuracy is not None and r.val_accuracy >= target), None)


# --- parameter sets (checkpointing) -------------------------------------------


def _param_sets(state) -> dict[str, nn.ParamSet]:
    return {"cloud": state.cloud_model, "encoders": state.encoders}


def state_parameters(state) -> dict[str, Array]:
    """Every trainable array in the state, named ``{set}.{key}``: views of
    the ``cloud`` set's and the ``encoders`` set's own stacked arrays."""
    return {f"{set_name}.{key}": p for set_name, model in _param_sets(state).items()
            for key, p in model.params.items()}


def load_state_parameters(state, params: dict[str, Array]) -> None:
    """Install a named parameter dict saved by ``state_parameters``, one
    ``set_params`` per set."""
    expected = state_parameters(state)
    if set(params) != set(expected):
        diff = sorted(set(expected) ^ set(params))
        raise ValueError(f"parameter names do not match this configuration: {diff[:4]}")
    for name, p in params.items():
        if p.shape != expected[name].shape:
            raise ValueError(f"shape mismatch for {name}")
    for set_name, model in _param_sets(state).items():
        model.set_params({key: params[f"{set_name}.{key}"] for key in model.params})
