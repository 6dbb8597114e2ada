"""Experiment driver: training runs, sweeps, and the numeric check suites.

Every run is a pure function of (config, master seed). The metrics CSV
is written incrementally, one row per validation point, so an
interrupted run still leaves its rows on disk; the checkpoint and the
final evaluation grid land next to it. The reported per-round time is
the simulated fronthaul occupancy (one microsecond per complex channel
use), a deterministic quantity, so identical reruns produce
byte-identical files.
"""
from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import checkpoint, cloud, config as config_mod, data, nn, protocol

Array = np.ndarray

CSV_COLUMNS = ("round", "phase_time_ms", "train_loss", "val_accuracy",
               "snr_up_db_mean", "snr_dn_db_mean", "mean_active_ens",
               "param_norm_cloud", "param_norm_edges")
NTEST_SWEEP = tuple(range(1, 13))  # populations an ntest sweep visits by default

_DOM_DATA = 0  # dataset seed domain under the master seed


@dataclass
class ExperimentResult:
    rows: list[dict[str, Any]] = field(default_factory=list)
    grid: list[dict[str, Any]] = field(default_factory=list)
    out_dir: str = "."
    final_round: int = 0


def dataset_seed(master_seed: int) -> int:
    return int(np.random.SeedSequence(master_seed,
                                      spawn_key=(_DOM_DATA,)).generate_state(1)[0])


def build_dataset(cfg: dict[str, Any]) -> data.SyntheticDataset:
    if cfg["dataset"] == "external":
        for key in ("external_train", "external_val", "external_test"):
            if not cfg[key]:
                raise config_mod.ConfigError(f"external dataset needs {key}")
        return data.load_external_dataset(cfg["external_train"], cfg["external_val"],
                                          cfg["external_test"], cfg["window"])
    return data.generate_synthetic(dataset_seed(cfg["master_seed"]),
                                   n_classes=cfg["classes"], grid=cfg["grid"],
                                   samples=(cfg["train_samples"], cfg["val_samples"],
                                            cfg["test_samples"]),
                                   window=cfg["window"])


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


class _MetricsWriter:
    """Aggregates per-round records into one CSV row per validation point."""

    def __init__(self, path, cadence: int):
        self.cadence = max(1, cadence)
        self.fh = open(path, "w", encoding="utf-8", newline="")
        self.fh.write(",".join(CSV_COLUMNS) + "\n")
        self.fh.flush()
        self._window: list[protocol.RoundRecord] = []

    def add(self, record: protocol.RoundRecord) -> None:
        self._window.append(record)
        if record.round_index % self.cadence == 0:
            self._flush_row(record)

    def _flush_row(self, record: protocol.RoundRecord) -> None:
        w = self._window
        comm_ms = float(np.mean([(r.uplink_values + r.downlink_values) / 2 / 1000.0
                                 for r in w]))
        row = {
            "round": record.round_index,
            "phase_time_ms": comm_ms,
            "train_loss": float(np.mean([r.train_loss for r in w])),
            "val_accuracy": record.val_accuracy,
            "snr_up_db_mean": float(np.mean([r.snr_up_db_mean for r in w])),
            "snr_dn_db_mean": float(np.mean([r.snr_dn_db_mean for r in w])),
            "mean_active_ens": float(np.mean([r.mean_active for r in w])),
            "param_norm_cloud": record.param_norm_cloud,
            "param_norm_edges": record.param_norm_edges,
        }
        self.fh.write(",".join(_fmt(row[c]) for c in CSV_COLUMNS) + "\n")
        self.fh.flush()
        self._window = []

    def close(self) -> None:
        self.fh.close()


def _ntest_grid(cfg: dict[str, Any]) -> tuple[int, ...]:
    if cfg["eval_ntest_grid"]:
        return tuple(cfg["eval_ntest_grid"])
    return (cfg["n_train"],)


def _check_populations(cfg: dict[str, Any], populations) -> None:
    """Reject evaluation populations the trained model cannot serve, before
    any round runs. The concatenation network takes exactly n_train
    signals and the multi-head network has one head per trained node,
    whether or not encoders are shared; without encoder sharing only the
    n_train trained encoders exist."""
    n_train = cfg["n_train"]
    requested = sorted({int(n) for n in populations})
    if cfg["architecture"] == cloud.CATNET:
        other = [n for n in requested if n != n_train]
        if other:
            raise config_mod.ConfigError(
                f"evaluation populations {other} differ from n_train = {n_train}; "
                "catnet concatenates exactly n_train signals")
    too_large = [n for n in requested if n > n_train]
    if not too_large:
        return
    if cfg["architecture"] == cloud.MHNET:
        raise config_mod.ConfigError(
            f"evaluation populations {too_large} exceed n_train = {n_train}; "
            "mhnet has one head per trained node")
    if not cfg["encoder_sharing"]:
        raise config_mod.ConfigError(
            f"evaluation populations {too_large} exceed n_train = {n_train}; "
            "dedicated encoders serve at most n_train nodes (set encoder_sharing = true)")


def _eval_grid(state: protocol.TrainingState, cfg: dict[str, Any]) -> list[dict[str, Any]]:
    grid = []
    for n_test in _ntest_grid(cfg):
        for snr in cfg["eval_snr_grid"]:
            acc, loss = protocol.evaluate(state, "test", n_test=n_test, snr_db=snr)
            grid.append({"architecture": cfg["architecture"], "n_test": n_test,
                         "snr_db": snr, "accuracy": acc, "loss": loss})
    return grid


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def run_training(cfg: dict[str, Any], out_dir) -> ExperimentResult:
    _check_populations(cfg, _ntest_grid(cfg))
    os.makedirs(out_dir, exist_ok=True)
    dataset = build_dataset(cfg)
    tc = config_mod.to_training_config(cfg, dataset.obs_dim, dataset.n_classes)
    writer = _MetricsWriter(os.path.join(out_dir, "metrics.csv"), cfg["val_cadence"])
    try:
        state, records = protocol.train(tc, dataset, round_callback=writer.add)
    finally:
        writer.close()
    checkpoint.save_checkpoint(os.path.join(out_dir, "checkpoint.bin"),
                               protocol.state_parameters(state),
                               config_mod.render_config(cfg), tc.rounds)
    grid = _eval_grid(state, cfg)
    result = ExperimentResult(grid=grid, out_dir=str(out_dir), final_round=tc.rounds)
    result.rows = [{"round": r.round_index, "train_loss": r.train_loss,
                    "val_accuracy": r.val_accuracy} for r in records
                   if r.val_accuracy is not None]
    _write_json(os.path.join(out_dir, "result.json"),
                {"config": config_mod.render_config(cfg), "grid": grid,
                 "final_round": tc.rounds})
    return result


def restore_state(checkpoint_path) -> tuple[protocol.TrainingState, dict[str, Any]]:
    """Rebuild a state from a checkpoint's own config echo and parameters."""
    params, config_text, round_index = checkpoint.load_checkpoint(checkpoint_path)
    cfg = config_mod.parse_config_text(config_text)
    dataset = build_dataset(cfg)
    tc = config_mod.to_training_config(cfg, dataset.obs_dim, dataset.n_classes)
    state = protocol.init_state(tc, dataset)
    protocol.load_state_parameters(state, params)
    state.round_index = round_index
    return state, cfg


def run_eval(cfg: dict[str, Any], out_dir) -> ExperimentResult:
    if not cfg["checkpoint"]:
        raise config_mod.ConfigError("eval needs a checkpoint path in the config")
    os.makedirs(out_dir, exist_ok=True)
    state, _ = restore_state(cfg["checkpoint"])
    grid = _eval_grid(state, cfg)
    _write_json(os.path.join(out_dir, "result.json"),
                {"config": config_mod.render_config(cfg), "grid": grid,
                 "final_round": state.round_index})
    return ExperimentResult(grid=grid, out_dir=str(out_dir),
                            final_round=state.round_index)


def _rounds_to_target(records_rows: list[dict[str, Any]], target: float | None):
    if target is None:
        return None
    for row in records_rows:
        if row["val_accuracy"] is not None and row["val_accuracy"] >= target:
            return row["round"]
    return None


def run_sweep(cfg: dict[str, Any], out_dir) -> ExperimentResult:
    axis = cfg["sweep"]
    if axis == "none":
        raise config_mod.ConfigError("sweep mode needs the sweep key")
    if axis == "ntest":  # the eval grid is checked by run_training, before round 1
        _check_populations(cfg, cfg["sweep_values"] or NTEST_SWEEP)
    os.makedirs(out_dir, exist_ok=True)
    rows: list[dict[str, Any]] = []
    if axis in ("snr", "ntest"):
        base = run_training(cfg, out_dir)
        state, _ = restore_state(os.path.join(out_dir, "checkpoint.bin"))
        if axis == "snr":
            values = cfg["sweep_values"] or (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
            for snr in values:
                acc, loss = protocol.evaluate(state, "test", n_test=cfg["n_train"],
                                              snr_db=float(snr))
                rows.append({"sweep": "snr", "value": float(snr),
                             "accuracy": acc, "loss": loss, "rounds_to_target": None})
        else:
            values = cfg["sweep_values"] or NTEST_SWEEP
            for n_test in values:
                acc, loss = protocol.evaluate(state, "test", n_test=int(n_test),
                                              snr_db=cfg["eval_snr_db"])
                rows.append({"sweep": "ntest", "value": int(n_test),
                             "accuracy": acc, "loss": loss, "rounds_to_target": None})
        final_round = base.final_round
    elif axis in ("batch", "branches"):
        if not cfg["sweep_values"]:
            raise config_mod.ConfigError(f"sweep {axis!r} needs sweep_values")
        key = "batch_size" if axis == "batch" else "branches"
        for value in cfg["sweep_values"]:
            sub = dict(cfg)
            sub[key] = int(value)
            sub["sweep"] = "none"
            sub_dir = os.path.join(out_dir, f"{axis}_{int(value)}")
            res = run_training(sub, sub_dir)
            last = res.grid[0] if res.grid else {"accuracy": None, "loss": None}
            rows.append({"sweep": axis, "value": int(value),
                         "accuracy": last["accuracy"], "loss": last["loss"],
                         "rounds_to_target": _rounds_to_target(res.rows,
                                                               cfg["target_accuracy"])})
        final_round = cfg["rounds"]
    else:
        raise config_mod.ConfigError(f"unknown sweep axis {axis!r}")
    with open(os.path.join(out_dir, "sweep.csv"), "w", encoding="utf-8") as fh:
        fh.write("sweep,value,accuracy,loss,rounds_to_target\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in
                              ("sweep", "value", "accuracy", "loss",
                               "rounds_to_target")) + "\n")
    _write_json(os.path.join(out_dir, "sweep.json"), rows)
    return ExperimentResult(rows=rows, out_dir=str(out_dir), final_round=final_round)


def run_experiment(config_path, seed: int | None = None, out_dir=".") -> ExperimentResult:
    """Train or sweep according to the config file; files land in out_dir."""
    cfg = config_mod.load_config(config_path)
    if seed is not None:
        cfg["master_seed"] = int(seed)
    if cfg["sweep"] != "none":
        return run_sweep(cfg, out_dir)
    return run_training(cfg, out_dir)


# --- numeric check suites -------------------------------------------------


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


def _kink_margin(stack: nn.LayerStack, cache: nn.ForwardCache) -> float:
    """Distance of the forward pass to the nearest non-smooth point.

    Central differences are only meaningful inside one smooth piece, so
    the oracle redraws any instance that sits too close to a rectifier
    zero or a projection power boundary.
    """
    margin = np.inf
    for idx, layer in enumerate(stack.layers):
        h_in = cache.inputs[idx]
        if isinstance(layer, nn.Relu):
            margin = min(margin, float(np.min(np.abs(h_in))))
        elif isinstance(layer, nn.Projection):
            if layer.mode == nn.PER_RB:
                half = h_in.shape[-1] // 2
                p = h_in[..., :half] ** 2 + h_in[..., half:] ** 2
            else:
                p = np.sum(h_in * h_in, axis=-1)
            margin = min(margin, float(np.min(np.abs(p - layer.power))))
    return margin


def _fd_stack_instance(rng: np.random.Generator, step: float) -> float:
    """Finite-difference check of one random stack; returns max relative error."""
    in_dim = int(rng.integers(2, 6))
    hidden = int(rng.integers(2, 7))
    out_dim = 2 * int(rng.integers(1, 4))
    mode = nn.PER_RB if rng.random() < 0.5 else nn.SUM
    layout = rng.integers(0, 3)
    if layout == 0:
        layers = [nn.Dense(in_dim, out_dim)]
    elif layout == 1:
        layers = [nn.Dense(in_dim, hidden), nn.Relu(), nn.Dense(hidden, out_dim)]
    else:
        # keep clipped and pass-through entries both present under the budget
        layers = [nn.Dense(in_dim, hidden), nn.Relu(), nn.Dense(hidden, out_dim),
                  nn.Projection(float(rng.uniform(0.2, 1.5)), mode)]
    stack = nn.LayerStack(layers, seed=int(rng.integers(0, 2 ** 31)))

    def draw():
        x = rng.normal(size=in_dim) * 2.0
        _, cache = nn.forward(stack, x)
        return (x, cache), _kink_margin(stack, cache)

    x, cache = _draw_smooth(draw)
    upstream = rng.normal(size=out_dim)
    grads = nn.backward(stack, cache, upstream)

    def value() -> float:
        out, _ = nn.forward(stack, x)
        return float(out @ upstream)

    worst = 0.0
    for name, p in stack.params.items():
        g = grads.param_grads[name]
        flat = p.reshape(-1)
        for idx in range(flat.size):
            old = flat[idx]
            flat[idx] = old + step
            up_val = value()
            flat[idx] = old - step
            dn_val = value()
            flat[idx] = old
            fd = (up_val - dn_val) / (2 * step)
            worst = max(worst, _rel_err(np.asarray(fd), np.asarray(g.reshape(-1)[idx])))
    for j in range(in_dim):
        old = x[j]
        x[j] = old + step
        up_val = value()
        x[j] = old - step
        dn_val = value()
        x[j] = old
        fd = (up_val - dn_val) / (2 * step)
        worst = max(worst, _rel_err(np.asarray(fd), np.asarray(grads.input_grad[j])))
    return worst


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
        # the biases alone, so they are redrawn with the mask and the inputs,
        # branch by branch in the per-branch stacks' order
        model.set_named_params({name: rng.normal(scale=0.5, size=p.shape)
                                if name.endswith(".b") else p
                                for name, p in model.named_params().items()})
        active = (rng.random((batch, n_nodes)) < 0.6).astype(float)
        active[0, 0] = 0.0
        active[-1] = 1.0
        received = [rng.normal(size=(batch, 4)) for _ in range(n_nodes)]
        logits, cache = cloud.cloud_infer(model, received, active)
        # inactive pairs' pre-activations are held at zero and never move
        kinks = [np.abs(pre[active[:, i] == 1.0]) for i, pre in enumerate(cache.inner_pre)]
        kinks.append(np.abs(cache.outer_pre))
        margin = min(float(np.min(k, initial=np.inf)) for k in kinks)
        return (active, received, logits, cache), margin

    active, received, logits, cache = _draw_smooth(draw)
    labels = rng.integers(0, 3, size=batch)
    _, gx = nn.softmax_cross_entropy(logits, labels)
    grads, messages = cloud.cloud_backward(model, cache, gx)

    def value() -> float:
        lg, _ = cloud.cloud_infer(model, received, active)
        return float(np.sum(nn.softmax_cross_entropy(lg, labels)[0]))

    worst = 0.0
    for key, p in model.params.items():
        flat = p.reshape(-1)
        gflat = grads[key].reshape(-1)
        for idx in range(flat.size):
            old = flat[idx]
            flat[idx] = old + step
            up_val = value()
            flat[idx] = old - step
            dn_val = value()
            flat[idx] = old
            fd = (up_val - dn_val) / (2 * step)
            worst = max(worst, _rel_err(np.asarray(fd), np.asarray(gflat[idx])))
    for i in range(n_nodes):
        flat = received[i].reshape(-1)
        gflat = messages[i].reshape(-1)
        for idx in range(flat.size):
            old = flat[idx]
            flat[idx] = old + step
            up_val = value()
            flat[idx] = old - step
            dn_val = value()
            flat[idx] = old
            fd = (up_val - dn_val) / (2 * step)
            worst = max(worst, _rel_err(np.asarray(fd), np.asarray(gflat[idx])))
    return worst


def run_gradcheck(seed: int = 0, stack_instances: int = 140,
                  cloud_repeats: int = 16, tolerance: float = 1e-5,
                  step: float = 1e-5) -> dict[str, Any]:
    """Finite-difference oracle over every layer type and the full cloud path."""
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


def _toy_equivalence_setup(seed: int, sharing: bool, rounds: int):
    dataset = data.generate_synthetic(dataset_seed(seed), n_classes=3, grid=8,
                                      samples=(64, 16, 16), window=6)
    cfg = protocol.TrainingConfig(
        n_train=3, message_dim=8, n_branches=2, latent_dim=6, cloud_hidden=10,
        encoder_hidden=(12,), n_classes=3, obs_dim=36, rounds=rounds, batch_size=8,
        eta=0.05, snr_up_db=(10.0, 10.0), snr_dn_db=(10.0, 10.0),
        noiseless_downlink=True, encoder_sharing=sharing, val_cadence=0,
        master_seed=seed)
    return cfg, dataset


def _max_param_deviation(a, b) -> float:
    pa = protocol.state_parameters(a)
    pb = protocol.state_parameters(b)
    worst = 0.0
    for name in pa:
        worst = max(worst, _rel_err(pa[name], pb[name]))
    return worst


def run_equivalence(seed: int = 0, rounds: int = 50, fedavg_rounds: int = 20,
                    tolerance: float = 1e-10) -> dict[str, Any]:
    """Protocol-vs-centralized agreement with a noiseless downlink.

    Dedicated encoders over ``rounds`` rounds, then the shared-encoder
    averaging path against the jointly-updated shared encoder at the
    scaled rate; both must track within ``tolerance``.
    """
    t0 = time.time()
    cfg, dataset = _toy_equivalence_setup(seed, sharing=False, rounds=rounds)
    state = protocol.init_state(cfg, dataset)
    oracle = protocol.init_oracle_state(cfg, dataset)
    dedicated_dev = 0.0
    for k in range(1, rounds + 1):
        protocol.run_training_round(state, k)
        protocol.centralized_oracle_round(oracle, k)
        dedicated_dev = max(dedicated_dev, _max_param_deviation(state, oracle))

    cfg_sh, dataset_sh = _toy_equivalence_setup(seed + 1, sharing=True,
                                                rounds=fedavg_rounds)
    state_sh = protocol.init_state(cfg_sh, dataset_sh)
    oracle_sh = protocol.init_oracle_state(cfg_sh, dataset_sh)
    fedavg_dev = 0.0
    for k in range(1, fedavg_rounds + 1):
        protocol.run_training_round(state_sh, k)
        protocol.centralized_oracle_round(oracle_sh, k)
        fedavg_dev = max(fedavg_dev, _max_param_deviation(state_sh, oracle_sh))
    elapsed = time.time() - t0
    return {"ok": dedicated_dev <= tolerance and fedavg_dev <= tolerance,
            "dedicated_max_dev": dedicated_dev, "fedavg_max_dev": fedavg_dev,
            "rounds": rounds, "fedavg_rounds": fedavg_rounds,
            "tolerance": tolerance, "elapsed_s": elapsed}
