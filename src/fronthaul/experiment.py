"""Experiment driver: training runs, evaluation of checkpoints, and sweeps.

Every run is a pure function of (config, master seed). The metrics CSV
is written incrementally, one row per validation point, so an
interrupted run still leaves its rows on disk; the checkpoint and the
final evaluation grid land next to it. The reported per-round time is
the simulated fronthaul occupancy (one microsecond per complex channel
use), a deterministic quantity, so identical reruns produce
byte-identical files. The numeric oracles live in ``fronthaul.oracles``.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import checkpoint, config as config_mod, data, protocol
# bench/run.py's correctness gate reads the equivalence runner under this
# name; it is the name's only reader
from .oracles import run_equivalence  # noqa: F401

CSV_COLUMNS = ("round", "phase_time_ms", "train_loss", "val_accuracy",
               "snr_up_db_mean", "snr_dn_db_mean", "mean_active_ens",
               "param_norm_cloud", "param_norm_edges")

_EVAL_KEYS = ("checkpoint", "eval_snr_grid", "eval_ntest_grid")  # what eval reads from its config


@dataclass
class ExperimentResult:
    rows: list[dict[str, Any]] = field(default_factory=list)  # a sweep's rows
    grid: list[dict[str, Any]] = field(default_factory=list)
    final_round: int = 0
    records: list[protocol.RoundRecord] = field(default_factory=list)  # a training run's


def build_dataset(cfg: dict[str, Any]) -> data.SyntheticDataset:
    if cfg["dataset"] == "external":
        return data.load_external_dataset(cfg["external_train"], cfg["external_val"],
                                          cfg["external_test"], cfg["window"])
    return data.generate_synthetic(data.dataset_seed(cfg["master_seed"]),
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


def _eval_grid(state: protocol.TrainingState, cfg: dict[str, Any]) -> list[dict[str, Any]]:
    grid = []
    for n_test in cfg["eval_ntest_grid"] or (cfg["n_train"],):
        for snr in cfg["eval_snr_grid"]:
            acc, loss = protocol.evaluate(state, "test", n_test=n_test, snr_db=snr)
            grid.append({"architecture": cfg["architecture"], "n_test": n_test,
                         "snr_db": snr, "accuracy": acc, "loss": loss})
    return grid


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _training_config(cfg: dict[str, Any],
                     dataset: data.SyntheticDataset) -> protocol.TrainingConfig:
    """The run's protocol configuration, checked against its dataset."""
    tc = config_mod.to_training_config(cfg, dataset.obs_dim, dataset.n_classes)
    if tc.batch_size > len(dataset.train_labels):
        raise config_mod.ConfigError(f"batch_size = {tc.batch_size} exceeds the "
                                     f"{len(dataset.train_labels)} training samples")
    return tc


def run_training(cfg: dict[str, Any], out_dir) -> ExperimentResult:
    config_mod.check_config(cfg)
    dataset = build_dataset(cfg)
    tc = _training_config(cfg, dataset)
    os.makedirs(out_dir, exist_ok=True)
    writer = _MetricsWriter(os.path.join(out_dir, "metrics.csv"), cfg["val_cadence"])
    try:
        state, records = protocol.train(tc, dataset, round_callback=writer.add)
    finally:
        writer.close()
    checkpoint.save_checkpoint(os.path.join(out_dir, "checkpoint.bin"),
                               protocol.state_parameters(state),
                               config_mod.render_config(cfg), tc.rounds)
    grid = _eval_grid(state, cfg)
    result = ExperimentResult(grid=grid, final_round=tc.rounds, records=records)
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
    """Evaluate a checkpoint on the config's grid. The model, its data and
    the default population come from the checkpoint's own config echo;
    the eval config contributes only the keys in ``_EVAL_KEYS``."""
    if not cfg["checkpoint"]:
        raise config_mod.ConfigError("eval needs a checkpoint path in the config")
    state, trained = restore_state(cfg["checkpoint"])
    cfg = dict(trained, **{key: cfg[key] for key in _EVAL_KEYS})
    config_mod.check_config(cfg)
    os.makedirs(out_dir, exist_ok=True)
    grid = _eval_grid(state, cfg)
    _write_json(os.path.join(out_dir, "result.json"),
                {"config": config_mod.render_config(cfg), "grid": grid,
                 "final_round": state.round_index})
    return ExperimentResult(grid=grid, final_round=state.round_index)


def run_sweep(cfg: dict[str, Any], out_dir) -> ExperimentResult:
    """One row per sweep value in ``sweep.csv`` and ``sweep.json``; the snr and
    ntest sweeps evaluate one run through the grid loop of ``train`` and ``eval``."""
    axis = cfg["sweep"]
    if axis == "none":
        raise config_mod.ConfigError("sweep mode needs the sweep key")
    config_mod.check_config(cfg)
    rows: list[dict[str, Any]] = []
    if axis in ("snr", "ntest"):
        base = run_training(cfg, out_dir)
        state, _ = restore_state(os.path.join(out_dir, "checkpoint.bin"))
        if axis == "snr":
            values = cfg["sweep_values"] or (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
            grids = {"eval_ntest_grid": (cfg["n_train"],),
                     "eval_snr_grid": tuple(float(v) for v in values)}
        else:
            values = cfg["sweep_values"] or config_mod.NTEST_SWEEP
            grids = {"eval_ntest_grid": tuple(int(v) for v in values),
                     "eval_snr_grid": (cfg["eval_snr_db"],)}
        rows = [{"sweep": axis, "value": cell["snr_db" if axis == "snr" else "n_test"],
                 "accuracy": cell["accuracy"], "loss": cell["loss"], "rounds_to_target": None}
                for cell in _eval_grid(state, dict(cfg, **grids))]
        final_round = base.final_round
    else:
        key = "batch_size" if axis == "batch" else "branches"
        subs = [(int(v), dict(cfg, sweep="none", **{key: int(v)}))
                for v in cfg["sweep_values"]]
        dataset = build_dataset(cfg)
        for _, sub in subs:  # every sub-run is checked before the first one trains
            _training_config(sub, dataset)
        target = cfg["target_accuracy"]
        for value, sub in subs:
            res = run_training(sub, os.path.join(out_dir, f"{axis}_{value}"))
            last = res.grid[0] if res.grid else {"accuracy": None, "loss": None}
            rows.append({"sweep": axis, "value": value,
                         "accuracy": last["accuracy"], "loss": last["loss"],
                         "rounds_to_target": None if target is None
                         else protocol.rounds_to_target(res.records, target)})
        final_round = cfg["rounds"]
    with open(os.path.join(out_dir, "sweep.csv"), "w", encoding="utf-8") as fh:
        fh.write("sweep,value,accuracy,loss,rounds_to_target\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in
                              ("sweep", "value", "accuracy", "loss",
                               "rounds_to_target")) + "\n")
    _write_json(os.path.join(out_dir, "sweep.json"), rows)
    return ExperimentResult(rows=rows, final_round=final_round)
