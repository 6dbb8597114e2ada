"""Flat typed key-value experiment configuration.

One ``key = value`` pair per line, ``#`` comments. Every key is declared
in the schema below with its parser and default; a key that configures
the protocol takes its default from ``protocol.TrainingConfig``. Unknown
or duplicate keys and non-finite numbers are errors, so config files
cannot silently drift from the code, and ``check_config`` holds every
rule that ties keys together. The canonical rendering round-trips
through the parser, which is how checkpoints echo their configuration.
"""
from __future__ import annotations

import dataclasses
import math
import re
from typing import Any, Callable

from . import cloud, nn, protocol


class ConfigError(ValueError):
    """Raised for malformed or unknown configuration input."""


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


def _float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


def _bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ConfigError(f"expected true or false, got {text!r}")


def _float_pair(text: str) -> tuple[float, float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"expected two comma-separated numbers, got {text!r}")
    return (_float(parts[0]), _float(parts[1]))


def _int_tuple(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    return tuple(_int(p.strip()) for p in text.split(","))


def _float_tuple(text: str) -> tuple[float, ...]:
    if not text.strip():
        return ()
    return tuple(_float(p.strip()) for p in text.split(","))


def _opt_float(text: str) -> float | None:
    return None if text == "none" else _float(text)


def _opt_int(text: str) -> int | None:
    return None if text == "none" else _int(text)


def _choice(*options: str) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in options:
            raise ConfigError(f"expected one of {options}, got {text!r}")
        return text
    return parse


def _render(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, tuple):
        return ",".join(_render(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


_TC = protocol.TrainingConfig()  # the protocol keys' defaults
# TrainingConfig field -> config key, where the two names differ
_KEY = {"n_branches": "branches", "async_coordination": "async"}

# key -> (parser, default); order defines the canonical rendering
SCHEMA: dict[str, tuple[Callable[[str], Any], Any]] = {
    # dataset
    "dataset": (_choice("synthetic", "external"), "synthetic"),
    "classes": (_int, _TC.n_classes),
    "grid": (_int, 16),
    "window": (_int, 9),
    "train_samples": (_int, 2048),
    "val_samples": (_int, 512),
    "test_samples": (_int, 512),
    "external_train": (str, ""),
    "external_val": (str, ""),
    "external_test": (str, ""),
    # architecture
    "architecture": (_choice(*protocol.ARCHITECTURES), _TC.architecture),
    "message_dim": (_int, _TC.message_dim),
    "branches": (_int, _TC.n_branches),
    "latent_dim": (_int, _TC.latent_dim),
    "cloud_hidden": (_int, _TC.cloud_hidden),
    "encoder_hidden": (_int_tuple, _TC.encoder_hidden),
    "baseline_hidden": (_opt_int, _TC.baseline_hidden),
    # optimization
    "n_train": (_int, _TC.n_train),
    "rounds": (_int, _TC.rounds),
    "batch_size": (_int, _TC.batch_size),
    "eta": (_float, _TC.eta),
    "optimizer": (_choice(*nn.OPTIMIZERS), _TC.optimizer),
    # fronthaul
    "snr_up_db": (_float_pair, _TC.snr_up_db),
    "snr_dn_db": (_float_pair, _TC.snr_dn_db),
    "downlink": (_choice(*protocol.DOWNLINKS), _TC.downlink),
    "power_mode": (_choice(*nn.POWER_MODES), _TC.power_mode),
    "p_e": (_float, _TC.p_e),
    "p_c": (_float, _TC.p_c),
    "freeze_snr_per_round": (_bool, _TC.freeze_snr_per_round),
    # coordination
    "async": (_bool, _TC.async_coordination),
    "drop_probability": (_opt_float, _TC.drop_probability),
    "encoder_sharing": (_bool, _TC.encoder_sharing),
    "cqie": (_bool, _TC.cqie),
    "pathloss": (_bool, _TC.pathloss),
    "pathloss_d": (_float_pair, _TC.pathloss_d),
    "pathloss_alpha": (_float, _TC.pathloss_alpha),
    # evaluation and harness
    "val_cadence": (_int, _TC.val_cadence),
    "eval_snr_db": (_opt_float, _TC.eval_snr_db),
    "eval_snr_grid": (_float_tuple, (0.0, 10.0, 20.0)),
    "eval_ntest_grid": (_int_tuple, ()),
    "sweep": (_choice("none", "snr", "ntest", "batch", "branches"), "none"),
    "sweep_values": (_float_tuple, ()),
    "target_accuracy": (_opt_float, None),
    "checkpoint": (str, ""),
    "master_seed": (_int, _TC.master_seed),
}
NTEST_SWEEP = tuple(range(1, 13))  # populations an ntest sweep visits by default


def parse_config_text(text: str) -> dict[str, Any]:
    """Parse config file content into a fully-defaulted dict."""
    values: dict[str, Any] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        parser = SCHEMA[key][0]
        try:
            values[key] = parser(value)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from None
    for key, (_, default) in SCHEMA.items():
        values.setdefault(key, default)
    return values


def load_config(path) -> dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None


def render_config(cfg: dict[str, Any]) -> str:
    """Canonical text form; parsing it reproduces ``cfg`` exactly."""
    unknown = set(cfg) - set(SCHEMA)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)}")
    lines = [f"{key} = {_render(cfg[key])}" for key in SCHEMA if key in cfg]
    return "\n".join(lines) + "\n"


def to_training_config(cfg: dict[str, Any], obs_dim: int,
                       n_classes: int) -> protocol.TrainingConfig:
    """The protocol configuration: each field reads the key of its name
    (``_KEY`` maps the two that differ); the dataset gives the two fields
    no key names. A rejected value is reported under its config key."""
    keys = {f.name: _KEY.get(f.name, f.name) for f in dataclasses.fields(protocol.TrainingConfig)}
    values = {name: cfg[key] for name, key in keys.items() if key in SCHEMA}
    tc = protocol.TrainingConfig(obs_dim=obs_dim, n_classes=n_classes, **values)
    try:
        tc.validate()
    except ValueError as exc:
        message = re.sub(r"\b(" + "|".join(_KEY) + r")\b", lambda m: _KEY[m[0]], str(exc))
        raise ConfigError(message) from None
    return tc


def check_config(cfg: dict[str, Any]) -> None:
    """Every rule that ties keys of a parsed config together; raises
    ``ConfigError``. Every command calls it before it writes a file.

    Evaluation populations (``eval_ntest_grid`` and an ntest sweep's
    values) need a node each; catnet concatenates exactly n_train
    signals, mhnet has one head per trained node, shared encoders or not,
    and without encoder sharing only the n_train trained encoders exist.
    The default population, n_train, passes every rule.
    """
    if cfg["dataset"] == "external":
        missing = [k for k in ("external_train", "external_val", "external_test") if not cfg[k]]
        if missing:
            raise ConfigError(f"external dataset needs {', '.join(missing)}")
    axis = cfg["sweep"]
    if axis in ("batch", "branches") and not cfg["sweep_values"]:
        raise ConfigError(f"sweep {axis!r} needs sweep_values")
    fractional = [v for v in cfg["sweep_values"] if not float(v).is_integer()]
    if axis in ("ntest", "batch", "branches") and fractional:
        raise ConfigError(f"sweep_values {fractional} are not whole numbers; "
                          f"sweep {axis!r} needs integers")
    sources = {"eval_ntest_grid": cfg["eval_ntest_grid"]}
    if axis == "ntest":
        sources["sweep_values"] = cfg["sweep_values"] or NTEST_SWEEP
    n_train, arch = cfg["n_train"], cfg["architecture"]
    for key, populations in sources.items():
        requested = sorted({int(n) for n in populations})
        too_large = [n for n in requested if n > n_train]
        for bad, reason in (
                ([n for n in requested if n < 1], "are below 1; every population needs a node"),
                ([n for n in requested if n != n_train] if arch == cloud.CATNET else [],
                 f"differ from n_train = {n_train}; catnet concatenates exactly n_train signals"),
                (too_large if arch == cloud.MHNET else [],
                 f"exceed n_train = {n_train}; mhnet has one head per trained node"),
                ([] if cfg["encoder_sharing"] else too_large,
                 f"exceed n_train = {n_train}; dedicated encoders serve at most n_train nodes "
                 "(set encoder_sharing = true)")):
            if bad:
                raise ConfigError(f"{key}: evaluation populations {bad} {reason}")
