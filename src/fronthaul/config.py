"""Flat typed key-value experiment configuration.

One ``key = value`` pair per line, ``#`` comments. Every key is declared
in the schema below with its parser and default; unknown or duplicate
keys are errors so config files cannot silently drift from the code.
The canonical rendering round-trips through the parser, which is how
checkpoints echo their configuration.
"""
from __future__ import annotations

from typing import Any, Callable

from . import protocol


class ConfigError(ValueError):
    """Raised for malformed or unknown configuration input."""


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None


def _bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ConfigError(f"expected true or false, got {text!r}")


def _str(text: str) -> str:
    return text


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


# key -> (parser, default); order defines the canonical rendering
SCHEMA: dict[str, tuple[Callable[[str], Any], Any]] = {
    # dataset
    "dataset": (_choice("synthetic", "external"), "synthetic"),
    "classes": (_int, 4),
    "grid": (_int, 16),
    "window": (_int, 9),
    "train_samples": (_int, 2048),
    "val_samples": (_int, 512),
    "test_samples": (_int, 512),
    "external_train": (_str, ""),
    "external_val": (_str, ""),
    "external_test": (_str, ""),
    # architecture
    "architecture": (_choice("proposed", "catnet", "mhnet", "sum_agg"), "proposed"),
    "message_dim": (_int, 16),
    "branches": (_int, 5),
    "latent_dim": (_int, 32),
    "cloud_hidden": (_int, 32),
    "encoder_hidden": (_int_tuple, (48,)),
    "baseline_hidden": (_opt_int, None),
    # optimization
    "n_train": (_int, 3),
    "rounds": (_int, 400),
    "batch_size": (_int, 64),
    "eta": (_float, 0.05),
    "optimizer": (_choice("sgd", "adam"), "sgd"),
    # fronthaul
    "snr_up_db": (_float_pair, (0.0, 30.0)),
    "snr_dn_db": (_float_pair, (0.0, 30.0)),
    "noiseless_downlink": (_bool, False),
    "downlink": (_choice("wireless", "exact"), "wireless"),
    "power_mode": (_choice("per-rb", "sum"), "per-rb"),
    "p_e": (_float, 1.0),
    "p_c": (_float, 1.0),
    "freeze_snr_per_round": (_bool, False),
    # coordination
    "async": (_bool, False),
    "drop_probability": (_opt_float, None),
    "encoder_sharing": (_bool, False),
    "cqie": (_bool, False),
    "pathloss": (_bool, False),
    "pathloss_d": (_float_pair, (1.0, 10.0)),
    "pathloss_alpha": (_float, 2.7),
    # evaluation and harness
    "val_cadence": (_int, 10),
    "eval_snr_db": (_opt_float, None),
    "eval_snr_grid": (_float_tuple, (0.0, 10.0, 20.0)),
    "eval_ntest_grid": (_int_tuple, ()),
    "sweep": (_choice("none", "snr", "ntest", "batch", "branches"), "none"),
    "sweep_values": (_float_tuple, ()),
    "target_accuracy": (_opt_float, None),
    "checkpoint": (_str, ""),
    "master_seed": (_int, 1234),
}


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


def default_config() -> dict[str, Any]:
    return {key: default for key, (_, default) in SCHEMA.items()}


def render_config(cfg: dict[str, Any]) -> str:
    """Canonical text form; parsing it reproduces ``cfg`` exactly."""
    unknown = set(cfg) - set(SCHEMA)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)}")
    lines = [f"{key} = {_render(cfg[key])}" for key in SCHEMA if key in cfg]
    return "\n".join(lines) + "\n"


def to_training_config(cfg: dict[str, Any], obs_dim: int,
                       n_classes: int) -> protocol.TrainingConfig:
    """Map harness keys onto the protocol configuration."""
    tc = protocol.TrainingConfig(
        n_train=cfg["n_train"],
        message_dim=cfg["message_dim"],
        n_branches=cfg["branches"],
        latent_dim=cfg["latent_dim"],
        cloud_hidden=cfg["cloud_hidden"],
        encoder_hidden=tuple(cfg["encoder_hidden"]),
        n_classes=n_classes,
        obs_dim=obs_dim,
        architecture=cfg["architecture"],
        baseline_hidden=cfg["baseline_hidden"],
        rounds=cfg["rounds"],
        batch_size=cfg["batch_size"],
        eta=cfg["eta"],
        optimizer=cfg["optimizer"],
        snr_up_db=cfg["snr_up_db"],
        snr_dn_db=cfg["snr_dn_db"],
        noiseless_downlink=cfg["noiseless_downlink"],
        downlink=cfg["downlink"],
        power_mode=cfg["power_mode"],
        p_e=cfg["p_e"],
        p_c=cfg["p_c"],
        freeze_snr_per_round=cfg["freeze_snr_per_round"],
        async_coordination=cfg["async"],
        drop_probability=cfg["drop_probability"],
        encoder_sharing=cfg["encoder_sharing"],
        cqie=cfg["cqie"],
        pathloss=cfg["pathloss"],
        pathloss_d=cfg["pathloss_d"],
        pathloss_alpha=cfg["pathloss_alpha"],
        val_cadence=cfg["val_cadence"],
        eval_snr_db=cfg["eval_snr_db"],
        master_seed=cfg["master_seed"],
    )
    try:
        tc.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return tc
