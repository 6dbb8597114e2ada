"""Command-line driver.

Subcommands: ``train`` runs one experiment, ``eval`` re-evaluates a
checkpoint, ``sweep`` drives a parameter sweep, and ``gradcheck`` /
``equivalence`` run the numeric oracle suites so CI can gate on them.
Each subcommand accepts only the flags it reads. Exit codes: 0 success,
1 usage or configuration problems, 2 numeric-check failure.
"""
from __future__ import annotations

import argparse
import sys

from . import config as config_mod
from . import experiment, oracles
from .checkpoint import CheckpointError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CHECK_FAILED = 2

_FLAG_SPECS = {"--config": dict(required=True, help="path to a key = value config file"),
               "--seed": dict(type=int, default=None, help="override the master seed"),
               "--out-dir": dict(default=".", help="where result files go")}
# subcommand -> the flags it reads
_FLAGS = {"train": ("--config", "--seed", "--out-dir"),
          "eval": ("--config", "--out-dir"),
          "sweep": ("--config", "--seed", "--out-dir"),
          "gradcheck": ("--seed",),
          "equivalence": ("--seed",)}


class UsageError(Exception):
    """A command line argparse rejects: exit 1, like a bad config, not 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fronthaul",
        description="split edge-cloud training over simulated fading fronthaul links")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in _FLAGS.items():
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(flag, **_FLAG_SPECS[flag])
    return parser


def _load(args) -> dict:
    cfg = config_mod.load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg["master_seed"] = int(args.seed)
    return cfg


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "train":
            cfg = _load(args)
            if cfg["sweep"] != "none":
                raise config_mod.ConfigError("config asks for a sweep; use the sweep command")
            result = experiment.run_training(cfg, args.out_dir)
            for entry in result.grid:
                print(f"n_test={entry['n_test']} snr={entry['snr_db']} dB: "
                      f"accuracy={entry['accuracy']:.4f}")
            return EXIT_OK
        if args.command == "eval":
            cfg = _load(args)
            result = experiment.run_eval(cfg, args.out_dir)
            for entry in result.grid:
                print(f"n_test={entry['n_test']} snr={entry['snr_db']} dB: "
                      f"accuracy={entry['accuracy']:.4f}")
            return EXIT_OK
        if args.command == "sweep":
            cfg = _load(args)
            result = experiment.run_sweep(cfg, args.out_dir)
            for row in result.rows:
                print(f"{row['sweep']}={row['value']}: accuracy={row['accuracy']:.4f}")
            return EXIT_OK
        if args.command == "gradcheck":
            try:
                report = oracles.run_gradcheck(seed=args.seed or 0)
            except oracles.NoSmoothInstanceError as exc:
                print(f"gradcheck: {exc}", file=sys.stderr)
                return EXIT_CHECK_FAILED
            print(f"gradcheck: {report['instances']} instances, "
                  f"max relative error {report['max_rel_err']:.3e} "
                  f"(tolerance {report['tolerance']:.0e}), {report['elapsed_s']:.1f}s")
            return EXIT_OK if report["ok"] else EXIT_CHECK_FAILED
        if args.command == "equivalence":
            report = oracles.run_equivalence(seed=args.seed or 0)
            print(f"equivalence: dedicated max deviation {report['dedicated_max_dev']:.3e}, "
                  f"shared-encoder max deviation {report['fedavg_max_dev']:.3e} "
                  f"(tolerance {report['tolerance']:.0e}), {report['elapsed_s']:.1f}s")
            return EXIT_OK if report["ok"] else EXIT_CHECK_FAILED
    except (UsageError, config_mod.ConfigError, CheckpointError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
