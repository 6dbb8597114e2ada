"""Benchmark for the fronthaul simulator.

Runs one workload in a single process, closed loop: one caller, one
training round or evaluation cell at a time. It prints every metric by
name with its unit, checks the outputs, and ends with one JSON line
(``correct``, ``attempted``, ``failed``, ``metrics``).

    python3 bench/run.py --workload train-default --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload eval-population --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --scaling          # per-phase scaling table, not gated

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics from spans around the program's public functions.
The full results land in ``bench/out/``. See ``bench/README.md``.
"""
from __future__ import annotations

import os

# multithreaded BLAS oversubscribes small hosts (a 5x slowdown on 2 cores);
# pin it before numpy is imported anywhere
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
DEFAULT_CONFIG = ROOT / "configs" / "default.txt"

if not (SRC / "fronthaul" / "__init__.py").is_file():
    sys.exit(f"bench: no fronthaul sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import fronthaul  # noqa: E402
from fronthaul import checkpoint, config as config_mod, experiment, protocol  # noqa: E402

if Path(fronthaul.__file__).resolve().parent != SRC / "fronthaul":
    sys.exit(f"bench: imported fronthaul from {fronthaul.__file__}, not from {SRC}")

from tracing import HostClock, Tracer, layer_metrics  # noqa: E402


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "eval"
    overrides: dict  # config keys changed from configs/default.txt
    probe_rows: int  # the host-speed probe's batch, shaped like the workload
    probe_reps: int
    probe_ref_ms: float  # probe time at the reference speed
    setup_reps: int


# Why each workload exists is recorded in bench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload("train-default", "train", overrides={}, probe_rows=32, probe_reps=5,
             probe_ref_ms=0.2, setup_reps=21),
    # rounds = 40 keeps several complete same-seed training runs in one
    # benchmark run, which the determinism check compares
    Workload("train-wide", "train",
             overrides={"n_train": 16, "batch_size": 256, "branches": 12, "async": False,
                        "encoder_sharing": False, "val_cadence": 0, "rounds": 40},
             probe_rows=256, probe_reps=6, probe_ref_ms=1.15, setup_reps=21),
    # set-up trains the default config briefly; the timed part only evaluates
    Workload("eval-population", "eval", overrides={"rounds": 100}, probe_rows=512,
             probe_reps=1, probe_ref_ms=0.42, setup_reps=3),
)}
EVAL_NTEST = tuple(range(1, 13))
EVAL_SNR_DB = tuple(float(s) for s in range(0, 41, 5))

# --tiny: small enough for the smoke test, same code paths
TINY_OVERRIDES = {"train_samples": 256, "val_samples": 64, "test_samples": 160}
TINY_ROUNDS = {"train-default": 40, "train-wide": 6, "eval-population": 40}
TINY_EVAL_NTEST = (1, 4, 8)
TINY_EVAL_SNR_DB = (0.0, 40.0)

# a traced run alternates untraced and traced segments, so host drift
# cancels out of the tracing overhead
TRACE_SEGMENTS = 10

SCALING_N = (4, 16, 64)
SCALING_B = (32, 256)
SCALING_M = (3, 12)
SCALING_ROUNDS = 8


# --- run bookkeeping ----------------------------------------------------------


class Attempts:
    """Every attempted operation (round or evaluation cell) and its failures.

    An operation fails when it raises or yields a non-finite loss; the
    failure is counted by exception type and the run carries on.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: Counter[str] = Counter()
        self.first_traceback: str | None = None

    def call(self, fn, *args, loss_of, **kwargs):
        """Returns (result, start, seconds), or None when the operation failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failures[type(exc).__name__] += 1
            if self.first_traceback is None:
                self.first_traceback = traceback.format_exc()
            return None
        seconds = time.perf_counter() - start
        if not math.isfinite(loss_of(result)):
            self.failures["NonFiniteLoss"] += 1
            return None
        return result, start, seconds

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


@dataclasses.dataclass
class Run:
    workload: Workload
    cfg: dict
    clock: HostClock
    work_dir: Path
    attempts: Attempts = dataclasses.field(default_factory=Attempts)
    checks: dict = dataclasses.field(default_factory=dict)
    setup: list = dataclasses.field(default_factory=list)  # (start, seconds)
    checkpoint_bytes: int = 0

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks[name] = {"ok": bool(ok), "detail": detail}

    def chance_margin(self) -> float:
        """Accuracy that beats guessing by five binomial standard errors."""
        p = 1.0 / self.cfg["classes"]
        return p + 5.0 * math.sqrt(p * (1.0 - p) / self.cfg["test_samples"])

    def timed_setup(self, fn):
        for _ in range(3):
            self.clock.probe()
        start = time.perf_counter()
        result = fn()
        self.setup.append((start, time.perf_counter() - start))
        for _ in range(3):
            self.clock.probe()
        return result


def _loss_of_record(record) -> float:
    return record.train_loss


def _loss_of_eval(result) -> float:
    return result[1]


def _ms(samples, clock: HostClock | None = None) -> np.ndarray:
    """Durations of (start, seconds) samples in ms, at the reference speed given a clock."""
    if not samples:
        return np.zeros(0)
    start, seconds = np.array(samples, dtype=float).T
    ms = seconds * 1e3
    return ms * clock.scale(start + seconds / 2.0) if clock is not None else ms


# --- training workloads --------------------------------------------------------


class TrainSession:
    """Back-to-back same-seed training runs of one config, round by round."""

    def __init__(self, run: Run):
        self.run = run
        self.cfg = run.cfg
        for _ in range(run.workload.setup_reps):
            self.dataset, self.tc, self.state = run.timed_setup(self._set_up)
        self.k = 0
        self.traces: list[list[float]] = [[]]
        self.grids: list[list[tuple[float, float]]] = []
        self.ref_state = None
        self.samples_per_op = self.tc.batch_size
        self.ops: list[tuple[float, float]] = []  # timed rounds
        self.extra: list[tuple[float, float]] = []  # timed validation cells

    def _set_up(self):
        dataset = experiment.build_dataset(self.cfg)
        tc = config_mod.to_training_config(self.cfg, dataset.obs_dim, dataset.n_classes)
        return dataset, tc, protocol.init_state(tc, dataset)

    def grid_cells(self):
        ntest = self.cfg["eval_ntest_grid"] or (self.cfg["n_train"],)
        return [(n, snr) for n in ntest for snr in self.cfg["eval_snr_grid"]]

    def _restart(self) -> None:
        self.state = protocol.init_state(self.tc, self.dataset)
        self.k = 0
        self.traces.append([])

    def _finish_training_run(self) -> None:
        if len(self.grids) < 2:
            grid = []
            for n, snr in self.grid_cells():
                out = self.run.attempts.call(protocol.evaluate, self.state, "test", n_test=n,
                                             snr_db=snr, loss_of=_loss_of_eval)
                grid.append(out[0] if out else (math.nan, math.nan))
            self.grids.append(grid)
        if self.ref_state is None:
            self.ref_state = self.state
        self._restart()

    def step(self, timed: bool) -> None:
        """One round, plus validation on cadence rounds, as ``protocol.train`` runs them."""
        if self.k == self.tc.rounds:
            self._finish_training_run()
        self.k += 1
        attempts = self.run.attempts
        out = attempts.call(protocol.run_training_round, self.state, self.k,
                            loss_of=_loss_of_record)
        if out is None:
            self.traces[-1] = None  # a failed run is not compared
            self._restart()
            return
        record, start, seconds = out
        self.traces[-1].append(record.train_loss)
        if timed:
            self.ops.append((start, seconds))
        if self.tc.val_cadence and self.k % self.tc.val_cadence == 0:
            val = attempts.call(protocol.evaluate, self.state, "val", n_test=self.tc.n_train,
                                snr_db=self.tc.eval_snr_db, loss_of=_loss_of_eval)
            if val is not None and timed:
                self.extra.append(val[1:])
        self.run.clock.maybe_probe()

    def run_for(self, seconds: float) -> list[tuple[float, float]]:
        """Timed rounds for ``seconds``; returns the rounds it timed."""
        first = len(self.ops)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self.step(timed=True)
        return self.ops[first:]

    def finish(self) -> None:
        """Complete two training runs if the timed part did not, then check."""
        for _ in range(2 * self.tc.rounds + 2):
            if len(self.grids) >= 2:
                break
            self.step(timed=False)
        run = self.run
        traces = [t for t in self.traces if t]
        ref = self.traces[0]
        same = (ref is not None and len(self.grids) >= 2 and self.grids[0] == self.grids[1]
                and all(t == ref[:len(t)] for t in traces))
        run.check("same-seed-identical", same,
                  f"{len(traces)} same-seed training runs, loss traces and the "
                  f"{len(self.grid_cells())}-cell accuracy grid of the first two compared bitwise")
        cells = self.grid_cells()
        acc = self.grids[0][cells.index(max(cells))][0] if self.grids else math.nan
        floor = run.chance_margin()
        run.check("accuracy-above-chance", acc > floor,
                  f"test accuracy {acc:.4f} at n_test={max(cells)[0]}, "
                  f"{max(cells)[1]} dB; needs > {floor:.4f}")
        self._check_checkpoint(cells)

    def _check_checkpoint(self, cells) -> None:
        if self.ref_state is None:
            self.run.check("checkpoint-round-trip", False, "no training run completed")
            return
        path = self.run.work_dir / "checkpoint.bin"
        params = protocol.state_parameters(self.ref_state)
        checkpoint.save_checkpoint(path, params, config_mod.render_config(self.cfg),
                                   self.ref_state.round_index)
        restored, _ = experiment.restore_state(path)
        same_params = all(np.array_equal(p, protocol.state_parameters(restored)[name])
                          for name, p in params.items())
        n, snr = max(cells)
        again = protocol.evaluate(restored, "test", n_test=n, snr_db=snr)
        self.run.checkpoint_bytes = path.stat().st_size
        self.run.check("checkpoint-round-trip",
                       same_params and again == self.grids[0][cells.index(max(cells))],
                       "trained state saved, restored, and re-evaluated bit for bit")


# --- evaluation workload -------------------------------------------------------


class EvalSession:
    """Train and checkpoint in set-up; time `protocol.evaluate` over a population grid."""

    def __init__(self, run: Run, cells):
        self.run = run
        self.cells = cells
        self.setup_dirs = []
        for rep in range(run.workload.setup_reps):
            out_dir = run.work_dir / f"setup{rep}"
            self.setup_dirs.append(out_dir)
            self.state = run.timed_setup(lambda: self._set_up(out_dir))
        self.passes: list[list[tuple[float, float]]] = []
        self.samples_per_op = run.cfg["test_samples"]
        self.ops: list[tuple[float, float]] = []  # timed cells
        self.extra: list[tuple[float, float]] = []

    def _set_up(self, out_dir: Path):
        experiment.run_training(self.run.cfg, out_dir)
        state, _ = experiment.restore_state(out_dir / "checkpoint.bin")
        return state

    def one_pass(self) -> float:
        start = time.perf_counter()
        results = []
        for n, snr in self.cells:
            out = self.run.attempts.call(protocol.evaluate, self.state, "test", n_test=n,
                                         snr_db=snr, loss_of=_loss_of_eval)
            if out is None:
                results.append((math.nan, math.nan))
            else:
                results.append(out[0])
                self.ops.append(out[1:])
            self.run.clock.maybe_probe()
        self.passes.append(results)
        return time.perf_counter() - start

    def run_for(self, seconds: float) -> list[tuple[float, float]]:
        """Whole passes over the grid until ``seconds`` is (nearly) spent."""
        first = len(self.ops)
        deadline = time.perf_counter() + seconds
        last = self.one_pass()
        while deadline - time.perf_counter() > last / 2.0:
            last = self.one_pass()
        return self.ops[first:]

    def finish(self) -> None:
        run = self.run
        blobs = [[(d / f).read_bytes() for f in ("metrics.csv", "result.json", "checkpoint.bin")]
                 for d in self.setup_dirs]
        same = all(b == blobs[0] for b in blobs) and all(p == self.passes[0] for p in self.passes)
        run.check("same-seed-identical", same,
                  f"{len(blobs)} same-seed set-up trainings (metrics.csv, result.json, "
                  f"checkpoint.bin) and {len(self.passes)} passes over the "
                  f"{len(self.cells)}-cell grid compared bitwise")
        top = self.cells.index(max(self.cells))
        acc = self.passes[0][top][0]
        floor = run.chance_margin()
        run.check("accuracy-above-chance", acc > floor,
                  f"test accuracy {acc:.4f} at n_test={max(self.cells)[0]}, "
                  f"{max(self.cells)[1]} dB; needs > {floor:.4f}")
        saved = json.loads((self.setup_dirs[-1] / "result.json").read_text())["grid"]
        again = [list(protocol.evaluate(self.state, "test", n_test=c["n_test"],
                                        snr_db=c["snr_db"])) for c in saved]
        run.checkpoint_bytes = (self.setup_dirs[-1] / "checkpoint.bin").stat().st_size
        run.check("checkpoint-round-trip",
                  again == [[c["accuracy"], c["loss"]] for c in saved],
                  "restored checkpoint reproduces the trained model's result.json grid")


# --- environment -----------------------------------------------------------------


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if reachable."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "fronthaul").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def metadata(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": _blas_threads(),
            "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "git_commit": _git_commit(),
            "source_sha256": _source_digest()}


# --- metrics -----------------------------------------------------------------------


END_TO_END_UNITS = {"samples_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def end_to_end(run: Run, session) -> tuple[dict, dict]:
    """End-to-end metrics at the reference speed, and the same unscaled."""
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = []
    for clock in (run.clock, None):
        ops = _ms(session.ops, clock)
        busy_s = (ops.sum() + _ms(session.extra, clock).sum()) / 1e3
        out.append({"samples_per_s": session.samples_per_op * len(ops) / busy_s,
                    "op_ms_p50": float(np.percentile(ops, 50)),
                    "op_ms_p90": float(np.percentile(ops, 90)),
                    "setup_s": float(np.median(_ms(run.setup, clock))) / 1e3,
                    "peak_rss_mb": rss_mb})
    scaled, raw = out
    raw["operations_timed"] = len(session.ops)
    return scaled, raw


def overhead_pct(clock: HostClock, untraced, traced) -> float:
    base = float(np.median(_ms(untraced, clock)))
    return (float(np.median(_ms(traced, clock))) / base - 1.0) * 100.0


# --- entry points --------------------------------------------------------------------


def build_config(workload: Workload, seed: int, tiny: bool) -> dict:
    cfg = config_mod.load_config(DEFAULT_CONFIG)
    cfg.update(workload.overrides)
    if tiny:
        cfg.update(TINY_OVERRIDES)
        cfg["rounds"] = TINY_ROUNDS[workload.name]
        if cfg["val_cadence"]:
            cfg["val_cadence"] = 10
    cfg["master_seed"] = seed
    return cfg


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    cfg = build_config(workload, args.seed, args.tiny)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT_DIR / "work" / stem
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    clock = HostClock(workload.probe_rows, workload.probe_reps, workload.probe_ref_ms)
    run = Run(workload, cfg, clock, work_dir)

    gate = experiment.run_equivalence(seed=args.seed)
    run.check("equivalence", gate["ok"],
              f"dedicated {gate['dedicated_max_dev']:.2e}, fedavg {gate['fedavg_max_dev']:.2e}, "
              f"tolerance {gate['tolerance']:.0e}")

    tracer = Tracer()
    if args.trace:
        tracer.install()
    if workload.kind == "train":
        session = TrainSession(run)
    else:
        cells = [(n, snr) for n in (TINY_EVAL_NTEST if args.tiny else EVAL_NTEST)
                 for snr in (TINY_EVAL_SNR_DB if args.tiny else EVAL_SNR_DB)]
        session = EvalSession(run, cells)
    if args.trace:
        untraced, traced = [], []
        for segment in range(TRACE_SEGMENTS):
            tracer.uninstall()
            if segment % 2:
                tracer.install()
            ops = session.run_for(args.seconds / TRACE_SEGMENTS)
            (traced if segment % 2 else untraced).extend(ops)
        # the last segment is traced, and so are the checks after it
    else:
        session.run_for(args.seconds)
    session.finish()
    tracer.uninstall()
    run.check("losses-finite", run.attempts.failures["NonFiniteLoss"] == 0,
              f"{run.attempts.failures['NonFiniteLoss']} non-finite losses")
    run.check("operations-succeeded", run.attempts.failed == 0,
              f"{run.attempts.failed} of {run.attempts.attempted} operations failed: "
              f"{dict(run.attempts.failures)}")

    if args.trace:
        layers = layer_metrics(tracer, clock)
        layers["checkpoint.bytes"] = (float(run.checkpoint_bytes), "bytes")
        layers["trace.overhead_pct"] = (overhead_pct(clock, untraced, traced), "%")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
        raw = None
        spans_path = OUT_DIR / f"{stem}-spans.csv.gz"
        tracer.write_spans(spans_path)
    else:
        scaled, raw = end_to_end(run, session)
        metrics = {name: {"value": scaled[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        spans_path = None

    correct = all(c["ok"] for c in run.checks.values())
    report = {"meta": metadata(args), "checks": run.checks, "metrics": metrics, "raw": raw,
              "attempted": run.attempts.attempted, "failed": run.attempts.failed,
              "error_rate": run.attempts.failed / max(1, run.attempts.attempted),
              "failures": dict(run.attempts.failures),
              "first_traceback": run.attempts.first_traceback,
              "probe": {"count": len(clock.ms), "median_ms": float(np.median(clock.ms)),
                        "ref_ms": clock.ref_ms},
              "spans": str(spans_path.relative_to(ROOT)) if spans_path else None}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    shutil.rmtree(work_dir, ignore_errors=True)

    for key, value in report["meta"].items():
        print(f"meta {key}: {value}")
    for name, c in run.checks.items():
        print(f"check {name}: {'ok' if c['ok'] else 'FAILED'} ({c['detail']})")
    print(f"error_rate: {report['error_rate']:.6g} "
          f"({run.attempts.failed} failed of {run.attempts.attempted} attempted)")
    for name, m in metrics.items():
        extra = f"  [unscaled {raw[name]:.6g}]" if raw and name in raw else ""
        print(f"{name}: {m['value']:.6g} {m['unit']}{extra}")
    print(json.dumps({"correct": correct, "attempted": run.attempts.attempted,
                      "failed": run.attempts.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_scaling(args) -> int:
    """Per-phase ms and nn call/row counts over N x B x M; written beside the results."""
    base = config_mod.load_config(DEFAULT_CONFIG)
    base.update(val_cadence=0, rounds=SCALING_ROUNDS, master_seed=args.seed)
    dataset = experiment.build_dataset(base)
    rows = []
    for n in SCALING_N:
        for b in SCALING_B:
            for m in SCALING_M:
                cfg = dict(base, n_train=n, batch_size=b, branches=m)
                tc = config_mod.to_training_config(cfg, dataset.obs_dim, dataset.n_classes)
                state = protocol.init_state(tc, dataset)
                tracer = Tracer()
                tracer.install()
                try:
                    for k in range(1, tc.rounds + 1):
                        protocol.run_training_round(state, k)
                finally:
                    tracer.uninstall()
                layers = layer_metrics(tracer, None)
                row = {"N": n, "B": b, "M": m}
                row.update({name: value for name, (value, _) in layers.items()
                            if name.startswith(("protocol.round.", "protocol.draw_round_env",
                                                "protocol.phase.", "nn.forward.",
                                                "nn.backward."))})
                rows.append(row)
                print(f"N={n:3d} B={b:4d} M={m:3d}  round {row['protocol.round.ms']:9.2f} ms  "
                      + "  ".join(f"{p} {row[f'protocol.phase.{p}.ms']:.2f}"
                                  for p in protocol.PHASES)
                      + f"  fwd {row['nn.forward.calls_per_round']:.0f} calls", flush=True)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / "scaling.json"
    out.write_text(json.dumps({"meta": metadata(args), "rounds_per_config": SCALING_ROUNDS,
                               "unit": "ms at the host's own speed (not scaled)",
                               "rows": rows}, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink a workload's data, rounds and grids (smoke test)")
    parser.add_argument("--scaling", action="store_true",
                        help="write the N x B x M scaling table instead of a workload run")
    args = parser.parse_args(argv)
    if args.scaling:
        return run_scaling(args)
    if args.workload is None:
        parser.error("--workload is required unless --scaling is given")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
