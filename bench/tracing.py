"""Spans around the fronthaul modules' public functions, and the host-speed probe.

The tracer replaces module attributes with thin wrappers (the program's
own files stay untouched), keeps every span in memory and summarises
them into the per-layer metrics when the run ends. A span records its
name, parent span, enclosing training round, start and end, and, for
``nn`` calls, the number of rows.

The host-speed probe exists because the shared host this benchmark was
written on alternates between two speeds (about 1.45x apart) for tens
of seconds at a time, uniformly across interpreter and BLAS work. A
fixed kernel shaped like the workload runs between operations; each
operation's wall time is scaled by ``ref_ms / probe_ms``, where
``probe_ms`` is the median of the probes nearest in time; that turns it
into milliseconds at the reference speed (the speed at which the probe
takes ``ref_ms``).
"""
from __future__ import annotations

import functools
import gzip
import time

import numpy as np

from fronthaul import channel, checkpoint, cloud, data, edge, experiment, nn, protocol

# span record fields
NAME, PARENT, ROUND, START, END, ROWS = range(6)

PHASE_PREFIX = "protocol.phase."
ROUND_SPAN = "protocol.round"
CHANNEL_FUNCS = ("sample_channel", "uplink_transmit", "compute_alpha",
                 "downlink_transmit", "downlink_decode")


class HostClock:
    """Times a fixed workload-shaped kernel to track the host's speed."""

    def __init__(self, rows: int, reps: int, ref_ms: float, gap_s: float = 0.005,
                 window: int = 5):
        rng = np.random.default_rng(0)
        self.weights = [rng.standard_normal((32, 16)), rng.standard_normal((32, 32)),
                        rng.standard_normal((16, 32))]
        self.x = rng.standard_normal((rows, 16))
        self.reps = reps
        self.ref_ms = ref_ms
        self.gap_s = gap_s
        self.window = window
        self._kernel()  # first call pays one-off costs
        self.at: list[float] = []
        self.ms: list[float] = []
        self._last = -1.0

    def _kernel(self) -> None:
        # dense + relu forward and backward through three small layers
        for _ in range(self.reps):
            inputs = []
            h = self.x
            for w in self.weights:
                inputs.append(h)
                h = np.maximum(h @ w.T, 0.0)
            g = h
            for w, h_in in zip(reversed(self.weights), reversed(inputs)):
                _ = g.T @ h_in
                g = np.where(h_in != 0.0, g @ w, 0.0)

    def probe(self) -> None:
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2.0)
        self.ms.append((t1 - t0) * 1e3)
        self._last = t1

    def maybe_probe(self) -> None:
        if time.perf_counter() - self._last >= self.gap_s:
            self.probe()

    def scale(self, when) -> np.ndarray:
        """Reference-speed factor at each time in ``when``.

        Uses the median of the ``window`` probes centred on the nearest
        one, so one disturbed probe does not skew the operations near it.
        """
        at = np.asarray(self.at)
        half = self.window // 2
        padded = np.pad(np.asarray(self.ms), half, mode="edge")
        ms = np.median(np.lib.stride_tricks.sliding_window_view(padded, 2 * half + 1), axis=1)
        when = np.atleast_1d(np.asarray(when, dtype=float))
        right = np.clip(np.searchsorted(at, when), 0, len(at) - 1)
        left = np.clip(right - 1, 0, len(at) - 1)
        nearest = np.where(np.abs(at[left] - when) <= np.abs(at[right] - when), left, right)
        return self.ref_ms / ms[nearest]


def _rows(x) -> int:
    shape = np.shape(x)
    return shape[0] if len(shape) == 2 else 1


class Tracer:
    """In-memory span recorder installed over the fronthaul modules."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.round_span = -1
        # round index -> (uplink values, downlink values, redraws, active pairs,
        # computed pairs); same-seed runs repeat a round index exactly, so the
        # means cover each index once however many runs were traced
        self.round_counts: dict[int, tuple[int, int, int, int, int]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------

    def open(self, name: str, rows: int = -1) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, self.round_span, time.perf_counter(), 0.0, rows])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        """Close ``sid`` and anything still open inside it."""
        now = time.perf_counter()
        while self.stack:
            top = self.stack.pop()
            self.spans[top][END] = now
            if top == sid:
                return

    def phase_hook(self, phase: str, round_index: int) -> None:
        top = self.stack[-1] if self.stack else -1
        if top >= 0 and self.spans[top][NAME].startswith(PHASE_PREFIX):
            self.close(top)
        self.open(PHASE_PREFIX + phase)

    # --- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, rows_arg: int | None = None) -> None:
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            sid = tracer.open(name, -1 if rows_arg is None else _rows(args[rows_arg]))
            try:
                return orig(*args, **kwargs)
            finally:
                tracer.close(sid)

        self._patch(owner, attr, traced)

    def _wrap_round(self) -> None:
        orig = protocol.run_training_round
        tracer = self

        @functools.wraps(orig)
        def traced_round(state, round_index, phase_hook=None):
            sid = tracer.open(ROUND_SPAN)
            tracer.round_span = sid
            try:
                record = orig(state, round_index, tracer.phase_hook)
            finally:
                tracer.close(sid)
                tracer.round_span = -1
            active = record.active_mask
            tracer.round_counts[round_index] = (
                record.uplink_values, record.downlink_values, record.redraw_count,
                int(active.sum()), active.size)
            return record

        self._patch(protocol, "run_training_round", traced_round)

    def install(self) -> None:
        self._wrap_round()
        self.wrap(protocol, "draw_round_env", "protocol.draw_round_env")
        self.wrap(protocol, "evaluate", "protocol.evaluate")
        self.wrap(cloud, "cloud_infer", "cloud.cloud_infer")
        self.wrap(cloud, "cloud_backward", "cloud.cloud_backward")
        self.wrap(nn, "forward", "nn.forward", rows_arg=1)
        self.wrap(nn, "backward", "nn.backward", rows_arg=2)
        self.wrap(nn.SgdOptimizer, "step", "nn.optimizer_step")
        self.wrap(nn.AdamOptimizer, "step", "nn.optimizer_step")
        self.wrap(edge, "encode", "edge.encode")
        self.wrap(edge, "batch_gradient", "edge.batch_gradient")
        for func in CHANNEL_FUNCS:
            self.wrap(channel, func, f"channel.{func}")
        self.wrap(data, "crop_batch", "data.crop_batch")
        self.wrap(data, "generate_synthetic", "data.generate_synthetic")
        self.wrap(checkpoint, "save_checkpoint", "checkpoint.save_checkpoint")
        self.wrap(checkpoint, "load_checkpoint", "checkpoint.load_checkpoint")
        self.wrap(experiment, "restore_state", "experiment.restore_state")

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # --- output ----------------------------------------------------------

    def write_spans(self, path) -> None:
        """Every span as gzipped CSV (a 30-s traced run holds a few hundred thousand)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,name,parent,round,start_s,end_s,rows\n")
            for sid, s in enumerate(self.spans):
                fh.write(f"{sid},{s[NAME]},{s[PARENT]},{s[ROUND]},{s[START]!r},"
                         f"{s[END]!r},{s[ROWS]}\n")


class SpanTable:
    """Column view of a tracer's spans with scaled durations and self times."""

    def __init__(self, tracer: Tracer, clock: HostClock | None):
        spans = tracer.spans
        self.names = np.array([s[NAME] for s in spans], dtype=object)
        self.parent = np.array([s[PARENT] for s in spans], dtype=np.int64)
        self.round = np.array([s[ROUND] for s in spans], dtype=np.int64)
        start = np.array([s[START] for s in spans], dtype=float)
        raw = (np.array([s[END] for s in spans], dtype=float) - start) * 1e3
        self.ms = raw * clock.scale(start) if clock is not None and len(spans) else raw
        self.rows = np.array([s[ROWS] for s in spans], dtype=np.int64)
        child_ms = np.zeros(len(spans))
        has_parent = self.parent >= 0
        np.add.at(child_ms, self.parent[has_parent], self.ms[has_parent])
        self.self_ms = self.ms - child_ms
        self.rounds = np.flatnonzero(self.names == ROUND_SPAN)

    def of(self, name: str) -> np.ndarray:
        return np.flatnonzero(self.names == name)

    def median_call_ms(self, name: str) -> float:
        idx = self.of(name)
        return float(np.median(self.ms[idx])) if len(idx) else 0.0

    def per_round(self, name: str, values: np.ndarray) -> np.ndarray:
        """Sum of ``values`` over spans called ``name`` inside each round."""
        idx = self.of(name)
        idx = idx[self.round[idx] >= 0]
        out = np.zeros(len(self.rounds))
        np.add.at(out, np.searchsorted(self.rounds, self.round[idx]), values[idx])
        return out

    def median_per_round(self, name: str, values: np.ndarray | None = None) -> float:
        return float(np.median(self.per_round(name, self.ms if values is None else values)))

    def mean_per_round(self, name: str, values: np.ndarray) -> float:
        return float(np.mean(self.per_round(name, values)))


def layer_metrics(tracer: Tracer, clock: HostClock | None) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from every span the tracer recorded."""
    t = SpanTable(tracer, clock)
    ones = np.ones(len(t.names))
    out: dict[str, tuple[float, str]] = {}
    out["protocol.round.ms"] = (float(np.median(t.ms[t.rounds])), "ms")
    out["protocol.round.uncovered_ms"] = (float(np.median(t.self_ms[t.rounds])), "ms")
    out["protocol.draw_round_env.ms"] = (t.median_per_round("protocol.draw_round_env"), "ms")
    for phase in protocol.PHASES:
        out[f"{PHASE_PREFIX}{phase}.ms"] = (t.median_per_round(PHASE_PREFIX + phase), "ms")
    out[f"{PHASE_PREFIX}edge-backprop.self_ms"] = (
        t.median_per_round(PHASE_PREFIX + "edge-backprop", t.self_ms), "ms")
    for name in ("cloud.cloud_infer", "cloud.cloud_backward", "edge.encode",
                 "edge.batch_gradient", "data.crop_batch", "protocol.evaluate",
                 "data.generate_synthetic", "checkpoint.save_checkpoint",
                 "checkpoint.load_checkpoint", "experiment.restore_state"):
        out[f"{name}.ms"] = (t.median_call_ms(name), "ms")
    for name in ("nn.forward", "nn.backward"):
        out[f"{name}.calls_per_round"] = (t.mean_per_round(name, ones), "count")
        out[f"{name}.rows_per_round"] = (t.mean_per_round(name, t.rows), "count")
        out[f"{name}.ms_per_round"] = (t.median_per_round(name), "ms")
    out["nn.optimizer_step.calls_per_round"] = (t.mean_per_round("nn.optimizer_step", ones),
                                                "count")
    out["nn.optimizer_step.ms_per_round"] = (t.median_per_round("nn.optimizer_step"), "ms")
    for func in CHANNEL_FUNCS:
        name = f"channel.{func}"
        out[f"{name}.calls_per_round"] = (t.mean_per_round(name, ones), "count")
        out[f"{name}.ms"] = (t.median_call_ms(name), "ms")
    uplink, downlink, redraws, active, computed = np.mean(
        list(tracer.round_counts.values()), axis=0)
    out["protocol.active_pair_ratio"] = (float(active / computed), "ratio")
    out["protocol.uplink_values_per_round"] = (float(uplink), "count")
    out["protocol.downlink_values_per_round"] = (float(downlink), "count")
    out["protocol.redraws_per_round"] = (float(redraws), "count")
    return out
