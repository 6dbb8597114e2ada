"""Synthetic vertically-partitioned datasets and crop handling.

A sample is a noisy grid with a few Gaussian bumps at fixed sites; the
class index is binary-coded into the bump signs. Any single crop of the
grid can miss sites near the far corners, so one local view recovers
the label only partially and pooling several views genuinely helps.
That gap is what makes the task a meaningful stand-in for multi-node
cooperative inference, and it is checked by the linear probes below.
"""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

Array = np.ndarray

# fractional bump sites, pushed to the grid edges so a random crop can
# genuinely miss them; that miss probability is what makes extra views help
_SITES = ((0.15, 0.5), (0.85, 0.5), (0.5, 0.15), (0.5, 0.85))
_BACKGROUND_NOISE = 0.3


@dataclass
class SyntheticDataset:
    train_states: Array
    train_labels: Array
    val_states: Array
    val_labels: Array
    test_states: Array
    test_labels: Array
    n_classes: int
    grid: int
    window: int
    seed: int

    def split(self, name: str) -> tuple[Array, Array]:
        if name == "train":
            return self.train_states, self.train_labels
        if name == "val":
            return self.val_states, self.val_labels
        if name == "test":
            return self.test_states, self.test_labels
        raise ValueError(f"unknown split {name!r}")

    @property
    def obs_dim(self) -> int:
        return self.window * self.window


def _bump_maps(grid: int, n_sites: int) -> Array:
    rows, cols = np.mgrid[0:grid, 0:grid]
    sigma = grid / 10.0
    maps = []
    for fr, fc in _SITES[:n_sites]:
        cr, cc = fr * (grid - 1), fc * (grid - 1)
        maps.append(np.exp(-((rows - cr) ** 2 + (cols - cc) ** 2) / (2 * sigma ** 2)))
    return np.stack(maps)


def generate_synthetic(seed: int, n_classes: int = 4, grid: int = 16,
                       samples: tuple[int, int, int] = (2048, 512, 512),
                       window: int = 12) -> SyntheticDataset:
    """Build the three splits from one seed.

    The label is drawn uniformly, its bits choose each bump's sign, and
    per-sample brightness jitter plus dense background noise keep the
    task from being solvable by thresholding a single pixel.
    """
    if window > grid:
        raise ValueError("crop window exceeds the grid")
    if window < 1 or grid < 2:
        raise ValueError("grid and window must be positive")
    if not 2 <= n_classes <= 2 ** len(_SITES):
        raise ValueError(f"class count must be in [2, {2 ** len(_SITES)}]")
    if any(s < 1 for s in samples):
        raise ValueError("every split needs at least one sample")
    n_sites = max(1, math.ceil(math.log2(n_classes)))
    bumps = _bump_maps(grid, n_sites)
    rng = np.random.default_rng(seed)

    def make_split(n: int) -> tuple[Array, Array]:
        labels = rng.integers(0, n_classes, size=n)
        signs = np.stack([(labels >> k) & 1 for k in range(n_sites)], axis=1) * 2.0 - 1.0
        amps = signs * rng.uniform(0.7, 1.1, size=(n, n_sites))
        states = np.einsum("nk,kij->nij", amps, bumps)
        states = states + _BACKGROUND_NOISE * rng.standard_normal((n, grid, grid))
        return states, labels

    train = make_split(samples[0])
    val = make_split(samples[1])
    test = make_split(samples[2])
    return SyntheticDataset(train[0], train[1], val[0], val[1], test[0], test[1],
                            n_classes=n_classes, grid=grid, window=window, seed=seed)


def crop_batch(states: Array, offsets: Array, window: int) -> Array:
    """Gather crops for a batch: states (B,H,W), offsets (B,N,2) -> (N,B,w*w)."""
    b, n = offsets.shape[0], offsets.shape[1]
    view = np.lib.stride_tricks.sliding_window_view(states, (window, window),
                                                    axis=(1, 2))
    rows = np.arange(b)
    out = np.empty((n, b, window * window))
    for i in range(n):
        patches = view[rows, offsets[:, i, 0], offsets[:, i, 1]]
        out[i] = patches.reshape(b, -1)
    return out


def logistic_probe(train_x: Array, train_y: Array, test_x: Array, test_y: Array,
                   n_classes: int, iters: int = 300, lr: float = 0.5) -> float:
    """Accuracy of a plain multinomial logistic regression.

    Full-batch gradient descent on standardized features; used as an
    independent yardstick for how much label information a feature view
    carries.
    """
    mu = train_x.mean(axis=0)
    sd = train_x.std(axis=0) + 1e-9
    xs = (train_x - mu) / sd
    xt = (test_x - mu) / sd
    n, d = xs.shape
    w = np.zeros((n_classes, d))
    bias = np.zeros(n_classes)
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), train_y] = 1.0
    for _ in range(iters):
        logits = xs @ w.T + bias
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        err = (p - onehot) / n
        w -= lr * (err.T @ xs)
        bias -= lr * err.sum(axis=0)
    pred = np.argmax(xt @ w.T + bias, axis=1)
    return float(np.mean(pred == test_y))


def probe_gap(dataset: SyntheticDataset, probe_seed: int = 0) -> tuple[float, float]:
    """(full-state accuracy, single-crop accuracy) under the linear probe.

    The single-crop probe sees one random crop per sample, exactly what
    one node observes; the full-state probe sees the whole grid.
    """
    rng = np.random.default_rng(probe_seed)
    full_tr = dataset.train_states.reshape(len(dataset.train_labels), -1)
    full_te = dataset.test_states.reshape(len(dataset.test_labels), -1)
    full_acc = logistic_probe(full_tr, dataset.train_labels, full_te,
                              dataset.test_labels, dataset.n_classes)

    def one_crop(states):
        n = states.shape[0]
        offsets = rng.integers(0, dataset.grid - dataset.window + 1, size=(n, 1, 2))
        return crop_batch(states, offsets, dataset.window)[0]

    crop_acc = logistic_probe(one_crop(dataset.train_states), dataset.train_labels,
                              one_crop(dataset.test_states), dataset.test_labels,
                              dataset.n_classes)
    return full_acc, crop_acc


# --- external flat-binary datasets ---------------------------------------------

_HEADER = struct.Struct("<4q")  # n_samples, height, width, n_classes


class DataError(ValueError):
    """Raised for malformed external split files and splits that disagree."""


def save_external(path, states: Array, labels: Array, n_classes: int) -> None:
    """Write one split: int64 header, float64 states, int32 labels."""
    states = np.asarray(states, dtype="<f8")
    labels = np.asarray(labels, dtype="<i4")
    n, h, w = states.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(n, h, w, n_classes))
        fh.write(states.tobytes())
        fh.write(labels.tobytes())


def load_external(path) -> tuple[Array, Array, int]:
    """Read one split written by ``save_external``; raises ``DataError`` if
    it is unreadable or malformed."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot read split {path}: {exc}") from None
    with fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise DataError(f"{path}: truncated header")
        n, h, w, n_classes = _HEADER.unpack(head)
        if n < 1 or h < 1 or w < 1 or n_classes < 2:
            raise DataError(f"{path}: implausible header {(n, h, w, n_classes)}")
        # the length the header implies is checked before any large read
        size = os.fstat(fh.fileno()).st_size
        expected = _HEADER.size + n * (h * w * 8 + 4)  # Python ints: no overflow
        if size < expected:
            raise DataError(f"{path}: truncated: header {(n, h, w, n_classes)} "
                            f"implies {expected} bytes, the file has {size}")
        if size > expected:
            raise DataError(f"{path}: {size - expected} trailing bytes")
        body = fh.read(n * h * w * 8)
        tail = fh.read(n * 4)
    states = np.frombuffer(body, dtype="<f8").reshape(n, h, w).copy()
    labels = np.frombuffer(tail, dtype="<i4").astype(int)
    if labels.min() < 0 or labels.max() >= n_classes:
        raise DataError(f"{path}: labels out of range")
    return states, labels, n_classes


def load_external_dataset(train_path, val_path, test_path, window: int,
                          seed: int = 0) -> SyntheticDataset:
    """Assemble a dataset from three flat-binary split files."""
    tr_s, tr_l, k1 = load_external(train_path)
    va_s, va_l, k2 = load_external(val_path)
    te_s, te_l, k3 = load_external(test_path)
    if not (k1 == k2 == k3):
        raise DataError("splits disagree on the class count")
    if not (tr_s.shape[1:] == va_s.shape[1:] == te_s.shape[1:]):
        raise DataError("splits disagree on the grid shape")
    if tr_s.shape[1] != tr_s.shape[2]:
        raise DataError("grids must be square")
    if window > tr_s.shape[1]:
        raise DataError("crop window exceeds the grid")
    return SyntheticDataset(tr_s, tr_l, va_s, va_l, te_s, te_l,
                            n_classes=k1, grid=tr_s.shape[1], window=window, seed=seed)
