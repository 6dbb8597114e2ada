"""Synthetic dataset generation, cropping, and the external loader."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fronthaul import data, protocol

_INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)
# headers with sizes small enough to match a short body now and then
_SPLITS = st.builds(
    lambda dims, body: struct.pack("<4q", *dims) + body,
    st.tuples(st.one_of(st.integers(-1, 3), _INT64), st.one_of(st.integers(-1, 3), _INT64),
              st.one_of(st.integers(-1, 3), _INT64), st.one_of(st.integers(-1, 5), _INT64)),
    st.binary(max_size=160))
# small headers followed by exactly as many bytes as they imply
_EXACT_SPLITS = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
                          st.integers(-1, 2 ** 31)).flatmap(
    lambda d: st.binary(min_size=d[0] * (d[1] * d[2] * 8 + 4),
                        max_size=d[0] * (d[1] * d[2] * 8 + 4)).map(
        lambda body: struct.pack("<4q", *d) + body))


class TestGenerator:
    def test_same_seed_identical_dataset(self):
        a = data.generate_synthetic(5, samples=(64, 16, 16))
        b = data.generate_synthetic(5, samples=(64, 16, 16))
        assert np.array_equal(a.train_states, b.train_states)
        assert np.array_equal(a.train_labels, b.train_labels)
        assert np.array_equal(a.test_states, b.test_states)

    def test_label_distribution_uniform(self):
        ds = data.generate_synthetic(6, n_classes=4, samples=(10_000, 1, 1))
        freq = np.bincount(ds.train_labels, minlength=4) / 10_000
        assert np.all(np.abs(freq - 0.25) < 0.02)

    def test_full_state_probe_beats_single_crop(self):
        """A whole-grid linear probe outperforms a single-crop probe by a wide
        margin, so pooling several views genuinely carries information."""
        ds = data.generate_synthetic(7, n_classes=4, grid=16,
                                     samples=(2000, 100, 1000), window=9)
        full_acc, crop_acc = data.probe_gap(ds)
        assert full_acc - crop_acc >= 0.15

    def test_infeasible_sizes_rejected(self):
        with pytest.raises(ValueError, match="window"):
            data.generate_synthetic(0, grid=8, window=9)
        with pytest.raises(ValueError, match="class"):
            data.generate_synthetic(0, n_classes=1)
        with pytest.raises(ValueError, match="class"):
            data.generate_synthetic(0, n_classes=99)
        with pytest.raises(ValueError, match="sample"):
            data.generate_synthetic(0, samples=(0, 1, 1))

    def test_split_lookup(self):
        ds = data.generate_synthetic(8, samples=(8, 4, 2))
        assert len(ds.split("train")[1]) == 8
        assert len(ds.split("val")[1]) == 4
        assert len(ds.split("test")[1]) == 2
        with pytest.raises(ValueError):
            ds.split("holdout")


def round_crops(ds, n_train, batch_size, round_index, master_seed=0):
    """The (N, B, window**2) crops one training round draws from ``ds``."""
    cfg = protocol.TrainingConfig(n_train=n_train, batch_size=batch_size,
                                  obs_dim=ds.obs_dim, master_seed=master_seed)
    batch = np.arange(batch_size)
    return protocol.draw_round_env(cfg, ds, batch, round_index).observations


class TestCrops:
    def test_offsets_cover_expected_range(self):
        """A 12-of-16 crop in a training round draws offsets from {0..4} on
        both axes, and all five values actually occur."""
        ds = data.generate_synthetic(9, grid=16, window=12, samples=(4, 1, 1))
        seen = set()
        for k in range(1, 51):
            crops = round_crops(ds, 2, 4, k)
            for i in range(2):
                for b in range(4):
                    state = ds.train_states[b]
                    assert crops[i, b].shape == (144,)
                    patch = crops[i, b].reshape(12, 12)
                    matches = [(r, c) for r in range(5) for c in range(5)
                               if np.array_equal(state[r:r + 12, c:c + 12], patch)]
                    assert len(matches) == 1
                    seen.add(matches[0])
        assert {r for r, _ in seen} == set(range(5))
        assert {c for _, c in seen} == set(range(5))

    def test_crop_values_match_grid_slices(self):
        """Each round crop is the grid slice at the offset the round's crop
        stream draws for its (sample, node) pair."""
        ds = data.generate_synthetic(10, grid=16, window=9, samples=(4, 1, 1))
        crops = round_crops(ds, 5, 4, 3, master_seed=21)
        offsets = protocol.stream(21, protocol._DOM_CROP, 3).integers(0, 8, size=(4, 5, 2))
        for i in range(5):
            for b in range(4):
                r, c = offsets[b, i]
                want = ds.train_states[b, r:r + 9, c:c + 9].reshape(-1)
                assert np.array_equal(crops[i, b], want)

    def test_window_equal_to_grid_is_full_state(self):
        ds = data.generate_synthetic(11, grid=8, window=8, samples=(4, 1, 1))
        crops = round_crops(ds, 3, 4, 1)
        gathered = data.crop_batch(ds.train_states, np.zeros((4, 3, 2), int), 8)
        for i in range(3):
            for b in range(4):
                assert np.array_equal(crops[i, b], ds.train_states[b].reshape(-1))
                assert np.array_equal(gathered[i, b], ds.train_states[b].reshape(-1))

    def test_same_rng_position_identical_crops(self):
        ds = data.generate_synthetic(12, samples=(4, 1, 1))
        a = round_crops(ds, 4, 4, 2)
        b = round_crops(ds, 4, 4, 2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, round_crops(ds, 4, 4, 3))

    def test_crop_batch_matches_manual_slices(self):
        rng = np.random.default_rng(4)
        states = rng.normal(size=(5, 10, 10))
        offsets = rng.integers(0, 4, size=(5, 3, 2))
        out = data.crop_batch(states, offsets, 7)
        assert out.shape == (3, 5, 49)
        for i in range(3):
            for b in range(5):
                r, c = offsets[b, i]
                want = states[b, r:r + 7, c:c + 7].reshape(-1)
                assert np.array_equal(out[i, b], want)


class TestExternalFormat:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        states = rng.normal(size=(6, 8, 8))
        labels = rng.integers(0, 3, size=6)
        path = tmp_path / "split.bin"
        data.save_external(path, states, labels, 3)
        got_states, got_labels, classes = data.load_external(path)
        assert np.array_equal(got_states, states)
        assert np.array_equal(got_labels, labels)
        assert classes == 3

    def test_truncated_file_rejected(self, tmp_path):
        rng = np.random.default_rng(6)
        path = tmp_path / "split.bin"
        data.save_external(path, rng.normal(size=(4, 6, 6)), np.zeros(4, int), 2)
        raw = path.read_bytes()
        for cut in (8, len(raw) - 5):
            (tmp_path / "cut.bin").write_bytes(raw[:cut])
            with pytest.raises(data.DataError, match="truncated"):
                data.load_external(tmp_path / "cut.bin")

    def test_label_range_validated(self, tmp_path):
        path = tmp_path / "split.bin"
        data.save_external(path, np.zeros((2, 4, 4)), np.array([0, 5]), 3)
        with pytest.raises(data.DataError, match="labels"):
            data.load_external(path)

    @pytest.mark.parametrize("dims", [(2 ** 40, 8, 8, 4), (2 ** 61, 2 ** 30, 2 ** 30, 4)],
                             ids=["huge-count", "overflowing-size"])
    def test_header_larger_than_file_fails_on_length(self, tmp_path, dims):
        """A header whose sizes exceed the file fails on the file length,
        before anything of that size is read or allocated."""
        path = tmp_path / "huge.bin"
        path.write_bytes(struct.pack("<4q", *dims) + b"\0" * 64)
        with pytest.raises(data.DataError, match="truncated"):
            data.load_external(path)

    def test_missing_file_raises_typed_error(self, tmp_path):
        with pytest.raises(data.DataError, match="cannot read"):
            data.load_external(tmp_path / "absent.bin")

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "split.bin"
        data.save_external(path, np.zeros((2, 4, 4)), np.array([0, 1]), 2)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(data.DataError, match="trailing"):
            data.load_external(path)

    @given(raw=st.one_of(st.binary(max_size=200), _SPLITS, _EXACT_SPLITS))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_fuzzed_file_raises_only_typed_error(self, tmp_path, raw):
        """Any byte string either loads as a split or raises DataError."""
        path = tmp_path / "fuzz.bin"
        path.write_bytes(raw)
        try:
            states, labels, n_classes = data.load_external(path)
        except data.DataError:
            return
        assert states.dtype == np.float64 and states.ndim == 3
        assert labels.shape == (states.shape[0],)
        assert 0 <= labels.min() and labels.max() < n_classes

    def test_dataset_assembly(self, tmp_path):
        rng = np.random.default_rng(7)
        for name, n in (("train", 10), ("val", 4), ("test", 4)):
            data.save_external(tmp_path / f"{name}.bin", rng.normal(size=(n, 8, 8)),
                               rng.integers(0, 2, size=n), 2)
        ds = data.load_external_dataset(tmp_path / "train.bin", tmp_path / "val.bin",
                                        tmp_path / "test.bin", window=6)
        assert ds.n_classes == 2 and ds.grid == 8 and ds.obs_dim == 36
        with pytest.raises(data.DataError, match="window"):
            data.load_external_dataset(tmp_path / "train.bin", tmp_path / "val.bin",
                                       tmp_path / "test.bin", window=9)
        data.save_external(tmp_path / "val.bin", rng.normal(size=(4, 8, 8)),
                           rng.integers(0, 3, size=4), 3)
        with pytest.raises(data.DataError, match="class count"):
            data.load_external_dataset(tmp_path / "train.bin", tmp_path / "val.bin",
                                       tmp_path / "test.bin", window=6)
