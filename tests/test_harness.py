"""Config files, checkpoints, the experiment driver, and the command line."""

import copy
import dataclasses
import importlib
import inspect
import json
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fronthaul import checkpoint, config as config_mod, data, experiment, oracles, protocol


SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.txt"))

_VALUE_TOKENS = st.sampled_from(["", "none", "true", "false", "nan", "-inf", "1e999", "0",
                                 "-1", "2.5", "3", "1,2", "0,30", "1,,2", "sgd", "proposed",
                                 "mhnet", "per-rb", "ntest", "batch", "external", "a=b"])
_VALUES = (_VALUE_TOKENS | st.text(max_size=10) | st.integers().map(str)
           | st.lists(st.floats().map(repr) | st.integers(-3, 20).map(str),
                      max_size=3).map(",".join))
# key = value lines over the schema's keys, so the fuzzing reaches every parser
_CONFIG_LINES = st.lists(st.tuples(st.sampled_from(sorted(config_mod.SCHEMA)), _VALUES)
                         .map(lambda kv: f"{kv[0]} = {kv[1]}"), max_size=8).map("\n".join)


class TestConfigParsing:
    def test_defaults_round_trip(self):
        cfg = config_mod.parse_config_text("")
        assert cfg == {key: default for key, (_, default) in config_mod.SCHEMA.items()}
        rendered = config_mod.render_config(cfg)
        assert config_mod.parse_config_text(rendered) == cfg

    def test_typed_values(self):
        cfg = config_mod.parse_config_text(
            "rounds = 12\n"
            "eta = 0.25\n"
            "async = true\n"
            "snr_up_db = 5, 15\n"
            "encoder_hidden = 64,32\n"
            "eval_snr_db = none\n"
            "architecture = mhnet\n")
        assert cfg["rounds"] == 12
        assert cfg["eta"] == 0.25
        assert cfg["async"] is True
        assert cfg["snr_up_db"] == (5.0, 15.0)
        assert cfg["encoder_hidden"] == (64, 32)
        assert cfg["eval_snr_db"] is None
        assert cfg["architecture"] == "mhnet"

    def test_comments_and_blanks_ignored(self):
        cfg = config_mod.parse_config_text("# header\n\nrounds = 3  # inline\n")
        assert cfg["rounds"] == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(config_mod.ConfigError, match="unknown key"):
            config_mod.parse_config_text("rouns = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(config_mod.ConfigError, match="duplicate"):
            config_mod.parse_config_text("rounds = 3\nrounds = 4\n")

    def test_bad_value_names_line_and_key(self):
        with pytest.raises(config_mod.ConfigError, match="line 2.*eta"):
            config_mod.parse_config_text("rounds = 3\neta = fast\n")

    def test_bad_choice_rejected(self):
        with pytest.raises(config_mod.ConfigError, match="one of"):
            config_mod.parse_config_text("optimizer = momentum\n")

    def test_to_training_config_validates(self):
        cfg = config_mod.parse_config_text("message_dim = 7\n")
        with pytest.raises(config_mod.ConfigError):
            config_mod.to_training_config(cfg, obs_dim=81, n_classes=4)

    @pytest.mark.parametrize("line, match", [
        ("branches = 0", r"\bbranches\b"),
        ("latent_dim = 0", "latent_dim"),
        ("cloud_hidden = 0", "cloud_hidden"),
        ("encoder_hidden = 48,0", "encoder_hidden"),
        ("baseline_hidden = 0", "baseline_hidden"),
        ("eta = -0.01", "eta"),
        ("val_cadence = -1", "val_cadence"),
    ], ids=["branches", "latent_dim", "cloud_hidden", "encoder_hidden", "baseline_hidden",
            "eta", "val_cadence"])
    def test_bad_widths_rates_and_cadences_rejected(self, line, match):
        """Widths below 1, a negative learning rate or cadence stop before any
        round runs; zero widths used to train to chance accuracy. The error
        names the config key, never a field name that differs from it."""
        cfg = config_mod.parse_config_text(line + "\n")
        with pytest.raises(config_mod.ConfigError, match=match) as excinfo:
            config_mod.to_training_config(cfg, obs_dim=81, n_classes=4)
        assert not any(field in str(excinfo.value) for field in config_mod._KEY)

    def test_catnet_async_names_both_keys(self):
        cfg = config_mod.parse_config_text("architecture = catnet\nasync = true\n")
        with pytest.raises(config_mod.ConfigError,
                           match=r"^architecture = catnet needs async = false") as excinfo:
            config_mod.to_training_config(cfg, obs_dim=81, n_classes=4)
        assert "async_coordination" not in str(excinfo.value)

    def test_schema_defaults_match_training_config_defaults(self):
        tc = config_mod.to_training_config(config_mod.parse_config_text(""), 81, 4)
        assert tc == protocol.TrainingConfig(obs_dim=81, n_classes=4)

    def test_every_training_config_field_but_the_shapes_has_a_key(self):
        """A field with no key would silently keep its default in every run."""
        fields = {f.name for f in dataclasses.fields(protocol.TrainingConfig)}
        keyed = {f for f in fields if config_mod._KEY.get(f, f) in config_mod.SCHEMA}
        assert fields - keyed == {"obs_dim", "n_classes"}

    def test_renamed_keys_reach_their_fields(self):
        cfg = config_mod.parse_config_text("branches = 7\nasync = true\n")
        assert config_mod.to_training_config(cfg, 81, 4) == protocol.TrainingConfig(
            n_branches=7, async_coordination=True, obs_dim=81, n_classes=4)

    @pytest.mark.parametrize("line, key", [
        ("eta = nan", "eta"),
        ("p_c = inf", "p_c"),
        ("pathloss_alpha = NaN", "pathloss_alpha"),
        ("eval_snr_grid = 0,nan", "eval_snr_grid"),
        ("snr_up_db = nan,nan", "snr_up_db"),
        ("eval_snr_db = -inf", "eval_snr_db"),
        ("sweep_values = 1,1e999", "sweep_values"),
    ], ids=["eta", "p_c", "pathloss_alpha", "eval_snr_grid", "snr_up_db", "eval_snr_db",
            "overflow"])
    def test_non_finite_number_rejected(self, line, key):
        """NaN and infinity used to train to NaN losses and write NaN into
        metrics.csv and result.json (not valid JSON)."""
        with pytest.raises(config_mod.ConfigError, match=f"line 2: {key}: .*finite"):
            config_mod.parse_config_text("rounds = 3\n" + line + "\n")

    @given(text=st.text(max_size=80) | _CONFIG_LINES)
    @settings(max_examples=600, deadline=None)
    def test_fuzzed_text_parses_or_raises_config_error(self, text):
        """Any text either parses or raises ConfigError; a parsed config
        re-parses from its rendering (the checkpoint echo) to equal values,
        and the cross-key check raises nothing but ConfigError."""
        try:
            cfg = config_mod.parse_config_text(text)
        except config_mod.ConfigError:
            return
        assert config_mod.parse_config_text(config_mod.render_config(cfg)) == cfg
        try:
            config_mod.check_config(cfg)
        except config_mod.ConfigError:
            pass


class TestShippedConfigs:
    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
    def test_passes_every_check_without_training(self, path):
        cfg = config_mod.load_config(path)
        config_mod.check_config(cfg)
        dataset = experiment.build_dataset(cfg)
        tc = experiment._training_config(cfg, dataset)
        assert (tc.n_branches, tc.async_coordination) == (cfg["branches"], cfg["async"])


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                  max_size=3),
    max_leaves=10)
_DIMS = st.lists(st.integers(-2, 4) | st.integers(2 ** 31, 2 ** 70), max_size=3)
# headers close to a real one, so the fuzzing reaches the manifest checks
_HEADERS = st.fixed_dictionaries({}, optional={
    "config_text": st.text(max_size=6) | _JSON,
    "round": st.integers(-2, 5) | _JSON,
    "arrays": st.lists(st.fixed_dictionaries({}, optional={
        "name": st.sampled_from(["a", "b"]) | _JSON,
        "shape": _DIMS | _JSON}), max_size=3) | _JSON,
})


class TestCheckpoint:
    def _params(self, seed=0):
        rng = np.random.default_rng(seed)
        return {"cloud.z0.dense0.w": rng.normal(size=(4, 3)),
                "encoder0.dense0.b": rng.normal(size=5),
                "encoder0.dense0.w": rng.normal(size=(5, 7))}

    def test_roundtrip_bit_identical(self, tmp_path):
        params = self._params()
        path = tmp_path / "state.bin"
        checkpoint.save_checkpoint(path, params, "rounds = 3\n", round_index=3)
        got, text, rnd = checkpoint.load_checkpoint(path)
        assert text == "rounds = 3\n" and rnd == 3
        assert set(got) == set(params)
        for name in params:
            assert np.array_equal(got[name], params[name])
            assert got[name].dtype == np.float64

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(checkpoint.CheckpointError, match="magic"):
            checkpoint.load_checkpoint(path)

    def test_version_mismatch_names_both_versions(self, tmp_path):
        """An unknown version, and version 1 with its per-slice names, fail
        naming the file's version and the one this library reads."""
        path = tmp_path / "state.bin"
        checkpoint.save_checkpoint(path, self._params(), "", 0)
        raw = bytearray(path.read_bytes())
        for version in (99, 1):
            raw[4:8] = version.to_bytes(4, "little")
            path.write_bytes(bytes(raw))
            with pytest.raises(checkpoint.CheckpointError,
                               match=f"version {version}, this library reads version 2"):
                checkpoint.load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "state.bin"
        checkpoint.save_checkpoint(path, self._params(), "", 0)
        raw = path.read_bytes()
        for cut in (2, len(raw) // 2, len(raw) - 3):
            (tmp_path / "cut.bin").write_bytes(raw[:cut])
            with pytest.raises(checkpoint.CheckpointError, match="truncated"):
                checkpoint.load_checkpoint(tmp_path / "cut.bin")

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "state.bin"
        checkpoint.save_checkpoint(path, self._params(), "", 0)
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(checkpoint.CheckpointError, match="trailing"):
            checkpoint.load_checkpoint(path)

    @pytest.mark.parametrize("key, value", [("eta_tilde", "none"),
                                            ("noiseless_downlink", "false")])
    def test_config_echo_with_removed_key_rejected(self, tmp_path, key, value):
        """A checkpoint whose config echo names a key the schema no longer
        has (older files echo ``eta_tilde = none`` or ``noiseless_downlink =
        false``) fails to restore."""
        text = config_mod.render_config(config_mod.parse_config_text("")) + f"{key} = {value}\n"
        path = tmp_path / "old.bin"
        checkpoint.save_checkpoint(path, self._params(), text, round_index=1)
        with pytest.raises(config_mod.ConfigError, match=f"unknown key '{key}'"):
            experiment.restore_state(path)

    def test_loading_into_mismatched_state_rejected(self):
        ds = data.generate_synthetic(1, n_classes=3, grid=8, window=6,
                                     samples=(32, 8, 8))
        cfg_a = protocol.TrainingConfig(n_train=2, message_dim=8, n_branches=2,
                                        latent_dim=6, cloud_hidden=8,
                                        encoder_hidden=(10,), n_classes=3,
                                        obs_dim=36, rounds=1, batch_size=4,
                                        master_seed=0)
        import dataclasses
        cfg_b = dataclasses.replace(cfg_a, latent_dim=5)
        state_a = protocol.init_state(cfg_a, ds)
        state_b = protocol.init_state(cfg_b, ds)
        params = protocol.state_parameters(state_a)
        with pytest.raises(ValueError, match="shape|names"):
            protocol.load_state_parameters(state_b, params)

    def _with_header(self, tmp_path, header, payload=b""):
        blob = json.dumps(header).encode("utf-8")
        path = tmp_path / "edited.bin"
        path.write_bytes(struct.pack("<4sIQ", checkpoint.MAGIC, checkpoint.VERSION,
                                     len(blob)) + blob + payload)
        return path

    @pytest.mark.parametrize("edit", [
        lambda h: h.pop("arrays"),
        lambda h: h.pop("config_text"),
        lambda h: h.pop("round"),
        lambda h: h["arrays"][0].pop("shape"),
        lambda h: h["arrays"][1].pop("name"),
        lambda h: h.update(arrays={"a": [2]}),
        lambda h: h.update(arrays="none"),
        lambda h: h["arrays"].__setitem__(0, ["a", [2]]),
        lambda h: h["arrays"][0].update(shape=[2, -1]),
        lambda h: h["arrays"][0].update(shape="2"),
        lambda h: h.update(round="3"),
        lambda h: h.update(config_text=None),
    ], ids=["no-arrays", "no-config-text", "no-round", "entry-without-shape",
            "entry-without-name", "arrays-a-dict", "arrays-a-string", "entry-a-list",
            "negative-dim", "shape-a-string", "round-a-string", "config-text-null"])
    def test_malformed_header_raises_typed_error(self, tmp_path, edit):
        header = {"config_text": "rounds = 3\n", "round": 3,
                  "arrays": [{"name": "a", "shape": [2]}, {"name": "b", "shape": []}]}
        edit(header)
        path = self._with_header(tmp_path, header, payload=b"\0" * 24)
        with pytest.raises(checkpoint.CheckpointError):
            checkpoint.load_checkpoint(path)

    @given(header=st.one_of(_JSON, _HEADERS),
           payload_words=st.integers(0, 12))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_fuzzed_header_raises_only_typed_error(self, tmp_path, header, payload_words):
        """Any JSON at all in the header either loads or raises CheckpointError."""
        path = self._with_header(tmp_path, header, payload=b"\x3f" * (8 * payload_words))
        try:
            params, text, round_index = checkpoint.load_checkpoint(path)
        except checkpoint.CheckpointError:
            return
        assert isinstance(text, str) and isinstance(round_index, int)
        assert all(p.dtype == np.float64 for p in params.values())


def small_config_text(**overrides):
    base = {
        "classes": 3, "grid": 8, "window": 6,
        "train_samples": 64, "val_samples": 24, "test_samples": 24,
        "message_dim": 8, "branches": 2, "latent_dim": 6, "cloud_hidden": 10,
        "encoder_hidden": "12", "n_train": 3, "rounds": 6, "batch_size": 8,
        "eta": 0.05, "val_cadence": 3, "eval_snr_grid": "0,20",
        "master_seed": 77,
    }
    base.update(overrides)
    return "".join(f"{k} = {v}\n" for k, v in base.items())


class TestExperimentDriver:
    def test_training_run_writes_all_artifacts(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(small_config_text())
        result = experiment.run_training(config_mod.load_config(cfg_path), tmp_path / "out")
        out = tmp_path / "out"
        assert (out / "metrics.csv").exists()
        assert (out / "checkpoint.bin").exists()
        assert (out / "result.json").exists()
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == ",".join(experiment.CSV_COLUMNS)
        payload = json.loads((out / "result.json").read_text())
        assert len(payload["grid"]) == 2  # two SNR points, one population
        assert result.final_round == 6

    def test_metrics_row_count_follows_cadence(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(small_config_text(rounds=12, val_cadence=3))
        experiment.run_training(config_mod.load_config(cfg_path), tmp_path / "out")
        lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
        assert len(lines) == 1 + 12 // 3

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(small_config_text())
        experiment.run_training(config_mod.load_config(cfg_path), tmp_path / "a")
        experiment.run_training(config_mod.load_config(cfg_path), tmp_path / "b")
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
            (tmp_path / "b" / "metrics.csv").read_bytes()
        assert (tmp_path / "a" / "result.json").read_bytes() == \
            (tmp_path / "b" / "result.json").read_bytes()

    def test_seed_override_changes_results(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(small_config_text())
        from fronthaul import cli
        for args in ((), ("--seed", "123")):
            out = tmp_path / ("b" if args else "a")
            assert cli.main(["train", "--config", str(cfg_path), "--out-dir", str(out),
                             *args]) == 0
        assert (tmp_path / "a" / "metrics.csv").read_bytes() != \
            (tmp_path / "b" / "metrics.csv").read_bytes()

    def test_shared_checkpoint_scales_to_larger_population(self, tmp_path):
        """A four-node shared-encoder checkpoint evaluates at eight nodes."""
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(small_config_text(encoder_sharing="true", n_train=4))
        experiment.run_training(config_mod.load_config(cfg_path), tmp_path / "out")
        state, cfg = experiment.restore_state(tmp_path / "out" / "checkpoint.bin")
        assert cfg["n_train"] == 4
        acc, loss = protocol.evaluate(state, "test", n_test=8, snr_db=10.0)
        assert 0.0 <= acc <= 1.0 and np.isfinite(loss)

    def test_shared_encoder_is_one_stack(self, tmp_path):
        """With encoder sharing the encoder set holds one encoder that every
        node encodes with, both as built and as restored from a checkpoint."""
        cfg = config_mod.parse_config_text(small_config_text(encoder_sharing="true"))
        experiment.run_training(cfg, tmp_path / "out")
        dataset = experiment.build_dataset(cfg)
        built = protocol.init_state(config_mod.to_training_config(
            cfg, dataset.obs_dim, dataset.n_classes), dataset)
        restored, _ = experiment.restore_state(tmp_path / "out" / "checkpoint.bin")
        for state in (built, restored):
            encoders = state.encoders
            assert encoders.shared and encoders.n_slices == 1
            for i in range(state.config.n_train):
                for name, p in encoders.node_encoder(i).params.items():
                    assert np.shares_memory(p, encoders.params[name])

    def test_eval_command_uses_checkpoint(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(small_config_text())
        experiment.run_training(config_mod.load_config(cfg_path), tmp_path / "out")
        eval_cfg = tmp_path / "eval.txt"
        eval_cfg.write_text(small_config_text(
            checkpoint=str(tmp_path / "out" / "checkpoint.bin"),
            eval_snr_grid="5"))
        result = experiment.run_eval(config_mod.load_config(eval_cfg),
                                     tmp_path / "eval_out")
        assert len(result.grid) == 1
        assert (tmp_path / "eval_out" / "result.json").exists()

    def test_snr_sweep_rows(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(small_config_text(sweep="snr", sweep_values="0,10,20"))
        result = experiment.run_sweep(config_mod.load_config(cfg_path), tmp_path / "out")
        assert [r["value"] for r in result.rows] == [0.0, 10.0, 20.0]
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[0] == "sweep,value,accuracy,loss,rounds_to_target"
        assert len(lines) == 4

    def test_ntest_sweep_requires_sharing_for_growth(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(small_config_text(sweep="ntest", sweep_values="1,2,3,6",
                                              encoder_sharing="true"))
        result = experiment.run_sweep(config_mod.load_config(cfg_path), tmp_path / "out")
        assert [r["value"] for r in result.rows] == [1, 2, 3, 6]

    def test_ntest_sweep_draws_each_test_node_once(self, tmp_path, monkeypatch):
        """The sweep's grid draws max(sweep_values) test-split node streams,
        whatever the order of its values. Training draws none, and the
        training run's own grid draws its n_train = 3."""
        test_streams = [0]  # before the first grid, then one count per grid
        test_id = protocol._SPLIT_IDS["test"]

        def counted(seed, domain, *key, _fn=protocol.stream):
            test_streams[-1] += domain == protocol._DOM_EVAL and key[0] == test_id
            return _fn(seed, domain, *key)

        def grid(state, cfg, _fn=experiment._eval_grid):
            test_streams.append(0)
            return _fn(state, cfg)

        monkeypatch.setattr(protocol, "stream", counted)
        monkeypatch.setattr(experiment, "_eval_grid", grid)
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(small_config_text(sweep="ntest", sweep_values="2,6,1,4",
                                              encoder_sharing="true"))
        experiment.run_sweep(config_mod.load_config(cfg_path), tmp_path / "out")
        assert test_streams == [0, 3, 6]

    def test_batch_sweep_trains_per_value(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(small_config_text(sweep="batch", sweep_values="4,8",
                                              target_accuracy="0.0"))
        result = experiment.run_sweep(config_mod.load_config(cfg_path), tmp_path / "out")
        assert len(result.rows) == 2
        assert all(r["rounds_to_target"] is not None for r in result.rows)

    def test_external_dataset_config(self, tmp_path):
        rng = np.random.default_rng(8)
        for name, n in (("train", 32), ("val", 8), ("test", 8)):
            data.save_external(tmp_path / f"{name}.bin", rng.normal(size=(n, 8, 8)),
                               rng.integers(0, 3, size=n), 3)
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(small_config_text(
            dataset="external",
            external_train=str(tmp_path / "train.bin"),
            external_val=str(tmp_path / "val.bin"),
            external_test=str(tmp_path / "test.bin"),
            rounds=2, batch_size=4))
        result = experiment.run_training(config_mod.load_config(cfg_path), tmp_path / "out")
        assert result.final_round == 2

    @pytest.mark.parametrize("overrides, match", [
        ({"sweep": "ntest", "encoder_sharing": "true", "sweep_values": "2.5,2"},
         r"sweep_values \[2.5\] are not whole"),
        ({"sweep": "branches", "sweep_values": "2,1.5"}, r"sweep_values \[1.5\] are not whole"),
        ({"sweep": "batch", "sweep_values": "8,0"}, "batch_size must be positive"),
        ({"sweep": "batch", "sweep_values": "8,100"}, "batch_size = 100 exceeds the 64"),
        ({"sweep": "branches"}, "needs sweep_values"),
        ({"batch_size": 100}, "batch_size = 100 exceeds the 64"),
        ({"sweep": "snr", "batch_size": 100}, "batch_size = 100 exceeds the 64"),
        ({"dataset": "external", "external_val": "v.bin"},
         "external dataset needs external_train, external_test"),
    ], ids=["ntest-fraction", "branches-fraction", "batch-zero", "batch-above-split",
            "branches-no-values", "train-batch-above-split", "snr-sweep-batch-above-split",
            "external-paths"])
    def test_whole_config_checked_before_anything_is_written(self, tmp_path, overrides, match):
        """Every sub-run of a sweep is checked before the first one trains:
        a batch sweep over 8,0 used to train batch_8/ in full, and an ntest
        sweep over 2.5,2 wrote a row for 2."""
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(small_config_text(**overrides))
        out = tmp_path / "out"
        run = experiment.run_sweep if "sweep" in overrides else experiment.run_training
        with pytest.raises(config_mod.ConfigError, match=match):
            run(config_mod.load_config(cfg_path), out)
        assert not out.exists()

    def test_eval_takes_the_model_from_the_checkpoint(self, tmp_path):
        """The default population, the population rules and the architecture
        label come from the checkpoint's config echo, not the eval file."""
        experiment.run_training(config_mod.parse_config_text(
            small_config_text(architecture="mhnet", n_train=2)), tmp_path / "out")
        line = f"checkpoint = {tmp_path / 'out' / 'checkpoint.bin'}\n"
        result = experiment.run_eval(config_mod.parse_config_text(line), tmp_path / "eval")
        assert [(e["architecture"], e["n_test"]) for e in result.grid] == [("mhnet", 2)] * 3
        payload = json.loads((tmp_path / "eval" / "result.json").read_text())
        assert config_mod.parse_config_text(payload["config"])["architecture"] == "mhnet"
        with pytest.raises(config_mod.ConfigError, match=r"\[3\] exceed n_train = 2; mhnet"):
            experiment.run_eval(config_mod.parse_config_text(line + "eval_ntest_grid = 3\n"),
                                tmp_path / "eval3")
        assert not (tmp_path / "eval3").exists()

    @pytest.mark.parametrize("overrides, match", [
        ({"eval_ntest_grid": "2,5"}, "dedicated encoders"),
        ({"eval_ntest_grid": "4", "sweep": "snr", "sweep_values": "0,10"},
         "dedicated encoders"),
        ({"eval_ntest_grid": "4", "sweep": "batch", "sweep_values": "4,8"},
         "dedicated encoders"),
        ({"sweep": "ntest", "sweep_values": "1,6"}, "dedicated encoders"),
        ({"architecture": "catnet", "eval_ntest_grid": "2,3"}, r"\[2\] differ .* catnet"),
        ({"architecture": "mhnet", "encoder_sharing": "true", "eval_ntest_grid": "3,5"},
         r"\[5\] exceed .* mhnet"),
    ], ids=["train", "snr-sweep", "batch-sweep", "ntest-sweep", "catnet", "mhnet-shared"])
    def test_oversized_population_rejected_before_training(self, tmp_path, overrides, match):
        """Populations the trained model cannot serve stop the run with
        ConfigError before round 1, and nothing is written: dedicated
        encoders and mhnet's heads serve at most n_train = 3 nodes, catnet
        exactly n_train."""
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(small_config_text(**overrides))
        out = tmp_path / "out"
        run = experiment.run_sweep if "sweep" in overrides else experiment.run_training
        with pytest.raises(config_mod.ConfigError, match=match):
            run(config_mod.load_config(cfg_path), out)
        assert not list(out.rglob("checkpoint.bin"))
        assert not list(out.rglob("metrics.csv"))
        assert not out.exists()


def parameter_sets(state):
    """Every parameter set a state steps: the encoder set and the cloud model."""
    return [state.encoders, state.cloud_model]


def assert_views_of_buffer(pset):
    """``params`` tiles the set's one C-ordered buffer, slice-major."""
    buffer = pset.buffer
    assert buffer.dtype == np.float64 and buffer.flags.c_contiguous
    assert buffer.base is None or isinstance(buffer.base, np.ndarray)
    assert all(np.shares_memory(p, buffer) for p in pset.params.values())
    assert sum(p.nbytes for p in pset.params.values()) == buffer.nbytes
    assert pset.gather(pset.params).tobytes() == buffer.tobytes()


BUFFER_CONFIGS = {
    "dedicated": {},
    "shared": {"encoder_sharing": "true"},
    "catnet": {"architecture": "catnet"},
    "mhnet": {"architecture": "mhnet"},
    "sum_agg": {"architecture": "sum_agg", "classes": 4, "message_dim": 4},
}


class TestParameterBuffers:
    @pytest.mark.parametrize("name", sorted(BUFFER_CONFIGS))
    def test_params_stay_views_of_one_buffer(self, tmp_path, name):
        """After construction, set_params, load_state_parameters, restore_state and
        deepcopy every set's params are views of its one buffer; stepping a
        deep copy leaves the original alone."""
        cfg = config_mod.parse_config_text(small_config_text(**BUFFER_CONFIGS[name]))
        dataset = experiment.build_dataset(cfg)
        state = protocol.init_state(config_mod.to_training_config(
            cfg, dataset.obs_dim, dataset.n_classes), dataset)

        def check(s):
            for pset in parameter_sets(s):
                assert_views_of_buffer(pset)

        check(state)
        for pset in parameter_sets(state):
            version = pset.version
            pset.set_params({k: p * 0.5 for k, p in pset.params.items()})
            assert pset.version > version
        check(state)
        protocol.load_state_parameters(state, {k: p + 1.0 for k, p in
                                               protocol.state_parameters(state).items()})
        check(state)
        path = tmp_path / "checkpoint.bin"
        checkpoint.save_checkpoint(path, protocol.state_parameters(state),
                                   config_mod.render_config(cfg), 0)
        restored, _ = experiment.restore_state(path)
        check(restored)
        for pset, back in zip(parameter_sets(state), parameter_sets(restored)):
            assert back.buffer.tobytes() == pset.buffer.tobytes()
        clone = copy.deepcopy(state)
        check(clone)
        before = [pset.buffer.copy() for pset in parameter_sets(state)]
        protocol.run_training_round(clone, 1)
        for pset, kept, stepped in zip(parameter_sets(state), before, parameter_sets(clone)):
            assert not np.shares_memory(pset.buffer, stepped.buffer)
            assert pset.buffer.tobytes() == kept.tobytes()
        assert clone.encoders.buffer.tobytes() != state.encoders.buffer.tobytes()
        check(clone)


class TestNumericSuites:
    def test_gradcheck_passes_quickly(self):
        report = oracles.run_gradcheck(seed=1, stack_instances=12, cloud_repeats=2)
        assert report["ok"], report
        assert report["instances"] == 12 + 4 * 2

    def test_central_differences_move_strided_parameters(self):
        """Entries of a strided view are moved in place, so the differences
        see them: a linear value's gradient comes back, a wrong gradient is
        reported, and every entry is restored."""
        rng = np.random.default_rng(3)
        buffer = rng.normal(size=(3, 10))
        p = buffer[:, 2:8].reshape(3, 2, 3)  # a strided view, as a stack set's slices
        weights = rng.normal(size=p.shape)

        def value():
            return float(np.sum(weights * buffer[:, 2:8].reshape(3, 2, 3)))

        assert not p.flags.c_contiguous and np.shares_memory(p, buffer)
        before = buffer.copy()
        assert oracles._central_differences(value, [(p, weights)], 1e-5) < 1e-8
        assert oracles._central_differences(value, [(p, weights + 1.0)], 1e-5) > 0.1
        assert buffer.tobytes() == before.tobytes()

    def test_equivalence_passes_quickly(self):
        report = oracles.run_equivalence(seed=1, rounds=6, fedavg_rounds=4)
        assert report["ok"], report
        assert report["dedicated_max_dev"] < 1e-10
        assert report["fedavg_max_dev"] < 1e-10

    def test_no_smooth_instance_is_an_error_not_a_check(self, monkeypatch, capsys):
        """When no draw clears the kink margin the oracle raises after its
        hundred draws and compares no derivative of a kinked instance."""
        from fronthaul import cli
        monkeypatch.setattr(oracles, "_SMOOTH_MARGIN", np.inf)
        compared = []
        monkeypatch.setattr(oracles, "_rel_err", lambda a, b: compared.append(1) or 0.0)
        forwards = []
        real_forward = oracles.nn.forward
        monkeypatch.setattr(oracles.nn, "forward",
                            lambda *args: forwards.append(1) or real_forward(*args))
        rng = np.random.default_rng(0)
        with pytest.raises(oracles.NoSmoothInstanceError, match="100 draws"):
            oracles._fd_stack_instance(rng, 1e-5)
        assert len(forwards) == 100
        with pytest.raises(oracles.NoSmoothInstanceError):
            oracles._fd_cloud_instance(rng, 3, 1, 1e-5)
        with pytest.raises(oracles.NoSmoothInstanceError):
            oracles.run_gradcheck(seed=0, stack_instances=0, cloud_repeats=1)
        assert compared == []
        assert cli.main(["gradcheck"]) == 2
        assert "100 draws" in capsys.readouterr().err


class TestPartialResults:
    def test_metrics_rows_survive_interruption(self, tmp_path):
        """Rows written before a failure stay on disk (flushed per row)."""
        writer = experiment._MetricsWriter(tmp_path / "metrics.csv", cadence=1)
        record = protocol.RoundRecord(
            round_index=1, batch_indices=np.arange(4), active_mask=np.ones((4, 2)),
            train_loss=1.5, snr_up_db_mean=10.0, snr_dn_db_mean=12.0,
            mean_active=2.0, param_norm_cloud=3.0, param_norm_edges=4.0,
            uplink_values=64, downlink_values=64, redraw_count=0)
        writer.add(record)
        try:
            raise KeyboardInterrupt
        except KeyboardInterrupt:
            writer.close()
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("1,")


class TestCli:
    def _run(self, *args):
        return subprocess.run([sys.executable, "-m", "fronthaul", *args],
                              capture_output=True, text=True)

    def test_missing_config_file_exits_one(self, tmp_path):
        proc = self._run("train", "--config", str(tmp_path / "nope.txt"))
        assert proc.returncode == 1
        assert "error" in proc.stderr

    def test_bad_config_exits_one(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("not_a_key = 3\n")
        proc = self._run("train", "--config", str(cfg))
        assert proc.returncode == 1
        assert "unknown key" in proc.stderr

    @pytest.mark.parametrize("command, overrides", [
        ("train", {"eval_ntest_grid": "0,2"}),
        ("train", {"eval_ntest_grid": "-1"}),
        ("sweep", {"sweep": "ntest", "sweep_values": "0,2"}),
    ], ids=["grid-zero", "grid-negative", "ntest-sweep-zero"])
    def test_population_below_one_exits_one_before_training(self, tmp_path, command,
                                                            overrides):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config_text(**overrides))
        out = tmp_path / "out"
        proc = self._run(command, "--config", str(cfg), "--out-dir", str(out))
        assert proc.returncode == 1
        assert "below 1" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command, overrides, key", [
        ("train", {"eta": "nan"}, "eta"),
        ("train", {"batch_size": 100}, "batch_size"),
        ("train", {"pathloss": "true", "pathloss_d": "1e200,1e200"}, "pathloss_d"),
        ("sweep", {"sweep": "batch", "sweep_values": "8,0"}, "batch_size"),
        ("sweep", {"sweep": "ntest", "sweep_values": "2.5,2"}, "sweep_values"),
        ("eval", {"eval_snr_grid": "nan"}, "eval_snr_grid"),
        ("eval", {"eval_ntest_grid": "3"}, "eval_ntest_grid"),
    ], ids=["train-nan", "train-batch", "train-pathloss-underflow", "sweep-batch",
            "sweep-ntest", "eval-nan", "eval-population"])
    def test_bad_config_exits_one_before_writing(self, tmp_path, command, overrides, key):
        """Exit 1 with a one-line error naming the key and no output directory;
        eval judges its populations by the (2-node mhnet) checkpoint."""
        if command == "eval":
            experiment.run_training(config_mod.parse_config_text(
                small_config_text(architecture="mhnet", n_train=2)), tmp_path / "trained")
            text = "".join(f"{k} = {v}\n" for k, v in overrides.items())
            text += f"checkpoint = {tmp_path / 'trained' / 'checkpoint.bin'}\n"
        else:
            text = small_config_text(**overrides)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text)
        out = tmp_path / "out"
        proc = self._run(command, "--config", str(cfg), "--out-dir", str(out))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and key in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_eval_of_a_version_one_checkpoint_exits_one(self, tmp_path):
        """A checkpoint of format version 1 fails with one error line naming
        versions 1 and 2."""
        experiment.run_training(config_mod.parse_config_text(small_config_text()),
                                tmp_path / "trained")
        path = tmp_path / "trained" / "checkpoint.bin"
        raw = bytearray(path.read_bytes())
        raw[4:8] = (1).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        cfg = tmp_path / "eval.txt"
        cfg.write_text(f"checkpoint = {path}\n")
        proc = self._run("eval", "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "format version 1, this library reads version 2" in lines[0]

    def test_train_and_eval_commands(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config_text())
        proc = self._run("train", "--config", str(cfg), "--out-dir",
                         str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        assert "accuracy=" in proc.stdout
        eval_cfg = tmp_path / "eval.txt"
        eval_cfg.write_text(small_config_text(
            checkpoint=str(tmp_path / "out" / "checkpoint.bin")))
        proc = self._run("eval", "--config", str(eval_cfg), "--out-dir",
                         str(tmp_path / "eval_out"))
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("args, named", [
        ((), "command"),
        (("train",), "--config"),
        (("train", "--config", "cfg.txt", "--bogus"), "--bogus"),
        (("eval", "--config", "cfg.txt", "--seed", "5"), "--seed"),
        (("gradcheck", "--config", "cfg.txt"), "--config"),
        (("gradcheck", "--out-dir", "out"), "--out-dir"),
        (("equivalence", "--config", "cfg.txt"), "--config"),
        (("equivalence", "--out-dir", "out"), "--out-dir"),
        (("sweep", "--config", "cfg.txt", "--seed", "five"), "--seed"),
    ], ids=["no-command", "train-no-config", "unknown-flag", "eval-seed",
            "gradcheck-config", "gradcheck-out-dir", "equivalence-config",
            "equivalence-out-dir", "bad-seed"])
    def test_usage_error_exits_one(self, tmp_path, args, named):
        """A command line the subcommand does not read exits 1, as a bad
        config does, naming what is wrong; exit 2 stays reserved for a
        failed numeric check."""
        proc = self._run(*(str(tmp_path / a) if a in ("cfg.txt", "out") else a for a in args))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and named in proc.stderr
        assert "Traceback" not in proc.stderr
        assert list(tmp_path.iterdir()) == []

    def test_failed_numeric_check_exits_two(self, monkeypatch, capsys):
        from fronthaul import cli
        monkeypatch.setattr(cli.oracles, "run_gradcheck",
                            lambda seed: {"ok": False, "instances": 1,
                                          "max_rel_err": 1.0, "tolerance": 1e-5,
                                          "elapsed_s": 0.0})
        assert cli.main(["gradcheck"]) == 2



README = Path(__file__).resolve().parents[1] / "README.md"
# backticked words in the Layout table that name no attribute: a symbol of
# the model's equations
LAYOUT_WORDS = {"h"}


def layout_rows(text):
    """(module names, contents) of each module row of README's Layout table;
    a row's first cell names one module or several: `fronthaul.config` / `cli`."""
    section = text.split("## Layout", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split(" | ")]
        if len(cells) == 2 and cells[0].startswith("`fronthaul."):
            rows.append(([n.strip().strip("`").removeprefix("fronthaul.")
                          for n in cells[0].split("/")], cells[1]))
    return rows


def _resolve(owners, dotted):
    """The object ``dotted`` names: its first part a ``fronthaul`` module or
    an attribute of the first owner that has one, the rest attributes; None
    if any part is missing."""
    first, *rest = dotted.split(".")
    try:
        found = importlib.import_module(f"fronthaul.{first}")
    except ImportError:
        found = next((getattr(o, first) for o in owners if hasattr(o, first)), None)
    for part in rest:
        found = getattr(found, part, None)
    return found


def unknown_layout_names(text):
    """Backticked identifiers in a Layout row that are not attributes of the
    row's modules or of a class they define, nor, dotted, of the
    ``fronthaul`` module named first; a call ``name(args)`` is checked by
    its name, and other spans (formulas, config lines) are skipped."""
    unknown = []
    for names, contents in layout_rows(text):
        modules = [importlib.import_module(f"fronthaul.{n}") for n in names]
        owners = modules + [cls for m in modules
                            for _, cls in inspect.getmembers(m, inspect.isclass)
                            if cls.__module__ == m.__name__]
        for span in re.findall(r"`([^`]+)`", contents):
            name = re.fullmatch(r"([A-Za-z_]\w*(?:\.\w+)*)(?:\(.*\))?", span)
            if name and name[1] not in LAYOUT_WORDS and _resolve(owners, name[1]) is None:
                unknown.append(f"{' / '.join(names)}: {span}")
    return unknown


def test_readme_layout_names_exist():
    """Every module has a row in README's Layout table, and every Python
    name a row gives in backticks exists where the row says, so the map
    names no deleted helper."""
    text = README.read_text()
    package = Path(protocol.__file__).parent
    modules = sorted(p.stem for p in package.glob("*.py") if not p.stem.startswith("__"))
    assert sorted(n for names, _ in layout_rows(text) for n in names) == modules
    assert unknown_layout_names(text) == []
