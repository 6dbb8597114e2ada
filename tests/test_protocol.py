"""Round orchestration: schedules, active sets, phases, and the reference path."""


import math

import numpy as np
import pytest

from fronthaul import channel, checkpoint, cloud, data, edge, nn, protocol


def toy_dataset(seed=7, classes=3, grid=8, window=6, samples=(64, 24, 24)):
    return data.generate_synthetic(seed, n_classes=classes, grid=grid,
                                   samples=samples, window=window)


def toy_config(**overrides):
    base = dict(
        n_train=3, message_dim=8, n_branches=2, latent_dim=6, cloud_hidden=10,
        encoder_hidden=(12,), n_classes=3, obs_dim=36, rounds=6, batch_size=8,
        eta=0.05, snr_up_db=(10.0, 10.0), snr_dn_db=(10.0, 10.0),
        noiseless_downlink=True, val_cadence=0, master_seed=99)
    base.update(overrides)
    return protocol.TrainingConfig(**base)


def max_param_deviation(a, b):
    pa = protocol.state_parameters(a)
    pb = protocol.state_parameters(b)
    worst = 0.0
    for name in pa:
        scale = np.maximum(1.0, np.maximum(np.abs(pa[name]), np.abs(pb[name])))
        worst = max(worst, float(np.max(np.abs(pa[name] - pb[name]) / scale)))
    return worst


class TestSchedule:
    def test_same_seed_identical(self):
        a = protocol.schedule_minibatches(5, 100, 16, 12)
        b = protocol.schedule_minibatches(5, 100, 16, 12)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_epoch_partitions_index_set(self):
        batches = protocol.schedule_minibatches(3, 64, 16, 4)  # exactly one epoch
        joined = np.concatenate(batches)
        assert sorted(joined.tolist()) == list(range(64))

    def test_tiny_example(self):
        batches = protocol.schedule_minibatches(1, 4, 2, 2)
        assert len(batches) == 2
        assert all(len(b) == 2 for b in batches)
        assert sorted(np.concatenate(batches).tolist()) == [0, 1, 2, 3]

    def test_oversized_batch_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            protocol.schedule_minibatches(1, 4, 8, 1)


class TestActiveSets:
    def test_drop_probability_formula(self):
        cfg = toy_config(n_train=8)
        assert cfg.effective_drop_probability == 7.0 / 16.0

    def test_single_node_never_dropped(self):
        cfg = toy_config(n_train=1)
        assert cfg.effective_drop_probability == 0.0
        mask, redraws = protocol.sample_active_sets(
            np.random.default_rng(0), 1, 50, 0.0)
        assert mask.all() and redraws == 0

    def test_mean_active_count(self):
        """Empirical mean active nodes matches N(1-p) at the default dropout."""
        n, p = 8, 7.0 / 16.0
        mask, _ = protocol.sample_active_sets(np.random.default_rng(1), n, 100_000, p)
        mean = mask.sum(axis=1).mean()
        expected = n * (1 - p)
        assert abs(mean - expected) / expected < 0.01

    def test_no_sample_left_without_nodes(self):
        mask, redraws = protocol.sample_active_sets(
            np.random.default_rng(2), 2, 5000, 0.45)
        assert mask.any(axis=1).all()
        assert redraws > 0  # with p=0.45 and N=2, empties do occur and are redrawn

    def test_redraw_matches_full_row_scan(self):
        """Visiting only the empty rows gives the mask, the redraw count and
        the stream position of a scan over every row."""

        def scan_every_row(rng, n_train, batch_size, p):
            mask = rng.random((batch_size, n_train)) >= p
            redraws = 0
            for b in range(batch_size):
                while not mask[b].any():
                    mask[b] = rng.random(n_train) >= p
                    redraws += 1
            return mask, redraws

        total_redraws = 0
        for seed in range(300):
            n = 1 + seed % 5
            b = (1, 8, 32, 257)[seed % 4]
            p = (0.0, 0.3, 0.6, 0.9)[seed // 4 % 4]
            rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            mask, redraws = protocol.sample_active_sets(rng_new, n, b, p)
            ref_mask, ref_redraws = scan_every_row(rng_ref, n, b, p)
            assert np.array_equal(mask, ref_mask), seed
            assert redraws == ref_redraws, seed
            assert rng_new.random() == rng_ref.random(), seed
            total_redraws += redraws
        assert total_redraws > 100  # the redraw path really ran


class TestRunInference:
    def test_transparent_channel_matches_direct_inference(self):
        cfg = toy_config()
        ds = toy_dataset()
        state = protocol.init_state(cfg, ds)
        rng = np.random.default_rng(3)
        observations = [rng.normal(size=36) for _ in range(3)]
        channels = [channel.ChannelRealization(h=np.ones(4, complex))
                    for _ in range(3)]
        logits = protocol.run_inference(state.nodes, state.cloud_model, channels,
                                        observations,
                                        rng=np.random.default_rng(4))
        received = []
        for node, obs in zip(state.nodes, observations):
            s, _ = edge.encode(node, obs)
            received.append(s)
        want, _ = cloud.cloud_infer(state.cloud_model, received)
        assert np.max(np.abs(logits - want)) < 1e-12

    def test_deterministic_under_fixed_seeds(self):
        cfg = toy_config()
        ds = toy_dataset()
        state = protocol.init_state(cfg, ds)
        rng = np.random.default_rng(5)
        observations = [rng.normal(size=36) for _ in range(3)]
        outs = []
        for _ in range(2):
            chs = [channel.sample_channel(np.random.default_rng(10 + i), 4,
                                          sigma_c2=0.1) for i in range(3)]
            logits = protocol.run_inference(state.nodes, state.cloud_model, chs,
                                            observations,
                                            rng=np.random.default_rng(6))
            outs.append(logits)
        assert np.array_equal(outs[0], outs[1])

    def test_trailing_nodes_drop_without_rebuild(self):
        """Fewer nodes at test time reuse the same cloud and match a direct
        re-evaluation on the surviving subset."""
        cfg = toy_config()
        ds = toy_dataset()
        state = protocol.init_state(cfg, ds)
        rng = np.random.default_rng(7)
        observations = [rng.normal(size=36) for _ in range(2)]
        chs = [channel.ChannelRealization(h=np.ones(4, complex)) for _ in range(2)]
        logits = protocol.run_inference(state.nodes[:2], state.cloud_model, chs,
                                        observations, rng=np.random.default_rng(8))
        received = [edge.encode(n, o)[0] for n, o in zip(state.nodes[:2], observations)]
        want, _ = cloud.cloud_infer(state.cloud_model, received)
        assert np.max(np.abs(logits - want)) < 1e-12


class TestTrainingRound:
    def test_phases_run_in_order(self):
        cfg = toy_config(rounds=1)
        state = protocol.init_state(cfg, toy_dataset())
        seen = []
        protocol.run_training_round(state, 1,
                                    phase_hook=lambda phase, k: seen.append(phase))
        assert tuple(seen) == protocol.PHASES

    def test_cloud_commits_before_downlink_edges_after(self):
        """The cloud's parameters change during cloud backpropagation; the
        edge parameters only change in the edge backpropagation phase."""
        cfg = toy_config(rounds=1)
        state = protocol.init_state(cfg, toy_dataset())
        cloud_versions = {}
        edge_versions = {}

        def hook(phase, k):
            cloud_versions[phase] = state.cloud_model.version
            edge_versions[phase] = [n.encoder.version for n in state.nodes]

        protocol.run_training_round(state, 1, phase_hook=hook)
        assert cloud_versions["cloud-backprop"] == cloud_versions["edge-forward"]
        assert cloud_versions["downlink"] > cloud_versions["cloud-backprop"]
        assert edge_versions["downlink"] == edge_versions["edge-forward"]
        final_edges = [n.encoder.version for n in state.nodes]
        assert final_edges > edge_versions["edge-backprop"]

    def test_boundary_value_counts_are_exact(self):
        cfg = toy_config(rounds=3, async_coordination=True)
        state = protocol.init_state(cfg, toy_dataset())
        for k in (1, 2, 3):
            record = protocol.run_training_round(state, k)
            assert record.uplink_values == 3 * 8 * 8  # N * B * S
            active = int(record.active_mask.sum())
            assert record.downlink_values == active * 8
        assert state.counter.uplink_values == 3 * (3 * 8 * 8)

    def test_rounds_must_be_sequential(self):
        cfg = toy_config()
        state = protocol.init_state(cfg, toy_dataset())
        with pytest.raises(ValueError, match="round"):
            protocol.run_training_round(state, 2)

    def test_async_all_active_equals_sync_bitwise(self):
        ds = toy_dataset()
        sync = protocol.init_state(toy_config(), ds)
        asyn = protocol.init_state(toy_config(async_coordination=True,
                                              drop_probability=0.0), ds)
        for k in range(1, 7):
            protocol.run_training_round(sync, k)
            protocol.run_training_round(asyn, k)
        ps = protocol.state_parameters(sync)
        pa = protocol.state_parameters(asyn)
        for name in ps:
            assert np.array_equal(ps[name], pa[name])

    def test_sharing_leaves_identical_encoders(self):
        cfg = toy_config(encoder_sharing=True, rounds=2)
        state = protocol.init_state(cfg, toy_dataset())
        protocol.run_training_round(state, 1)
        reference = state.nodes[0].encoder.params
        for node in state.nodes[1:]:
            for name in reference:
                assert np.array_equal(node.encoder.params[name],
                                      reference[name])

    def test_empty_active_set_skips_node_update(self):
        cfg = toy_config(async_coordination=True, drop_probability=0.0, rounds=1,
                         noiseless_downlink=True)
        state = protocol.init_state(cfg, toy_dataset())
        # force node 2 inactive on every sample via a drop probability of 1
        # for that node alone: emulate by patching the drawn mask
        env = protocol.draw_round_env(cfg, state.dataset, state.schedule[0], 1)
        env.active[:, 2] = False
        before = {k: v.copy() for k, v in state.nodes[2].encoder.params.items()}
        caches = []
        rows = []
        for i, node in enumerate(state.nodes):
            s, cache = edge.encode(node, env.observations[i])
            caches.append(cache)
            rows.append(np.zeros((8, 8)))
        protocol._edge_backprop_phase(state, env, caches, rows)
        after = state.nodes[2].encoder.params
        for name in before:
            assert np.array_equal(before[name], after[name])


def reference_edge_step(state, env, caches, rows):
    """The per-mode edge formulas the single rule replaced, kept as its reference.

    Shared SGD averaged the nodes' stepped parameters (FedAvg, with a node
    that has no active sample contributing its unchanged parameters);
    shared Adam stepped once on the mean of the nodes' averaged
    gradients; dedicated encoders stepped on their own.
    """
    cfg = state.config
    b = len(env.batch_indices)
    nodes = state.nodes

    def averaged(i):
        if not cfg.async_coordination:
            return edge.batch_gradient(nodes[i], caches[i], rows[i]), b
        count = int(env.active[:, i].sum())
        if count == 0:
            return None, 0
        masked = rows[i] * env.active[:, i][:, None]
        return edge.batch_gradient(nodes[i], caches[i], masked), count

    steps = [averaged(i) for i in range(len(nodes))]
    if cfg.encoder_sharing and cfg.optimizer == "sgd":
        candidates = [dict(node.encoder.params) if grads is None
                      else nn.sgd_step(node.encoder.params, grads, cfg.eta / count)
                      for node, (grads, count) in zip(nodes, steps)]
        shared = {}
        for name in candidates[0]:
            total = np.array(candidates[0][name])
            for cand in candidates[1:]:
                total = total + cand[name]
            shared[name] = total / float(len(candidates))
        for node in nodes:
            node.encoder.set_params(shared)
    elif cfg.encoder_sharing:
        total = nn.zero_grads_like(nodes[0].encoder)
        for grads, count in steps:
            if grads is not None:
                for name in total:
                    total[name] = total[name] + grads[name] / count
        state.edge_optimizers[0].step(nodes[0].encoder, total, cfg.n_train)
        for node in nodes[1:]:
            node.encoder.set_params(dict(nodes[0].encoder.params))
    else:
        for i, (node, (grads, count)) in enumerate(zip(nodes, steps)):
            if grads is None:
                continue
            if cfg.optimizer == "sgd":
                node.encoder.set_params(nn.sgd_step(node.encoder.params, grads,
                                                    cfg.eta / count))
            else:
                state.edge_optimizers[i].step(node.encoder, grads, count)


class TestEdgeUpdateRule:
    @pytest.mark.parametrize("asynchronous", [False, True], ids=["sync", "async"])
    @pytest.mark.parametrize("sharing", [False, True], ids=["dedicated", "shared"])
    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_one_rule_matches_per_mode_formulas(self, optimizer, sharing, asynchronous):
        """One edge-backprop call against the old per-mode formulas.

        The async mask leaves node 2 without an active sample and node 0
        active on every sample; the delivered rows of inactive samples are
        nonzero, as a noisy downlink leaves them. Every mode is bit-equal
        except shared SGD, where one step on the mean gradient and the
        mean of the stepped parameters differ by rounding.
        """
        cfg = toy_config(optimizer=optimizer, encoder_sharing=sharing,
                         async_coordination=asynchronous)
        ds = toy_dataset()
        rule = protocol.init_state(cfg, ds)
        reference = protocol.init_state(cfg, ds)
        env = protocol.draw_round_env(cfg, ds, rule.schedule[0], 1)
        rng = np.random.default_rng(23)
        if asynchronous:
            env.active[:] = rng.random(env.active.shape) < 0.5
            env.active[:, 0] = True
            env.active[:, 2] = False
            env.active[:2, 1] = [True, False]
        rows = [rng.normal(size=(cfg.batch_size, cfg.message_dim))
                for _ in range(cfg.n_train)]
        initial = [dict(node.encoder.params) for node in rule.nodes]
        for state, step in ((rule, protocol._edge_backprop_phase),
                            (reference, reference_edge_step)):
            caches = [edge.encode(node, env.observations[i])[1]
                      for i, node in enumerate(state.nodes)]
            step(state, env, caches, rows)
        for i, (got, want) in enumerate(zip(rule.nodes, reference.nodes)):
            for name in want.encoder.params:
                g, w = got.encoder.params[name], want.encoder.params[name]
                if sharing and optimizer == "sgd":
                    np.testing.assert_allclose(g, w, rtol=1e-12, atol=0)
                else:
                    assert np.array_equal(g, w), (i, name)
        # only a dedicated node without an active sample keeps its parameters
        moved = [not np.array_equal(node.encoder.params["dense0.w"], start["dense0.w"])
                 for node, start in zip(rule.nodes, initial)]
        assert moved == [True, True, not (asynchronous and not sharing)]


class TestCentralizedAgreement:
    def test_dedicated_encoders_track_reference(self):
        ds = toy_dataset()
        cfg = toy_config(rounds=10)
        state = protocol.init_state(cfg, ds)
        oracle = protocol.init_oracle_state(cfg, ds)
        worst = 0.0
        for k in range(1, 11):
            protocol.run_training_round(state, k)
            protocol.centralized_oracle_round(oracle, k)
            worst = max(worst, max_param_deviation(state, oracle))
        assert worst < 1e-10

    def test_agreement_survives_async_masks(self):
        ds = toy_dataset()
        cfg = toy_config(rounds=8, async_coordination=True)
        state = protocol.init_state(cfg, ds)
        oracle = protocol.init_oracle_state(cfg, ds)
        for k in range(1, 9):
            protocol.run_training_round(state, k)
            protocol.centralized_oracle_round(oracle, k)
        assert max_param_deviation(state, oracle) < 1e-10

    def test_shared_encoder_scaled_rate_equivalence(self):
        ds = toy_dataset()
        cfg = toy_config(rounds=8, encoder_sharing=True)
        state = protocol.init_state(cfg, ds)
        oracle = protocol.init_oracle_state(cfg, ds)
        for k in range(1, 9):
            protocol.run_training_round(state, k)
            protocol.centralized_oracle_round(oracle, k)
        assert max_param_deviation(state, oracle) < 1e-10

    def test_channel_quality_input_tracks_reference(self):
        """The encoder's side-input columns train as in the joint step."""
        ds = toy_dataset()
        cfg = toy_config(rounds=8, cqie=True, pathloss=True)
        state = protocol.init_state(cfg, ds)
        oracle = protocol.init_oracle_state(cfg, ds)
        side_columns = state.nodes[0].encoder.params["dense0.w"][:, cfg.obs_dim:].copy()
        worst = 0.0
        for k in range(1, 9):
            protocol.run_training_round(state, k)
            protocol.centralized_oracle_round(oracle, k)
            worst = max(worst, max_param_deviation(state, oracle))
        assert worst < 1e-10
        moved = state.nodes[0].encoder.params["dense0.w"][:, cfg.obs_dim:]
        assert side_columns.shape == (12, cfg.n_blocks)
        assert not np.array_equal(side_columns, moved)

    def test_zero_learning_rate_freezes_reference(self):
        ds = toy_dataset()
        cfg = toy_config(rounds=2, eta=0.0)
        oracle = protocol.init_oracle_state(cfg, ds)
        before = {k: v.copy() for k, v in protocol.state_parameters(oracle).items()}
        protocol.centralized_oracle_round(oracle, 1)
        after = protocol.state_parameters(oracle)
        for name in before:
            assert np.array_equal(before[name], after[name])

    def test_reference_requires_plain_sgd(self):
        with pytest.raises(ValueError, match="SGD"):
            protocol.init_oracle_state(toy_config(optimizer="adam"), toy_dataset())


class TestTrain:
    def test_zero_rounds_returns_initial_state(self):
        cfg = toy_config(rounds=0)
        ds = toy_dataset()
        state, records = protocol.train(cfg, ds)
        fresh = protocol.init_state(cfg, ds)
        assert records == []
        pa = protocol.state_parameters(state)
        pb = protocol.state_parameters(fresh)
        for name in pa:
            assert np.array_equal(pa[name], pb[name])

    def test_identical_runs_produce_identical_records(self):
        cfg = toy_config(rounds=5, val_cadence=2)
        ds = toy_dataset()
        _, rec_a = protocol.train(cfg, ds)
        _, rec_b = protocol.train(cfg, ds)
        for a, b in zip(rec_a, rec_b):
            assert a.train_loss == b.train_loss
            assert a.val_accuracy == b.val_accuracy
            assert a.snr_up_db_mean == b.snr_up_db_mean
            assert np.array_equal(a.batch_indices, b.batch_indices)

    def test_validation_cadence(self):
        cfg = toy_config(rounds=6, val_cadence=3)
        _, records = protocol.train(cfg, toy_dataset())
        evaluated = [r.round_index for r in records if r.val_accuracy is not None]
        assert evaluated == [3, 6]


class TestOptimizers:
    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    @pytest.mark.parametrize("sharing", [False, True], ids=["dedicated", "shared"])
    def test_one_edge_optimizer_per_encoder(self, sharing, optimizer):
        """A shared encoder gets one edge optimizer, dedicated encoders one
        each; 12 rounds land where a state with one optimizer per node
        lands, bit for bit."""
        cfg = toy_config(encoder_sharing=sharing, optimizer=optimizer, rounds=12,
                         async_coordination=True, noiseless_downlink=False)
        ds = toy_dataset()
        state = protocol.init_state(cfg, ds)
        assert len(state.edge_optimizers) == (1 if sharing else cfg.n_train)
        per_node = protocol.init_state(cfg, ds)
        per_node.edge_optimizers = [nn.make_optimizer(optimizer, cfg.eta)
                                    for _ in range(cfg.n_train)]
        for k in range(1, 13):
            protocol.run_training_round(state, k)
            protocol.run_training_round(per_node, k)
        pa = protocol.state_parameters(state)
        pb = protocol.state_parameters(per_node)
        for name in pa:
            assert np.array_equal(pa[name], pb[name])

    @pytest.mark.parametrize("architecture", ["proposed", "mhnet"])
    def test_one_cloud_step_per_round(self, architecture, monkeypatch):
        calls = []
        original = nn.AdamOptimizer.step

        def counted(self, stack, grads, divisor):
            calls.append(stack)
            original(self, stack, grads, divisor)

        monkeypatch.setattr(nn.AdamOptimizer, "step", counted)
        cfg = toy_config(architecture=architecture, optimizer="adam", rounds=2)
        state = protocol.init_state(cfg, toy_dataset())
        protocol.run_training_round(state, 1)
        protocol.run_training_round(state, 2)
        cloud_steps = [c for c in calls if c is state.cloud_model]
        assert len(cloud_steps) == 2
        assert len(calls) == 2 * (1 + cfg.n_train)
        assert state.cloud_optimizer.t == 2


def full_norm(arrays):
    return math.sqrt(sum(float(np.sum(p * p)) for p in arrays))


class TestParamNorms:
    @pytest.mark.parametrize("cadence", [0, 1, 3])
    @pytest.mark.parametrize("architecture", ["proposed", "mhnet"])
    def test_norms_only_on_cadence_rounds(self, architecture, cadence):
        """Norms are computed on the rounds metrics.csv prints and equal the
        norm over every parameter, per-branch slice by slice; off cadence
        they are None."""
        cfg = toy_config(architecture=architecture, val_cadence=cadence,
                         encoder_sharing=True, rounds=6)
        state = protocol.init_state(cfg, toy_dataset())
        for k in range(1, 7):
            record = protocol.run_training_round(state, k)
            if k % max(1, cadence) != 0:
                assert record.param_norm_cloud is None and record.param_norm_edges is None
                continue
            params = protocol.state_parameters(state)
            assert record.param_norm_cloud == full_norm(
                p for name, p in params.items() if name.startswith("cloud."))
            # a shared encoder counts once per node
            assert record.param_norm_edges == full_norm(
                p for node in state.nodes for p in node.encoder.params.values())


def expected_parameter_shapes(cfg, architecture):
    """The checkpoint layout, written out: per-branch stacks for the proposed
    cloud, ``stack{i}`` three-layer perceptrons for the baselines."""
    s, h, r, x = cfg.message_dim, cfg.cloud_hidden, cfg.latent_dim, cfg.n_classes
    shapes = {}
    if architecture == "proposed":
        for m in range(cfg.n_branches):
            for prefix, dims in (("z", (s, h, r)), ("u", (r, h, x))):
                shapes.update({f"cloud.{prefix}{m}.dense0.w": (dims[1], dims[0]),
                               f"cloud.{prefix}{m}.dense0.b": (dims[1],),
                               f"cloud.{prefix}{m}.dense2.w": (dims[2], dims[1]),
                               f"cloud.{prefix}{m}.dense2.b": (dims[2],)})
    elif architecture != "sum_agg":
        width = cfg.baseline_hidden
        heads = [(cfg.n_train * s,)] if architecture == "catnet" else [(s,)] * cfg.n_train
        for i, (in_dim,) in enumerate(heads):
            for j, (a, b) in enumerate(((in_dim, width), (width, width), (width, x))):
                shapes[f"cloud.stack{i}.dense{2 * j}.w"] = (b, a)
                shapes[f"cloud.stack{i}.dense{2 * j}.b"] = (b,)
    hidden = cfg.encoder_hidden[0]
    for i in range(cfg.n_train):
        shapes.update({f"encoder{i}.dense0.w": (hidden, cfg.obs_dim),
                       f"encoder{i}.dense0.b": (hidden,),
                       f"encoder{i}.dense2.w": (s, hidden),
                       f"encoder{i}.dense2.b": (s,)})
    return shapes


ARCHITECTURES = [("proposed", {}), ("catnet", {}), ("mhnet", {}),
                 ("sum_agg", dict(message_dim=4, n_classes=4))]


class TestStateParameters:
    @pytest.mark.parametrize("architecture, overrides", ARCHITECTURES,
                             ids=[a for a, _ in ARCHITECTURES])
    def test_names_and_shapes(self, architecture, overrides):
        cfg = toy_config(architecture=architecture, baseline_hidden=7, **overrides)
        state = protocol.init_state(cfg, toy_dataset(classes=cfg.n_classes))
        params = protocol.state_parameters(state)
        assert {k: p.shape for k, p in params.items()} == \
            expected_parameter_shapes(cfg, architecture)

    @pytest.mark.parametrize("architecture, overrides", ARCHITECTURES,
                             ids=[a for a, _ in ARCHITECTURES])
    def test_save_load_restore_round_trip(self, architecture, overrides, tmp_path):
        """Trained parameters survive a checkpoint bit for bit, stacked arrays
        included, and the restored model computes the same logits."""
        cfg = toy_config(architecture=architecture, rounds=3, optimizer="adam", **overrides)
        ds = toy_dataset(classes=cfg.n_classes)
        state, _ = protocol.train(cfg, ds)
        path = tmp_path / "state.bin"
        checkpoint.save_checkpoint(path, protocol.state_parameters(state), "", 3)
        loaded, _, _ = checkpoint.load_checkpoint(path)
        restored = protocol.init_state(cfg, ds)
        protocol.load_state_parameters(restored, loaded)
        want = protocol.state_parameters(state)
        got = protocol.state_parameters(restored)
        assert list(got) == list(want)
        for name in want:
            assert np.array_equal(got[name], want[name])
        for key, p in state.cloud_model.params.items():
            assert np.array_equal(restored.cloud_model.params[key], p)
        assert protocol.evaluate(restored, "val") == protocol.evaluate(state, "val")


class TestEvaluate:
    def test_shared_encoder_serves_any_population(self):
        cfg = toy_config(encoder_sharing=True, rounds=2)
        state, _ = protocol.train(cfg, toy_dataset())
        for n_test in range(1, 13):
            acc, loss = protocol.evaluate(state, "val", n_test=n_test, snr_db=None)
            assert 0.0 <= acc <= 1.0 and np.isfinite(loss)

    def test_dedicated_encoders_cap_population(self):
        cfg = toy_config(rounds=1)
        state, _ = protocol.train(cfg, toy_dataset())
        for n_test in (1, 2, 3):
            acc, _ = protocol.evaluate(state, "val", n_test=n_test)
            assert 0.0 <= acc <= 1.0
        with pytest.raises(ValueError, match="sharing"):
            protocol.evaluate(state, "val", n_test=4)

    def test_evaluation_is_deterministic_and_read_only(self):
        cfg = toy_config(rounds=2)
        state, _ = protocol.train(cfg, toy_dataset())
        before = {k: v.copy() for k, v in protocol.state_parameters(state).items()}
        a = protocol.evaluate(state, "test", snr_db=5.0)
        b = protocol.evaluate(state, "test", snr_db=5.0)
        assert a == b
        after = protocol.state_parameters(state)
        for name in before:
            assert np.array_equal(before[name], after[name])


class TestBaselineTraining:
    def test_catnet_trains_synchronously(self):
        cfg = toy_config(architecture="catnet", rounds=3)
        state, records = protocol.train(cfg, toy_dataset())
        assert len(records) == 3
        assert np.isfinite(records[-1].train_loss)

    def test_catnet_rejects_async(self):
        with pytest.raises(ValueError, match="async"):
            toy_config(architecture="catnet", async_coordination=True).validate()

    def test_mhnet_trains(self):
        cfg = toy_config(architecture="mhnet", rounds=2)
        state, records = protocol.train(cfg, toy_dataset())
        assert np.isfinite(records[-1].train_loss)

    def test_sum_agg_trains(self):
        # the plain-sum baseline pins the message length to the class count,
        # which must stay even for resource-block pairing
        ds = toy_dataset(classes=4)
        cfg = toy_config(architecture="sum_agg", rounds=2, message_dim=4,
                         n_classes=4)
        state, records = protocol.train(cfg, ds)
        assert np.isfinite(records[-1].train_loss)


class TestConfigValidation:
    def test_rejects_bad_values(self):
        bad = [dict(message_dim=7), dict(batch_size=0), dict(snr_up_db=(5.0, 1.0)),
               dict(power_mode="peak"), dict(downlink="carrier"),
               dict(architecture="resnet"), dict(drop_probability=1.5),
               dict(p_c=0.0)]
        for overrides in bad:
            with pytest.raises(ValueError):
                toy_config(**overrides).validate()

    def test_sum_agg_dimension_rule(self):
        with pytest.raises(ValueError, match="sum aggregation"):
            toy_config(architecture="sum_agg", message_dim=8).validate()
