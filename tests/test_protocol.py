"""Round orchestration: schedules, active sets, phases, and the reference path."""


import ast
import copy
import dataclasses
import gc
import inspect
import math
import textwrap
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fronthaul import (channel, checkpoint, cloud, config as config_mod, data, edge, experiment,
                       nn, oracles, protocol)

DEFAULT_CONFIG = Path(__file__).parents[1] / "configs" / "default.txt"


def toy_dataset(seed=7, classes=3, grid=8, window=6, samples=(64, 24, 24)):
    return data.generate_synthetic(seed, n_classes=classes, grid=grid,
                                   samples=samples, window=window)


def toy_config(**overrides):
    base = dict(
        n_train=3, message_dim=8, n_branches=2, latent_dim=6, cloud_hidden=10,
        encoder_hidden=(12,), n_classes=3, obs_dim=36, rounds=6, batch_size=8,
        eta=0.05, snr_up_db=(10.0, 10.0), snr_dn_db=(10.0, 10.0),
        downlink="noiseless", val_cadence=0, master_seed=99)
    base.update(overrides)
    return protocol.TrainingConfig(**base)


@pytest.fixture(scope="module")
def default_dataset():
    return experiment.build_dataset(config_mod.load_config(DEFAULT_CONFIG))


def default_config(dataset, async_, **overrides):
    """``configs/default.txt`` with ``overrides``, trained for 6 rounds with
    plain SGD and a noiseless downlink, the reference's modes."""
    cfg = dict(config_mod.load_config(DEFAULT_CONFIG), **overrides, optimizer="sgd",
               eta=0.05, downlink="noiseless", rounds=6, val_cadence=0)
    cfg["async"] = async_
    return config_mod.to_training_config(cfg, dataset.obs_dim, dataset.n_classes)


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

    def test_needs_a_node(self):
        """No node is a ValueError before any draw: with no node, no
        redraw could ever give a sample an active one."""
        class NoDraw:
            def random(self, shape):
                raise AssertionError("sample_active_sets drew before checking n_train")

        with pytest.raises(ValueError, match="at least one node"):
            protocol.sample_active_sets(NoDraw(), 0, 4, 0.5)

    @pytest.mark.parametrize("p", [1.0, 1.5, math.nan])
    def test_needs_a_drop_probability_below_one(self, p):
        """A drop probability of 1 or more, or NaN, is a ValueError before
        any draw: no redraw could ever give a sample an active node."""
        class NoDraw:
            def random(self, shape):
                raise AssertionError("sample_active_sets drew before checking drop_probability")

        with pytest.raises(ValueError, match="leaves no node active"):
            protocol.sample_active_sets(NoDraw(), 3, 4, p)

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
        observations = rng.normal(size=(3, 1, 36))
        logits = protocol.run_inference(state.encoders, state.cloud_model,
                                        np.ones((3, 1, 4), complex), 0.0, observations,
                                        rng=np.random.default_rng(4))
        received, _ = edge.encode(state.encoders, observations)
        want, _ = cloud.cloud_infer(state.cloud_model, received)
        assert np.max(np.abs(logits - want)) < 1e-12

    def test_deterministic_under_fixed_seeds(self):
        cfg = toy_config()
        ds = toy_dataset()
        state = protocol.init_state(cfg, ds)
        rng = np.random.default_rng(5)
        observations = rng.normal(size=(3, 2, 36))
        outs = []
        for _ in range(2):
            h = channel.sample_channel(np.random.default_rng(10), 4, shape=(3, 2))
            logits = protocol.run_inference(state.encoders, state.cloud_model, h, 0.1,
                                            observations,
                                            rng=np.random.default_rng(6))
            outs.append(logits)
        assert np.array_equal(outs[0], outs[1])

    def test_noise_drawn_node_by_node(self):
        """The uplink noise comes from ``rng`` one node after another, so a
        pass over N nodes equals N one-node passes sharing that stream."""
        state = protocol.init_state(toy_config(cqie=True, pathloss=True), toy_dataset())
        rng = np.random.default_rng(9)
        observations = rng.normal(size=(3, 5, 36))
        sigma_c2 = rng.uniform(0.1, 1.0, size=(5, 1))
        h = channel.sample_channel(rng, 4, pathloss=(rng.uniform(1, 10, size=(3, 5)), 2.7),
                                   shape=(3, 5))
        logits = protocol.run_inference(state.encoders, state.cloud_model, h, sigma_c2,
                                        observations, rng=np.random.default_rng(10),
                                        pathloss=True)
        noise_rng = np.random.default_rng(10)
        messages, _ = edge.encode(state.encoders, observations,
                                  edge.cqi_side_input(np.abs(h), True))
        received = []
        for s, h_node in zip(messages, h):
            noise = channel.noise(noise_rng, h_node.shape, sigma_c2)
            received.append(channel.uplink_transmit(s, h_node, noise))
        want, _ = cloud.cloud_infer(state.cloud_model, received)
        assert np.array_equal(logits, want)

    def test_trailing_nodes_drop_without_rebuild(self):
        """Fewer nodes at test time reuse the same cloud and the first
        encoders: the logits match the first two messages of a three-node
        pass."""
        cfg = toy_config()
        ds = toy_dataset()
        state = protocol.init_state(cfg, ds)
        rng = np.random.default_rng(7)
        observations = rng.normal(size=(2, 1, 36))
        logits = protocol.run_inference(state.encoders, state.cloud_model,
                                        np.ones((2, 1, 4), complex), 0.0, observations,
                                        rng=np.random.default_rng(8))
        full = np.concatenate([observations, np.zeros((1, 1, 36))])
        received = edge.encode(state.encoders, full)[0][:2]
        want, _ = cloud.cloud_infer(state.cloud_model, received)
        assert np.max(np.abs(logits - want)) < 1e-12


    def test_unservable_population_fails_before_any_work(self, monkeypatch):
        """A three-node catnet given two nodes raises before it draws noise
        or encodes: no ``edge.encode`` call, and the caller's stream is where
        it was."""
        state = protocol.init_state(toy_config(architecture="catnet"), toy_dataset())
        encodes = []
        monkeypatch.setattr(edge, "encode", lambda *args, **kwargs: encodes.append(args))
        rng = np.random.default_rng(12)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="catnet was built for 3 nodes, got 2"):
            protocol.run_inference(state.encoders, state.cloud_model,
                                   np.ones((2, 1, 4), complex), 0.1,
                                   np.zeros((2, 1, 36)), rng=rng)
        assert encodes == []
        assert rng.bit_generator.state == before

    def test_too_many_nodes_for_dedicated_encoders_fail_before_any_work(self, monkeypatch):
        """Five nodes against three dedicated encoders raise before any noise
        draw or encode, though the proposed cloud pools any population."""
        state = protocol.init_state(toy_config(), toy_dataset())
        encodes = []
        monkeypatch.setattr(edge, "encode", lambda *args, **kwargs: encodes.append(args))
        rng = np.random.default_rng(12)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="5 nodes requested but only 3 trained encoders"):
            protocol.run_inference(state.encoders, state.cloud_model,
                                   np.ones((5, 1, 4), complex), 0.1,
                                   np.zeros((5, 1, 36)), rng=rng)
        assert encodes == []
        assert rng.bit_generator.state == before


class TestTrainingRound:
    def test_phases_run_in_order(self):
        cfg = toy_config(rounds=1)
        state = protocol.init_state(cfg, toy_dataset())
        seen = []
        protocol.run_training_round(state, 1,
                                    phase_hook=lambda phase, k: seen.append(phase))
        assert tuple(seen) == protocol.PHASES

    @pytest.mark.parametrize("n_train", [1, 3, 7])
    @pytest.mark.parametrize("sharing", [False, True])
    def test_one_encoder_forward_and_backward_per_round(self, n_train, sharing, monkeypatch):
        """Every node's encoder runs in one nn.forward and one nn.backward a
        round, whatever the node count."""
        state = protocol.init_state(toy_config(n_train=n_train, encoder_sharing=sharing),
                                    toy_dataset())
        calls = []
        for name in ("forward", "backward"):
            def counted(stack, *args, _fn=getattr(nn, name), _name=name, **kwargs):
                calls.append((_name, isinstance(stack, nn.StackView)))
                return _fn(stack, *args, **kwargs)
            monkeypatch.setattr(nn, name, counted)
        protocol.run_training_round(state, 1)
        assert calls == [("forward", True), ("backward", True)]

    @pytest.mark.parametrize("async_coordination", [False, True])
    def test_mhnet_heads_run_in_one_forward_and_backward(self, async_coordination,
                                                        monkeypatch):
        """mhnet runs all its heads in one node-first nn.forward and one
        nn.backward a round, between the encoders' two calls."""
        state = protocol.init_state(toy_config(architecture="mhnet", baseline_hidden=5,
                                               async_coordination=async_coordination),
                                    toy_dataset())
        heads = state.cloud_model.layers
        calls = []
        for name in ("forward", "backward"):
            def counted(stack, *args, _fn=getattr(nn, name), _name=name, **kwargs):
                calls.append((_name, stack.layers == heads,
                              stack.params["dense0.w"].shape[0]))
                return _fn(stack, *args, **kwargs)
            monkeypatch.setattr(nn, name, counted)
        protocol.run_training_round(state, 1)
        assert calls == [("forward", False, 3), ("forward", True, 3),
                         ("backward", True, 3), ("backward", False, 3)]

    def test_links_faded_to_zero_keep_training_finite(self):
        """Pathloss at distances of 1e200 underflows the fading to exactly
        zero; the wireless downlink still delivers finite rows. Validation
        rejects such distances, so they are set after it, to reach the
        links themselves."""
        cfg = toy_config(pathloss=True, downlink="wireless")
        state = protocol.init_state(cfg, toy_dataset())
        cfg.pathloss_d = (1e200, 1e200)
        assert not np.any(protocol.draw_round_env(cfg, state.dataset, state.schedule[0], 1).h)
        for k in (1, 2):
            record = protocol.run_training_round(state, k)
        assert np.isfinite(record.train_loss)
        assert all(np.isfinite(p).all() for p in protocol.state_parameters(state).values())

    def test_cloud_commits_before_downlink_edges_after(self):
        """The cloud's parameters change during cloud backpropagation; the
        edge parameters only change in the edge backpropagation phase."""
        cfg = toy_config(rounds=1)
        state = protocol.init_state(cfg, toy_dataset())
        cloud_versions = {}
        edge_versions = {}

        def hook(phase, k):
            cloud_versions[phase] = state.cloud_model.version
            edge_versions[phase] = state.encoders.version

        protocol.run_training_round(state, 1, phase_hook=hook)
        assert cloud_versions["cloud-backprop"] == cloud_versions["edge-forward"]
        assert cloud_versions["downlink"] > cloud_versions["cloud-backprop"]
        assert edge_versions["downlink"] == edge_versions["edge-forward"]
        assert state.encoders.version > edge_versions["edge-backprop"]

    def test_boundary_value_counts_are_exact(self):
        cfg = toy_config(rounds=3, async_coordination=True)
        state = protocol.init_state(cfg, toy_dataset())
        for k in (1, 2, 3):
            record = protocol.run_training_round(state, k)
            assert record.uplink_values == 3 * 8 * 8  # N * B * S
            active = int(record.active_mask.sum())
            assert 0 < active < 3 * 8
            assert record.downlink_values == active * 8

    def test_frozen_snr_takes_one_draw_per_link(self):
        """With ``freeze_snr_per_round`` every sample of round k gets the first
        uplink draw and the second downlink draw of the round's SNR stream;
        the fading comes from its own stream and keeps its bits."""
        cfg = toy_config(snr_up_db=(0.0, 30.0), snr_dn_db=(5.0, 25.0),
                         freeze_snr_per_round=True)
        ds = toy_dataset()
        k = 3
        batch = protocol.schedule_minibatches(cfg.master_seed, len(ds.train_labels),
                                              cfg.batch_size, cfg.rounds)[k - 1]
        frozen = protocol.draw_round_env(cfg, ds, batch, k)
        snr = protocol.stream(cfg.master_seed, protocol._DOM_SNR, k)
        up, dn = snr.uniform(*cfg.snr_up_db), snr.uniform(*cfg.snr_dn_db)
        assert frozen.snr_up_db.tolist() == [up] * cfg.batch_size
        assert frozen.snr_dn_db.tolist() == [dn] * cfg.batch_size
        free = protocol.draw_round_env(dataclasses.replace(cfg, freeze_snr_per_round=False),
                                       ds, batch, k)
        assert len(set(free.snr_up_db.tolist())) == cfg.batch_size
        assert frozen.h.tobytes() == free.h.tobytes()

    @pytest.mark.parametrize("async_", [False, True], ids=["sync", "async"])
    def test_exact_downlink_draws_no_downlink_noise(self, monkeypatch, async_):
        """Under ``downlink = exact`` no downlink-noise stream is built and the
        env holds no downlink noise; every other array keeps the bits the
        wireless config draws, since each stream is keyed by (domain, round)."""
        ds = toy_dataset()
        cfg = toy_config(downlink="wireless", snr_dn_db=(0.0, 20.0), async_coordination=async_,
                         pathloss=True)
        batch = protocol.schedule_minibatches(cfg.master_seed, len(ds.train_labels),
                                              cfg.batch_size, cfg.rounds)[1]
        built = []

        def spy(master_seed, domain, *key):
            built.append(domain)
            return stream(master_seed, domain, *key)

        stream = protocol.stream
        monkeypatch.setattr(protocol, "stream", spy)
        wireless = protocol.draw_round_env(cfg, ds, batch, 2)
        assert protocol._DOM_DN_NOISE in built and wireless.dn_noise is not None
        built.clear()
        exact = protocol.draw_round_env(dataclasses.replace(cfg, downlink="exact"), ds, batch, 2)
        assert protocol._DOM_DN_NOISE not in built and exact.dn_noise is None
        for field in dataclasses.fields(protocol.RoundEnv):
            if field.name != "dn_noise":
                want, got = getattr(wireless, field.name), getattr(exact, field.name)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), field.name

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
        assert state.encoders.n_slices == 1
        reference = state.encoders.node_encoder(0).params
        for i in range(1, cfg.n_train):
            for name in reference:
                assert np.array_equal(state.encoders.node_encoder(i).params[name],
                                      reference[name])

    def test_empty_active_set_skips_node_update(self):
        cfg = toy_config(async_coordination=True, drop_probability=0.0, rounds=1,
                         downlink="noiseless")
        state = protocol.init_state(cfg, toy_dataset())
        # force node 2 inactive on every sample via a drop probability of 1
        # for that node alone: emulate by patching the drawn mask
        env = protocol.draw_round_env(cfg, state.dataset, state.schedule[0], 1)
        env.active[:, 2] = False
        before = {k: v.copy() for k, v in state.encoders.node_encoder(2).params.items()}
        _, cache = edge.encode(state.encoders, env.observations)
        rows = np.zeros((3, 8, 8))
        protocol._edge_backprop_phase(state, env, cache, rows)
        after = state.encoders.node_encoder(2).params
        for name in before:
            assert np.array_equal(before[name], after[name])


def node_stacks(encoders, n_nodes):
    """One 2-D stack per node holding a copy of its encoder, the one slice
    of a ``nn.StackSet`` of its own (its ``param_set``); under encoder
    sharing every node holds the same stack."""
    stacks = []
    for i in range(encoders.n_slices):
        stack_set = nn.StackSet(encoders.layers, [0])
        stack_set.set_params(lifted(encoders.node_encoder(i).params))
        stacks.append(stack_set.slice_view(0))
    return stacks * n_nodes if encoders.shared else stacks


def lifted(arrays):
    """Arrays shaped like a 2-D stack's, as its one-slice set holds them."""
    return {k: a[None] for k, a in arrays.items()}


def reference_edge_step(cfg, stacks, optimizers, env, rows):
    """The per-mode edge formulas the single rule replaced, kept as its reference.

    ``stacks`` holds each node's 2-D stack (one stack that every node
    holds under encoder sharing) and ``optimizers`` one optimizer per
    distinct stack, which steps the stack's one-slice set. Shared SGD averaged the nodes' stepped parameters
    (FedAvg, with a node that has no active sample contributing its
    unchanged parameters); shared Adam stepped once on the mean of the
    nodes' averaged gradients; dedicated encoders stepped on their own.
    """
    b = len(env.active)

    def averaged(i):
        _, cache = nn.forward(stacks[i], env.observations[i])
        if not cfg.async_coordination:
            return nn.backward(stacks[i], cache, rows[i]).param_grads, b
        count = int(env.active[:, i].sum())
        if count == 0:
            return None, 0
        masked = rows[i] * env.active[:, i][:, None]
        return nn.backward(stacks[i], cache, masked).param_grads, count

    steps = [averaged(i) for i in range(len(stacks))]
    if cfg.encoder_sharing and cfg.optimizer == "sgd":
        shared_stack = stacks[0]
        candidates = [dict(shared_stack.params) if grads is None
                      else oracles.sgd_step(shared_stack.params, grads, cfg.eta / count)
                      for grads, count in steps]
        shared = {}
        for name in candidates[0]:
            total = np.array(candidates[0][name])
            for cand in candidates[1:]:
                total = total + cand[name]
            shared[name] = total / float(len(candidates))
        shared_stack.param_set.set_params(lifted(shared))
    elif cfg.encoder_sharing:
        total = {k: np.zeros_like(p) for k, p in stacks[0].params.items()}
        for grads, count in steps:
            if grads is not None:
                for name in total:
                    total[name] = total[name] + grads[name] / count
        optimizers[0].step(stacks[0].param_set, lifted(total), cfg.n_train)
    else:
        for i, (grads, count) in enumerate(steps):
            if grads is None:
                continue
            if cfg.optimizer == "sgd":
                stacks[i].param_set.set_params(
                    lifted(oracles.sgd_step(stacks[i].params, grads, cfg.eta / count)))
            else:
                optimizers[i].step(stacks[i].param_set, lifted(grads), count)


class TestEdgeUpdateRule:
    @pytest.mark.parametrize("asynchronous", [False, True], ids=["sync", "async"])
    @pytest.mark.parametrize("sharing", [False, True], ids=["dedicated", "shared"])
    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_one_rule_matches_per_mode_formulas(self, optimizer, sharing, asynchronous):
        """One edge-backprop call against the old per-mode formulas on
        per-node stacks.

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
        env = protocol.draw_round_env(cfg, ds, rule.schedule[0], 1)
        rng = np.random.default_rng(23)
        if asynchronous:
            env.active[:] = rng.random(env.active.shape) < 0.5
            env.active[:, 0] = True
            env.active[:, 2] = False
            env.active[:2, 1] = [True, False]
        rows = rng.normal(size=(cfg.n_train, cfg.batch_size, cfg.message_dim))
        stacks = node_stacks(rule.encoders, cfg.n_train)
        optimizers = [nn.make_optimizer(optimizer, cfg.eta) for _ in set(map(id, stacks))]
        initial = [{k: v.copy() for k, v in rule.encoders.node_encoder(i).params.items()}
                   for i in range(cfg.n_train)]
        _, cache = edge.encode(rule.encoders, env.observations)
        protocol._edge_backprop_phase(rule, env, cache, rows)
        reference_edge_step(cfg, stacks, optimizers, env, rows)
        for i, want in enumerate(stacks):
            got = rule.encoders.node_encoder(i).params
            for name in want.params:
                g, w = got[name], want.params[name]
                if sharing and optimizer == "sgd":
                    np.testing.assert_allclose(g, w, rtol=1e-12, atol=0)
                else:
                    assert np.array_equal(g, w), (i, name)
        # only a dedicated node without an active sample keeps its parameters
        moved = [not np.array_equal(rule.encoders.node_encoder(i).params["dense0.w"],
                                    start["dense0.w"]) for i, start in enumerate(initial)]
        assert moved == [True, True, not (asynchronous and not sharing)]


@st.composite
def oracle_modes(draw):
    """TrainingConfig overrides for one protocol mode the reference covers:
    SGD and a downlink that delivers H m exactly (``noiseless``, the wireless
    links at zero noise, or ``exact``, whose drawn noise it never reads)."""
    asynchronous = draw(st.booleans())
    architecture = draw(st.sampled_from(
        ["proposed", cloud.MHNET, cloud.SUM_AGG] + ([] if asynchronous else [cloud.CATNET])))
    modes = dict(architecture=architecture, async_coordination=asynchronous,
                 encoder_sharing=draw(st.booleans()),
                 power_mode=draw(st.sampled_from([nn.PER_RB, nn.SUM])),
                 cqie=draw(st.booleans()), pathloss=draw(st.booleans()),
                 downlink=draw(st.sampled_from(["noiseless", "exact"])),
                 n_train=draw(st.integers(1, 5)), n_branches=draw(st.integers(1, 5)),
                 batch_size=draw(st.integers(1, 16)))
    if architecture == cloud.SUM_AGG:  # its messages are the class logits
        modes.update(n_classes=4, message_dim=4)
    return modes


def track_reference(cfg, ds):
    """Train ``cfg.rounds`` protocol rounds beside the centralized reference
    on the same draws; every round's parameters stay within 1e-10 of it.
    Returns the protocol's state and a copy of its encoder parameters
    before the first round."""
    state = protocol.init_state(cfg, ds)
    oracle = protocol.init_state(cfg, ds)
    initial = copy.deepcopy(state.encoders.params)
    worst = 0.0
    for k in range(1, cfg.rounds + 1):
        protocol.run_training_round(state, k)
        oracles.centralized_oracle_round(oracle, k)
        worst = max(worst, max_param_deviation(state, oracle))
    assert worst < 1e-10
    return state, initial


def assert_tracks_reference(modes, rounds=8):
    """``rounds`` protocol rounds stay within 1e-10 of the centralized
    reference; with channel quality input the encoders' side-input columns
    train as in the joint step: every slice's when every node is active
    every round (sync), some slice's when a node may sit out (async)."""
    cfg = toy_config(rounds=rounds, **modes)
    state, initial = track_reference(cfg, toy_dataset(classes=cfg.n_classes))
    side_columns = initial["dense0.w"][:, :, cfg.obs_dim:]
    if cfg.cqie:
        trained = state.encoders.params["dense0.w"][:, :, cfg.obs_dim:]
        assert side_columns.shape[1:] == (12, cfg.n_blocks)
        moved = [not np.array_equal(before, after)
                 for before, after in zip(side_columns, trained)]
        assert any(moved) if cfg.async_coordination else all(moved), moved


class TestCentralizedAgreement:
    @given(modes=oracle_modes())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_protocol_tracks_reference(self, modes):
        """Eight protocol rounds track the reference in every drawn mode."""
        assert_tracks_reference(modes)

    def test_dedicated_encoders_track_reference(self):
        assert_tracks_reference({}, rounds=10)

    def test_agreement_survives_async_masks(self):
        assert_tracks_reference(dict(async_coordination=True))

    def test_shared_encoder_scaled_rate_equivalence(self):
        assert_tracks_reference(dict(encoder_sharing=True))

    def test_channel_quality_input_tracks_reference(self):
        assert_tracks_reference(dict(cqie=True, pathloss=True))

    # the benchmark's shapes on configs/default.txt, where BLAS runs its large kernels
    def test_train_wide_shapes_track_reference(self, default_dataset):
        """N=16 dedicated encoders, B=256, M=12, synchronous: train-wide's round."""
        track_reference(default_config(default_dataset, n_train=16, batch_size=256,
                                       branches=12, encoder_sharing=False, async_=False),
                        default_dataset)

    def test_train_wide_shapes_async_track_reference(self, default_dataset):
        track_reference(default_config(default_dataset, n_train=16, batch_size=256,
                                       branches=12, encoder_sharing=False, async_=True),
                        default_dataset)

    def test_large_shared_population_tracks_reference(self, default_dataset):
        """N=12 nodes on one shared encoder, B=512, asynchronous."""
        track_reference(default_config(default_dataset, n_train=12, batch_size=512,
                                       encoder_sharing=True, async_=True),
                        default_dataset)

    def test_zero_learning_rate_freezes_reference(self):
        ds = toy_dataset()
        cfg = toy_config(rounds=2, eta=0.0)
        oracle = protocol.init_state(cfg, ds)
        before = {k: v.copy() for k, v in protocol.state_parameters(oracle).items()}
        oracles.centralized_oracle_round(oracle, 1)
        after = protocol.state_parameters(oracle)
        for name in before:
            assert np.array_equal(before[name], after[name])

    def test_reference_requires_plain_sgd(self, monkeypatch):
        """An Adam state is rejected before any draw or parameter change."""
        state = protocol.init_state(toy_config(optimizer="adam"), toy_dataset())
        before = {k: v.copy() for k, v in protocol.state_parameters(state).items()}

        def no_draw(*args, **kwargs):
            raise AssertionError("the reference drew before checking the optimizer")

        monkeypatch.setattr(protocol, "draw_round_env", no_draw)
        monkeypatch.setattr(protocol, "stream", no_draw)
        with pytest.raises(ValueError, match="SGD"):
            oracles.centralized_oracle_round(state, 1)
        assert state.round_index == 0
        after = protocol.state_parameters(state)
        assert all(np.array_equal(before[name], after[name]) for name in before)

    def test_equivalence_measure_reports_a_known_perturbation(self):
        """The equivalence runner's deviation is relative above magnitude 1
        and absolute below it: one entry moved by 1e-9, or an entry of 100
        moved by 1e-7, reads about 1e-9; equal states read 0."""
        cfg, ds = toy_config(), toy_dataset()
        state, other = protocol.init_state(cfg, ds), protocol.init_state(cfg, ds)
        assert oracles._max_param_deviation(state, other) == 0.0
        small = protocol.state_parameters(other)["cloud.z_in"]
        small[0, 0] += 1e-9
        assert oracles._max_param_deviation(state, other) == pytest.approx(1e-9, rel=1e-6)
        assert oracles._max_param_deviation(other, state) == pytest.approx(1e-9, rel=1e-6)
        small[0, 0] -= 1e-9
        large_here = protocol.state_parameters(state)["encoders.dense0.w"]
        large_there = protocol.state_parameters(other)["encoders.dense0.w"]
        large_here[2, 0, 0] = 100.0
        large_there[2, 0, 0] = 100.0 + 1e-7
        assert oracles._max_param_deviation(state, other) == pytest.approx(1e-9, rel=1e-6)


def module_definitions(module):
    """Names a module's top level defines: functions, classes, assignments."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {target.id for target in targets if isinstance(target, ast.Name)}
    return names


class TestOracleBoundary:
    """The reference shares only the draws and the state with the protocol
    it checks; sharing the phase code would check the code against itself."""

    PHASE_HELPERS = {"_encode_and_uplink", "_downlink_phase", "_edge_backprop_phase",
                     "encode", "batch_gradient", "step_gradients"}

    def test_reference_round_reads_only_draws_and_state(self):
        tree = ast.parse(textwrap.dedent(inspect.getsource(oracles.centralized_oracle_round)))
        reads = {(node.value.id, node.attr) for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
        assert {attr for owner, attr in reads if owner == "protocol"} \
            <= {"draw_round_env", "TrainingState"}
        fields = {field.name for field in dataclasses.fields(protocol.TrainingState)}
        assert {attr for owner, attr in reads if owner == "state"} <= fields
        # no phase helper is named anywhere in the module, under any owner
        module = ast.parse(inspect.getsource(oracles))
        named = {node.attr if isinstance(node, ast.Attribute) else node.id
                 for node in ast.walk(module) if isinstance(node, (ast.Attribute, ast.Name))}
        assert not named & self.PHASE_HELPERS

    def test_oracle_code_lives_only_in_oracles(self):
        oracle_names = module_definitions(oracles) - {"Array"}
        for module in (protocol, experiment, nn):
            assert not module_definitions(module) & oracle_names, module.__name__
        imported = {alias.name for node in ast.parse(inspect.getsource(experiment)).body
                    if isinstance(node, ast.ImportFrom) and node.module == "oracles"
                    for alias in node.names}
        assert imported == {"run_equivalence"}
        for module, name in ((protocol, "OracleState"), (protocol, "init_oracle_state"),
                             (experiment, "run_experiment"), (nn, "sgd_step")):
            assert not hasattr(module, name), name


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

    def test_callback_returning_true_ends_training(self):
        """Training ends after the first round whose callback returns true,
        in the state a run of that many rounds reaches; a callback that
        returns nothing never stops it."""
        cfg, ds = toy_config(rounds=6, val_cadence=2), toy_dataset()
        seen = []
        state, records = protocol.train(
            cfg, ds, round_callback=lambda r: seen.append(r.round_index) or r.round_index == 4)
        assert seen == [r.round_index for r in records] == [1, 2, 3, 4]
        assert state.round_index == 4
        short, _ = protocol.train(dataclasses.replace(cfg, rounds=4), ds)
        pa, pb = protocol.state_parameters(state), protocol.state_parameters(short)
        assert all(np.array_equal(pa[name], pb[name]) for name in pa)
        _, records = protocol.train(cfg, ds, round_callback=seen.append)
        assert len(records) == 6

    def test_rounds_to_target_is_the_first_validation_at_or_above(self):
        _, trained = protocol.train(toy_config(rounds=4), toy_dataset())
        records = [dataclasses.replace(r, val_accuracy=acc)
                   for r, acc in zip(trained, [None, 0.5, 0.8, 0.9])]
        assert protocol.rounds_to_target(records, 0.0) == 2  # a round without validation never counts
        assert protocol.rounds_to_target(records, 0.8) == 3
        assert protocol.rounds_to_target(records, 0.85) == 4
        assert protocol.rounds_to_target(records, 0.95) is None


def per_node_reference_phase(stacks, optimizers):
    """An edge-backprop phase written out with one 2-D stack (of a one-slice
    set, as ``node_stacks`` builds) and one optimizer per encoder: each node runs its own stack, averages its
    gradient over its active samples and, with dedicated encoders, steps
    its own optimizer; a shared encoder steps once on the mean of the
    nodes' averages. The results are written back into ``state.encoders``.
    """
    def phase(state, env, cache, gradient_rows):
        cfg = state.config
        total = {k: np.zeros_like(p) for k, p in stacks[0].params.items()}
        for i in range(cfg.n_train):
            stack = stacks[0] if cfg.encoder_sharing else stacks[i]
            count = int(env.active[:, i].sum())
            if count == 0:
                continue
            _, node_cache = nn.forward(stack, env.observations[i])
            rows = gradient_rows[i] * env.active[:, i][:, None]
            grads = nn.backward(stack, node_cache, rows).param_grads
            if cfg.encoder_sharing:
                for name in total:
                    total[name] = total[name] + grads[name] / count
            else:
                optimizers[i].step(stack.param_set, lifted(grads), count)
        if cfg.encoder_sharing:
            optimizers[0].step(stacks[0].param_set, lifted(total), cfg.n_train)
        state.encoders.set_params({name: np.stack([s.params[name] for s in stacks])
                                   for name in state.encoders.params})
    return phase


class TestOptimizers:
    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    @pytest.mark.parametrize("sharing", [False, True], ids=["dedicated", "shared"])
    def test_one_edge_optimizer_per_encoder(self, sharing, optimizer, monkeypatch):
        """One optimizer steps the stacked encoders; 12 rounds land where
        per-node stacks with one optimizer per encoder land, bit for bit."""
        cfg = toy_config(encoder_sharing=sharing, optimizer=optimizer, rounds=12,
                         async_coordination=True, downlink="wireless")
        ds = toy_dataset()
        state = protocol.init_state(cfg, ds)
        per_node = protocol.init_state(cfg, ds)
        stacks = node_stacks(per_node.encoders, 1)
        optimizers = [nn.make_optimizer(optimizer, cfg.eta) for _ in stacks]
        assert len(stacks) == (1 if sharing else cfg.n_train)
        for k in range(1, 13):
            protocol.run_training_round(state, k)
            with monkeypatch.context() as patch:
                patch.setattr(protocol, "_edge_backprop_phase",
                              per_node_reference_phase(stacks, optimizers))
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
        assert len(calls) == 2 * 2
        assert state.cloud_optimizer.t == 2

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    @pytest.mark.parametrize("sharing", [False, True], ids=["dedicated", "shared"])
    def test_one_encode_gradient_and_edge_step_per_round(self, sharing, optimizer,
                                                         monkeypatch):
        """Each round makes one ``edge.encode`` call, one cloud step, one
        ``edge.batch_gradient`` call and one step of the edge optimizer."""
        calls = []

        def count_calls(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls.append((name, args[0]))
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        count_calls(edge, "encode")
        count_calls(edge, "batch_gradient")
        count_calls(nn.SgdOptimizer, "step")
        count_calls(nn.AdamOptimizer, "step")
        cfg = toy_config(encoder_sharing=sharing, optimizer=optimizer, n_train=5,
                         async_coordination=True, rounds=3)
        state = protocol.init_state(cfg, toy_dataset())
        for k in (1, 2, 3):
            calls.clear()
            protocol.run_training_round(state, k)
            assert calls == [("encode", state.encoders), ("step", state.cloud_optimizer),
                             ("batch_gradient", state.encoders),
                             ("step", state.edge_optimizer)]

    def test_stacked_adam_skips_a_node_without_samples(self, monkeypatch):
        """Node 2 is active in rounds 1 and 3 and on no sample in round 2.
        Round 2 leaves its parameters, moments and step count as round 1
        left them; its round-3 step is a lone Adam step with step count 2
        from the round-1 moments."""
        cfg = toy_config(optimizer="adam", async_coordination=True, downlink="wireless",
                         rounds=3)
        state = protocol.init_state(cfg, toy_dataset())
        draw = protocol.draw_round_env

        def forced(config, dataset, batch_indices, round_index):
            env = draw(config, dataset, batch_indices, round_index)
            env.active[:, 0] = True  # every sample keeps an active node
            env.active[:, 2] = round_index != 2
            return env

        steps = []
        adam_step = nn.AdamOptimizer.step

        def recorded(opt, stack, grads, divisor):
            if stack is state.encoders:
                steps.append(({k: g.copy() for k, g in grads.items()}, np.array(divisor)))
            adam_step(opt, stack, grads, divisor)

        monkeypatch.setattr(protocol, "draw_round_env", forced)
        monkeypatch.setattr(nn.AdamOptimizer, "step", recorded)
        opt = state.edge_optimizer

        def node2():
            return ({k: v.copy() for k, v in state.encoders.node_encoder(2).params.items()},
                    {k: m[2].copy() for k, m in opt.m.items()},
                    {k: v[2].copy() for k, v in opt.v.items()})

        protocol.run_training_round(state, 1)
        params1, m1, v1 = node2()
        assert opt.t.tolist() == [1, 1, 1]
        protocol.run_training_round(state, 2)
        params2, m2, v2 = node2()
        assert steps[1][1][2] == 0
        assert opt.t.tolist() == [2, 2, 1]
        for k in params1:
            assert np.array_equal(params2[k], params1[k])
            assert np.array_equal(m2[k], m1[k]) and np.array_equal(v2[k], v1[k])
        protocol.run_training_round(state, 3)
        assert opt.t.tolist() == [3, 3, 2]
        lone = nn.StackSet(state.encoders.layers, [0])
        lone.set_params(lifted(params1))
        written = nn.AdamOptimizer(cfg.eta)
        written.t, written.m, written.v = 1, lifted(m1), lifted(v1)
        grads, counts = steps[2]
        written.step(lone, {k: g[2:3] for k, g in grads.items()}, int(counts[2]))
        for k, p in state.encoders.node_encoder(2).params.items():
            assert np.array_equal(p, lone.params[k][0])
            assert not np.array_equal(p, params1[k])


def full_norm(arrays):
    return math.sqrt(sum(float(np.sum(p * p)) for p in arrays))


class TestParamNorms:
    @pytest.mark.parametrize("cadence", [0, 1, 3])
    @pytest.mark.parametrize("architecture", ["proposed", "mhnet"])
    def test_norms_only_on_cadence_rounds(self, architecture, cadence):
        """Norms are computed on the rounds metrics.csv prints, the cloud's
        over its set and the edges' over the encoder set, which with
        encoder sharing is the one shared encoder; off cadence they are None."""
        cfg = toy_config(architecture=architecture, val_cadence=cadence,
                         encoder_sharing=True, rounds=6)
        state = protocol.init_state(cfg, toy_dataset())
        for k in range(1, 7):
            record = protocol.run_training_round(state, k)
            if k % max(1, cadence) != 0:
                assert record.param_norm_cloud is None and record.param_norm_edges is None
                continue
            assert record.param_norm_cloud == protocol._norm(state.cloud_model)
            assert record.param_norm_edges == protocol._norm(state.encoders)


class TestNorm:
    @pytest.mark.parametrize("which", ["cloud", "dedicated", "shared", "mhnet", "sum_agg"])
    def test_norm_over_every_array(self, which):
        """The norm over every array of the set, to within the rounding of
        summing its squares in another order (n * eps relative for n
        squares); a model with no parameters has norm 0.0."""
        rng = np.random.default_rng(17)
        architecture = which if which in ("mhnet", "sum_agg") else "proposed"
        cfg = toy_config(architecture=architecture, encoder_sharing=which == "shared",
                         n_train=4, n_branches=5,
                         **({"message_dim": 4, "n_classes": 4} if which == "sum_agg" else {}))
        model = (protocol.init_encoders(cfg) if which in ("dedicated", "shared")
                 else protocol.build_cloud(cfg))
        for _ in range(4):
            # entries over six decades
            model.set_params({k: rng.normal(size=p.shape) * 10 ** rng.uniform(-3, 3, p.shape)
                              for k, p in model.params.items()})
            assert protocol._norm(model) == pytest.approx(
                full_norm(model.params.values()), rel=model.buffer.size * np.finfo(float).eps)
        if which == "sum_agg":
            assert protocol._norm(model) == 0.0


def expected_parameter_shapes(cfg, architecture):
    """The checkpoint layout, written out: the cloud's eight arrays stacked
    over M branches for the proposed cloud, three-layer perceptrons stacked
    over their heads for the baselines, and the encoders stacked over the
    nodes, one slice when shared."""
    s, h, r, x, m = (cfg.message_dim, cfg.cloud_hidden, cfg.latent_dim, cfg.n_classes,
                     cfg.n_branches)
    shapes = {}
    if architecture == "proposed":
        shapes.update({"cloud.z_in": (m * h, s), "cloud.z_in_b": (m * h,),
                       "cloud.z_out": (m, r, h), "cloud.z_out_b": (m, r),
                       "cloud.u_in": (m, h, r), "cloud.u_in_b": (m, h),
                       "cloud.u_out": (m, x, h), "cloud.u_out_b": (m, x)})
    elif architecture != "sum_agg":
        width = cfg.baseline_hidden
        heads, in_dim = (1, cfg.n_train * s) if architecture == "catnet" else (cfg.n_train, s)
        for j, (a, b) in enumerate(((in_dim, width), (width, width), (width, x))):
            shapes[f"cloud.dense{2 * j}.w"] = (heads, b, a)
            shapes[f"cloud.dense{2 * j}.b"] = (heads, b)
    hidden = cfg.encoder_hidden[0]
    n = 1 if cfg.encoder_sharing else cfg.n_train
    shapes.update({"encoders.dense0.w": (n, hidden, cfg.obs_dim),
                   "encoders.dense0.b": (n, hidden),
                   "encoders.dense2.w": (n, s, hidden),
                   "encoders.dense2.b": (n, s)})
    return shapes


ARCHITECTURES = [("proposed", {}), ("catnet", {}), ("mhnet", {}),
                 ("sum_agg", dict(message_dim=4, n_classes=4))]


class TestStateParameters:
    @pytest.mark.parametrize("architecture, overrides", ARCHITECTURES,
                             ids=[a for a, _ in ARCHITECTURES])
    def test_names_and_shapes(self, architecture, overrides):
        """One ``{set}.{key}`` name per stacked array, each a view of its set's
        buffer, with dedicated and with shared encoders."""
        for sharing in (False, True):
            cfg = toy_config(architecture=architecture, baseline_hidden=7,
                             encoder_sharing=sharing, **overrides)
            state = protocol.init_state(cfg, toy_dataset(classes=cfg.n_classes))
            params = protocol.state_parameters(state)
            assert {k: p.shape for k, p in params.items()} == \
                expected_parameter_shapes(cfg, architecture)
            for name, p in params.items():
                model = state.cloud_model if name.startswith("cloud.") else state.encoders
                assert np.shares_memory(p, model.buffer), name

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

    @pytest.mark.parametrize("edit, message", [
        (lambda params, name: params.pop(name), "names do not match"),
        (lambda params, name: params.update({name: np.zeros((*params[name].shape, 1))}),
         "shape mismatch"),
    ], ids=["missing-name", "wrong-shape"])
    def test_load_is_all_or_nothing(self, edit, message):
        """A dict that does not fit raises before any set is written: the
        cloud set, installed first, keeps its buffer and its version when
        an encoder array is missing or of the wrong shape."""
        ds = toy_dataset()
        state, other = (protocol.init_state(toy_config(master_seed=s), ds) for s in (1, 2))
        params = {name: p.copy() for name, p in protocol.state_parameters(other).items()}
        edit(params, next(name for name in params if name.startswith("encoders.")))
        sets = (state.cloud_model, state.encoders)
        before = [(model.buffer.copy(), model.version) for model in sets]
        with pytest.raises(ValueError, match=message):
            protocol.load_state_parameters(state, params)
        for model, (buffer, version) in zip(sets, before):
            assert model.buffer.tobytes() == buffer.tobytes() and model.version == version


class TestInitState:
    @pytest.mark.parametrize("overrides, message", [
        (dict(eta=-1.0), "eta must be nonnegative"),
        (dict(n_classes=4), "n_classes does not match"),
        (dict(obs_dim=35), "obs_dim does not match"),
    ], ids=["validates-the-config", "n_classes", "obs_dim"])
    def test_rejects_a_bad_config_or_dataset(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            protocol.init_state(toy_config(**overrides), toy_dataset())


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


def reference_evaluate(state, split, n_test, snr_db, rows=None):
    """The per-cell evaluation that the held population replaced, kept as its
    reference: every call draws each node's fading, noise at this SNR and
    crops from that node's stream, encodes, and carries the messages over a
    noisy uplink. Appends each chunk's received rows to ``rows`` when given."""
    cfg = state.config
    states, labels = state.dataset.split(split)
    n_samples = len(labels)
    sigma2 = 0.0 if snr_db is None else float(channel.snr_to_noise_var(snr_db))
    h, noise, offsets = [], [], []
    for i in range(n_test):
        rng = protocol.stream(cfg.master_seed, protocol._DOM_EVAL,
                              protocol._SPLIT_IDS[split], i)
        pathloss = None
        if cfg.pathloss:
            pathloss = (rng.uniform(cfg.pathloss_d[0], cfg.pathloss_d[1], size=n_samples),
                        cfg.pathloss_alpha)
        h.append(channel.sample_channel(rng, cfg.n_blocks, pathloss=pathloss,
                                        shape=(n_samples,)))
        noise.append(channel.noise(rng, (n_samples, cfg.n_blocks), sigma2))
        offsets.append(rng.integers(0, state.dataset.grid - state.dataset.window + 1,
                                    size=(n_samples, 2)))
    h, noise, offsets = np.stack(h), np.stack(noise), np.stack(offsets)
    correct = 0
    loss_total = 0.0
    for start in range(0, n_samples, protocol._EVAL_CHUNK):
        chunk = slice(start, start + protocol._EVAL_CHUNK)
        observations = data.crop_batch(states[chunk], offsets[:, chunk].transpose(1, 0, 2),
                                       state.dataset.window)
        cqi = edge.cqi_side_input(np.abs(h[:, chunk]), cfg.pathloss) if cfg.cqie else None
        messages, _ = edge.encode(state.encoders, observations, cqi, keep_cache=False)
        received = channel.uplink_transmit(messages, h[:, chunk], noise[:, chunk])
        if rows is not None:
            rows.append(received)
        logits, _ = state.cloud_model.infer(received)
        losses, _ = nn.softmax_cross_entropy(logits, labels[chunk])
        loss_total += float(np.sum(losses))
        correct += int(np.sum(np.argmax(logits, axis=1) == labels[chunk]))
    return correct / n_samples, loss_total / n_samples


def bits(result):
    """An (accuracy, loss) pair as hex strings, which tell -0.0 from 0.0."""
    return tuple(float(x).hex() for x in result)


EVAL_MODES = {
    "shared": dict(encoder_sharing=True),
    "dedicated": dict(n_train=5),
    "cqie": dict(encoder_sharing=True, cqie=True),
    "pathloss": dict(encoder_sharing=True, pathloss=True, cqie=True),
    # train-wide's shape: dedicated encoders, M = 12 branches
    "wide": dict(n_train=5, n_branches=12),
}
EVAL_NTEST = (1, 3, 5)
EVAL_SNR = (None, 0.0, 17.5, 40.0)
EVAL_ORDERS = {
    "n-major": [("test", n, snr) for n in EVAL_NTEST for snr in EVAL_SNR],
    "snr-major": [("test", n, snr) for snr in EVAL_SNR for n in EVAL_NTEST],
    "interleaved": [(split, n, snr) for n in EVAL_NTEST for snr in EVAL_SNR
                    for split in ("val", "test")],
    # populations that grow one node at a time, shrink, and jump both ways
    "n-ascending": [("test", n, snr) for n in (1, 2, 3, 4, 5) for snr in (None, 17.5)],
    "n-descending": [("test", n, snr) for n in (5, 4, 3, 2, 1) for snr in (None, 17.5)],
    "n-shuffled": [("test", n, snr) for n in (3, 1, 5, 2, 4) for snr in (None, 17.5)],
    # only the cloud's parameters, or only the encoders', change at the named
    # set: held and repeated cells pool again from the first node
    "cloud-change": [("test", 5, 17.5), ("test", 3, None), "cloud", ("test", 5, 17.5),
                     ("test", 3, None), ("test", 5, None), "cloud", ("test", 5, None),
                     ("test", 5, None)],
    "encoder-change": [("test", 5, 17.5), ("test", 3, None), "encoders", ("test", 5, 17.5),
                       ("test", 3, None), ("test", 5, None), "encoders", ("test", 5, None),
                       ("test", 5, None)],
}


def eval_dataset():
    # 600 test samples make two chunks: 512 and 88
    return toy_dataset(samples=(64, 24, 600))


def trained_eval_state(mode, ds):
    state, _ = protocol.train(toy_config(rounds=3, **EVAL_MODES[mode]), ds)
    return state


def restored(state):
    """A fresh state with ``state``'s config, dataset and parameters."""
    fresh = protocol.init_state(state.config, state.dataset)
    protocol.load_state_parameters(fresh, protocol.state_parameters(state))
    return fresh


def count_eval_work(monkeypatch):
    """Patch the population's draw and encode steps to count their calls:
    ``eval_stream`` counts ``protocol.stream`` calls in the evaluation domain
    only. Returns the live Counter."""
    calls = Counter()

    def counted_stream(seed, domain, *key, _fn=protocol.stream):
        calls["eval_stream"] += domain == protocol._DOM_EVAL
        return _fn(seed, domain, *key)

    monkeypatch.setattr(protocol, "stream", counted_stream)
    for module, name in ((channel, "sample_channel"), (data, "crop_batch"), (edge, "encode")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def live_populations():
    """The number of ``EvalPopulation`` objects alive in the process."""
    gc.collect()
    return sum(isinstance(o, protocol.EvalPopulation) for o in gc.get_objects())


def pool_bytes(pools):
    return sum(pooled.nbytes for pooled, _ in pools.values())


class TestEvaluatePopulation:
    @pytest.fixture(scope="class")
    def eval_states(self):
        ds = eval_dataset()
        return {mode: trained_eval_state(mode, ds) for mode in EVAL_MODES}

    @pytest.mark.parametrize("order", sorted(EVAL_ORDERS))
    @pytest.mark.parametrize("mode", sorted(EVAL_MODES))
    def test_matches_per_cell_reference(self, eval_states, mode, order, monkeypatch):
        """Every cell, in every call order, gives the reference's accuracy and
        loss, and every node row the cloud pools equals the reference's row
        for that node, byte for byte (so the noiseless cells match to the
        sign of zero): the rows pooled into a held sum across calls, first
        node to last, are the reference's received rows of the cell that
        reads the sum. After a change of the cloud alone, or of the
        encoders alone, every held sum is pooled again from the first node."""
        state = copy.deepcopy(eval_states[mode])
        infer = cloud.cloud_infer
        seen = []  # per cloud pass: the held sum's address and node count
        pooled_rows = {}  # a held sum's address -> the node rows pooled into it, in order

        def spy(model, received, active=None, keep_cache=True, held=None):
            if held is None:  # the reference's own cloud passes
                return infer(model, received, active, keep_cache)
            address, first = held[0].ctypes.data, held[1]
            if first == 0:
                pooled_rows[address] = []
            assert len(pooled_rows[address]) == first
            pooled_rows[address].extend(received)
            seen.append((address, first))
            return infer(model, received, active, keep_cache, held)

        monkeypatch.setattr(cloud, "cloud_infer", spy)
        repool = False
        for cell in EVAL_ORDERS[order]:
            if cell in ("cloud", "encoders"):
                # a shift, not a scale: the encoders' power projection undoes a scale
                changed = state.cloud_model if cell == "cloud" else state.encoders
                changed.set_params({k: p + 0.05 for k, p in changed.params.items()})
                repool = True
                continue
            split, n_test, snr = cell
            seen.clear()
            got = protocol.evaluate(state, split, n_test=n_test, snr_db=snr)
            want_rows = []
            want = reference_evaluate(state, split, n_test, snr, rows=want_rows)
            assert bits(got) == bits(want), cell
            assert len(seen) == len(want_rows) == (2 if split == "test" else 1)
            for (address, first), w in zip(seen, want_rows):
                assert np.stack(pooled_rows[address]).tobytes() == w.tobytes(), cell
                assert first == 0 or not repool, cell
            repool = False

    @pytest.mark.parametrize("mode", sorted(EVAL_MODES))
    def test_first_nodes_are_the_smaller_population(self, eval_states, mode):
        """After ``evaluate(5)``, the held draws and rows of the first n < 5
        nodes equal those a fresh ``evaluate(n)`` holds, byte for byte."""
        large = restored(eval_states[mode])
        protocol.evaluate(large, "test", n_test=5)
        held = large.eval_population
        for n in range(1, 5):
            small = restored(eval_states[mode])
            protocol.evaluate(small, "test", n_test=n)
            fresh = small.eval_population
            assert fresh.labels.tobytes() == held.labels.tobytes()
            for name in ("magnitude", "unit", "offsets", "rows"):
                got, want = getattr(fresh, name), getattr(held, name)[:n]
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (n, name)

    def _changes(self, ds):
        """Changes by name, each returning the state to evaluate next."""
        other = protocol.init_state(toy_config(rounds=3, master_seed=5,
                                               encoder_sharing=True), ds)
        protocol.run_training_round(other, 1)

        def round_step(state):
            protocol.run_training_round(state, state.round_index + 1)
            return state

        def load(state):
            protocol.load_state_parameters(state, protocol.state_parameters(other))
            return state

        def set_params(state):
            state.encoders.set_params({k: p * 0.5 for k, p in state.encoders.params.items()})
            return state

        def deep_copy_set_params(state):
            return set_params(copy.deepcopy(state))

        def reseed(state):
            state.config.master_seed += 1
            return state

        def pathloss(state):
            state.config.pathloss = True
            return state

        def pathloss_alpha(state):
            pathloss(state)
            protocol.evaluate(state, "val", n_test=4)
            state.config.pathloss_alpha = 2.0
            return state

        # another set at the same version (0) as the state's own
        def swap_encoders(state):
            state.encoders = protocol.init_encoders(other.config)
            return state

        def swap_dataset(state):
            state.dataset = toy_dataset(seed=8)
            return state

        return {"round": round_step, "load": load, "set_params": set_params,
                "deepcopy": copy.deepcopy, "deepcopy_set_params": deep_copy_set_params,
                "master_seed": reseed, "pathloss": pathloss, "pathloss_alpha": pathloss_alpha,
                "encoder_set": swap_encoders, "dataset": swap_dataset}

    @pytest.mark.parametrize("change", ["round", "load", "set_params", "deepcopy",
                                        "deepcopy_set_params", "master_seed", "pathloss",
                                        "pathloss_alpha", "encoder_set", "dataset"])
    def test_parameter_change_draws_again(self, change, monkeypatch):
        """After each change, every cell equals a freshly restored state's
        result bit for bit, and the state holds one population only. A
        parameter or encoder set change re-encodes the held draws; a change
        the draws read draws again, one stream per node; a deep copy holds
        no population, so it draws and encodes its own."""
        ds = toy_dataset()
        n_test = 4
        state = protocol.init_state(toy_config(rounds=3, encoder_sharing=True), ds)
        before = [bits(protocol.evaluate(state, "val", n_test=n_test, snr_db=snr))
                  for snr in EVAL_SNR]
        changed = self._changes(ds)[change](state)
        # the changed state's own cells, counted before a reference state
        # evaluates and so takes the process's one population away
        calls = count_eval_work(monkeypatch)
        got = [bits(protocol.evaluate(changed, "val", n_test=n_test, snr_db=snr))
               for snr in EVAL_SNR]
        own = (calls["eval_stream"], calls["encode"])
        held = [v for v in vars(changed).values() if isinstance(v, protocol.EvalPopulation)]
        assert held == [changed.eval_population]
        rebuilt = {"round": "encode", "load": "encode", "set_params": "encode",
                   "deepcopy": "draw", "deepcopy_set_params": "draw",
                   "master_seed": "draw", "pathloss": "draw", "pathloss_alpha": "draw",
                   "encoder_set": "encode", "dataset": "draw"}[change]
        assert own == {"draw": (n_test, 1), "encode": (0, 1)}[rebuilt]
        assert got == [bits(protocol.evaluate(restored(changed), "val", n_test=n_test,
                                              snr_db=snr)) for snr in EVAL_SNR]
        if changed is not state:  # the original draws again, with the same bits
            assert [bits(protocol.evaluate(state, "val", n_test=n_test, snr_db=snr))
                    for snr in EVAL_SNR] == before

    def test_one_draw_and_encode_for_an_snr_sweep(self, monkeypatch):
        """Nine SNRs at one (split, n_test) draw each of the six nodes once
        and crop and encode once; the cloud runs once per SNR."""
        state = protocol.init_state(toy_config(encoder_sharing=True), toy_dataset())
        calls = {}
        for module, name in ((edge, "encode"), (data, "crop_batch"),
                             (channel, "sample_channel"), (cloud, "cloud_infer")):
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        for snr in (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0):
            protocol.evaluate(state, "val", n_test=6, snr_db=snr)
        assert calls == {"encode": 1, "crop_batch": 1, "sample_channel": 6, "cloud_infer": 9}

    def test_one_draw_across_training_steps(self, monkeypatch):
        """Validation between training rounds draws each of its four nodes
        once and crops and encodes them again after each step."""
        k = 5
        state = protocol.init_state(toy_config(rounds=k, encoder_sharing=True), toy_dataset())
        calls = count_eval_work(monkeypatch)
        from_evaluate = Counter()
        for r in range(1, k + 1):
            protocol.run_training_round(state, r)
            before = calls.copy()
            protocol.evaluate(state, "val", n_test=4)
            from_evaluate += calls - before
        assert from_evaluate == {"eval_stream": 4, "sample_channel": 4,
                                 "crop_batch": k, "encode": k}

    def test_train_draws_one_validation_population(self, monkeypatch):
        """Three validations at n_train = 3 draw each node's stream once."""
        calls = count_eval_work(monkeypatch)
        cfg = toy_config(rounds=30, val_cadence=10, encoder_sharing=True)
        _, records = protocol.train(cfg, toy_dataset())
        assert sum(r.val_accuracy is not None for r in records) == 3
        assert calls["eval_stream"] == cfg.n_train == 3

    def test_two_population_sweeps_draw_each_node_once(self, monkeypatch):
        """Two passes of n_test 1 to 12 at three SNRs build 12 node streams:
        the first pass draws, crops and encodes one new node per population,
        and the second draws, crops and encodes nothing."""
        state = protocol.init_state(toy_config(encoder_sharing=True), toy_dataset())
        calls = count_eval_work(monkeypatch)
        passes = []
        for _ in range(2):
            before = calls.copy()
            for n_test in range(1, 13):
                for snr in (None, 0.0, 20.0):
                    protocol.evaluate(state, "val", n_test=n_test, snr_db=snr)
            passes.append(calls - before)
        assert passes == [{"eval_stream": 12, "sample_channel": 12, "crop_batch": 12,
                           "encode": 12}, Counter()]

    def test_held_population_size(self):
        """A population of 12 nodes on 768 test samples holds no complex
        array and no crops, and its arrays total at most the 3.11 MB README
        states: H s and the unit noise 1.18 MB each, |h| 0.59 MB, the
        offsets 0.15 MB."""
        ds = toy_dataset(samples=(64, 24, 768))
        state = protocol.init_state(toy_config(message_dim=16, encoder_sharing=True), ds)
        protocol.evaluate(state, "test", n_test=12)
        population = state.eval_population
        arrays = [population.labels, population.magnitude, population.unit,
                  population.offsets, population.rows]
        assert not any(np.iscomplexobj(a) for a in arrays)
        assert not any(a.shape[-1] == ds.obs_dim for a in arrays)
        assert sum(a.nbytes for a in arrays) <= 3.11e6

    def test_one_pass_pools_each_node_once_per_level(self, monkeypatch):
        """Two passes of n_test 1 to 12 at three SNRs pool 12 nodes per level
        each, not 1 + 2 + ... + 12 = 78: a cell adds its new nodes onto the
        sum held for its noise level, and a pass that starts below the held
        count pools again from the first node. A repeated cell pools no node."""
        state = protocol.init_state(toy_config(encoder_sharing=True), toy_dataset())
        pooled = []

        def counted(model, received, *args, _fn=cloud.cloud_infer, **kwargs):
            pooled.append(len(received))
            return _fn(model, received, *args, **kwargs)

        monkeypatch.setattr(cloud, "cloud_infer", counted)
        passes = []
        for _ in range(2):
            pooled.clear()
            for n_test in range(1, 13):
                for snr in (None, 0.0, 20.0):
                    protocol.evaluate(state, "val", n_test=n_test, snr_db=snr)
            passes.append(sum(pooled))
        assert passes == [12 * 3, 12 * 3]
        pooled.clear()
        again = protocol.evaluate(state, "val", n_test=12, snr_db=20.0)
        assert pooled == [0]
        assert bits(again) == bits(reference_evaluate(state, "val", 12, 20.0))

    @pytest.mark.parametrize("architecture, n_tests", [
        (cloud.SUM_AGG, (1, 2, 3)), (cloud.CATNET, (3,)), (cloud.MHNET, (1, 2, 3))])
    def test_baselines_pool_every_node(self, architecture, n_tests, monkeypatch):
        """The baselines pool nothing: every cell hands the cloud all n_test
        nodes, however often the cell repeats."""
        cfg = toy_config(architecture=architecture, n_classes=4,
                         message_dim=4 if architecture == cloud.SUM_AGG else 8)
        state = protocol.init_state(cfg, toy_dataset(classes=4))
        pooled = []

        def counted(model, received, *args, _fn=cloud.baseline_infer, **kwargs):
            pooled.append(len(received))
            return _fn(model, received, *args, **kwargs)

        monkeypatch.setattr(cloud, "baseline_infer", counted)
        cells = [(n, snr) for _ in range(2) for n in n_tests for snr in (None, 20.0)]
        for n_test, snr in cells:
            protocol.evaluate(state, "val", n_test=n_test, snr_db=snr)
        assert pooled == [n for n, _ in cells]
        assert state.eval_population.pools == {}

    def test_one_population_per_process(self):
        """The process holds one population, on the state that evaluated
        last: after A and then B evaluate, A holds none, and a deep copy
        holds none. No free changes a result."""
        ds = toy_dataset()
        a, b = (protocol.init_state(toy_config(rounds=3, encoder_sharing=True, master_seed=s), ds)
                for s in (1, 2))
        first = bits(protocol.evaluate(a, "val", n_test=4, snr_db=10.0))
        assert a.eval_population.pools and live_populations() == 1
        protocol.evaluate(b, "val", n_test=4)
        assert a.eval_population is None and b.eval_population is not None
        assert live_populations() == 1
        copied = copy.deepcopy(b)
        assert copied.eval_population is None and live_populations() == 1
        assert bits(protocol.evaluate(a, "val", n_test=4, snr_db=10.0)) == first
        assert b.eval_population is None and live_populations() == 1

    def test_evaluating_another_state_frees_the_population(self, monkeypatch):
        """Evaluating state B frees A's population; A draws and encodes
        again on its next call, with the same bits."""
        ds = toy_dataset()
        a, b = (protocol.init_state(toy_config(rounds=3, encoder_sharing=True, master_seed=s), ds)
                for s in (1, 2))
        first = bits(protocol.evaluate(a, "val", n_test=4, snr_db=10.0))
        protocol.evaluate(b, "val", n_test=4)
        assert a.eval_population is None
        calls = count_eval_work(monkeypatch)
        assert bits(protocol.evaluate(a, "val", n_test=4, snr_db=10.0)) == first
        assert (calls["eval_stream"], calls["encode"]) == (4, 1)
        assert b.eval_population is None

    def test_a_round_frees_rows_and_pools_but_keeps_the_draws(self):
        """A training round on any state frees the held population's rows
        and pools; its draws stay, the same arrays."""
        ds = toy_dataset()
        state, other = (protocol.init_state(
            toy_config(rounds=3, encoder_sharing=True, master_seed=s), ds) for s in (1, 2))
        draws = ("labels", "magnitude", "unit", "offsets")
        for trained in (other, state):
            protocol.evaluate(state, "val", n_test=4, snr_db=10.0)
            population = state.eval_population
            held = [getattr(population, name) for name in draws]
            assert len(population.rows) == 4 and population.pools
            protocol.run_training_round(trained, trained.round_index + 1)
            assert state.eval_population is population
            assert len(population.rows) == 0 and population.pools == {}
            assert all(getattr(population, name) is a for name, a in zip(draws, held))

    def test_a_dropped_state_leaves_no_population(self):
        """The population lives on its state: once the state is gone, no
        population is left in the process."""
        state = protocol.init_state(toy_config(encoder_sharing=True), toy_dataset())
        protocol.evaluate(state, "val", n_test=4, snr_db=10.0)
        assert live_populations() == 1
        del state
        assert live_populations() == 0

    def test_pools_stay_under_their_cap(self, monkeypatch):
        """A sweep over 40 noise levels never holds more than ``_POOL_CAP``
        bytes: each new level evicts the least recently used one once the
        pools are full. The most recent level is still held; the first was
        evicted and pools again from the first node."""
        ds = toy_dataset(samples=(64, 24, 768))
        state = protocol.init_state(toy_config(message_dim=16, n_branches=3, cloud_hidden=32,
                                               encoder_sharing=True), ds)
        entry = 768 * 96 * 8
        levels = [float(snr) for snr in range(40)]
        for i, snr in enumerate(levels):
            protocol.evaluate(state, "test", n_test=2, snr_db=snr)
            pools = state.eval_population.pools
            assert pool_bytes(pools) <= protocol._POOL_CAP
            assert len(pools) == min(i + 1, protocol._POOL_CAP // entry)
        want = [bits(reference_evaluate(state, "test", 2, snr)) for snr in (levels[-1], levels[0])]
        held = []

        def counted(model, received, *args, _fn=cloud.cloud_infer, **kwargs):
            held.append(kwargs["held"][1])
            return _fn(model, received, *args, **kwargs)

        monkeypatch.setattr(cloud, "cloud_infer", counted)
        assert [bits(protocol.evaluate(state, "test", n_test=2, snr_db=snr))
                for snr in (levels[-1], levels[0])] == want
        assert held == [2, 2, 0, 0]  # two chunks per cell
        assert pool_bytes(state.eval_population.pools) <= protocol._POOL_CAP

    def test_held_pools_size(self):
        """The benchmark grid's 9 noise levels at 12 nodes on 768 test samples,
        with M*H = 96, hold 9 float (768, 96) sums: 5.31 MB."""
        ds = toy_dataset(samples=(64, 24, 768))
        state = protocol.init_state(toy_config(message_dim=16, n_branches=3, cloud_hidden=32,
                                               encoder_sharing=True), ds)
        for n_test in range(1, 13):
            for snr in range(0, 41, 5):
                protocol.evaluate(state, "test", n_test=n_test, snr_db=float(snr))
        pools = state.eval_population.pools
        assert [(pooled.shape, k) for pooled, k in pools.values()] == [((768, 96), 12)] * 9
        assert pool_bytes(pools) <= 5.31e6

    @pytest.mark.parametrize("kwargs, name", [
        (dict(snr_db=math.nan), "snr_db"),
        (dict(snr_db=math.inf), "snr_db"),
        (dict(snr_db=True), "snr_db"),
        (dict(snr_db=-4000.0), "snr_db"),
        (dict(n_test=-1), "n_test"),
        (dict(n_test=2.5), "n_test"),
        (dict(n_test=0), "n_test"),
        (dict(n_test=True), "n_test"),
        (dict(split="train2"), "split"),
        (dict(n_test=4), "sharing"),
    ])
    @pytest.mark.filterwarnings("error")
    def test_bad_arguments_fail_before_any_draw(self, kwargs, name, monkeypatch):
        """A bad argument is a ValueError naming it, raised before any draw or
        population lookup and without a warning; the held population stays.
        A bool is no SNR, an SNR whose noise variance overflows is rejected,
        and three dedicated encoders serve at most three nodes."""
        state = protocol.init_state(toy_config(), toy_dataset())
        protocol.evaluate(state, "val", n_test=2)
        population = state.eval_population

        def no_draw(*args, **kwargs):
            raise AssertionError("evaluate drew before checking its arguments")

        monkeypatch.setattr(protocol, "stream", no_draw)
        monkeypatch.setattr(protocol, "_eval_population", no_draw)
        with pytest.raises(ValueError, match=name):
            protocol.evaluate(state, **dict(dict(split="val", n_test=2), **kwargs))
        assert state.eval_population is population

    @pytest.mark.parametrize("overrides, n_test, message", [
        (dict(architecture=cloud.CATNET), 2, "catnet was built for 3 nodes, got 2"),
        (dict(architecture=cloud.MHNET, encoder_sharing=True), 6,
         "mhnet has 3 heads, got 6 nodes"),
    ], ids=["catnet", "mhnet-shared"])
    def test_cloud_population_rule_fails_before_any_draw(self, overrides, n_test, message,
                                                         monkeypatch):
        """A population the cloud cannot pool is a ValueError naming both
        counts, raised before any draw or encode; the held population stays."""
        state = protocol.init_state(toy_config(**overrides), toy_dataset())
        protocol.evaluate(state, "val", n_test=3)
        population = state.eval_population

        def no_draw(*args, **kwargs):
            raise AssertionError("evaluate drew before checking the cloud's population")

        monkeypatch.setattr(protocol, "stream", no_draw)
        monkeypatch.setattr(protocol, "_eval_population", no_draw)
        monkeypatch.setattr(edge, "encode", no_draw)
        with pytest.raises(ValueError, match=message):
            protocol.evaluate(state, "val", n_test=n_test)
        assert state.eval_population is population

    def test_numpy_integer_population(self):
        state = protocol.init_state(toy_config(encoder_sharing=True), toy_dataset())
        assert bits(protocol.evaluate(state, "val", n_test=np.int64(4), snr_db=np.float64(3))) \
            == bits(reference_evaluate(state, "val", 4, 3.0))


def keep_cache_spy(monkeypatch):
    """Patch the two cloud passes and ``nn.forward`` to record, per call, the
    function's name and the ``keep_cache`` it ran with (default included)."""
    seen = []
    for module, name in ((cloud, "cloud_infer"), (cloud, "baseline_infer"), (nn, "forward")):
        fn = getattr(module, name)

        def spy(*args, _fn=fn, _sig=inspect.signature(fn), _name=name, **kwargs):
            bound = _sig.bind(*args, **kwargs)
            bound.apply_defaults()
            seen.append((_name, bound.arguments["keep_cache"]))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return seen


class TestInferenceKeepsNoCache:
    @pytest.mark.parametrize("architecture", ["proposed", cloud.CATNET, cloud.MHNET,
                                              cloud.SUM_AGG])
    def test_only_training_keeps_a_cache(self, architecture, monkeypatch):
        """``evaluate`` and ``run_inference`` run the cloud and every
        ``nn.forward`` with ``keep_cache=False``; a training round keeps its caches."""
        classes = 4 if architecture == cloud.SUM_AGG else 3
        cfg = toy_config(architecture=architecture, n_classes=classes,
                         message_dim=4 if architecture == cloud.SUM_AGG else 8)
        state = protocol.init_state(cfg, toy_dataset(classes=classes))
        seen = keep_cache_spy(monkeypatch)
        protocol.evaluate(state, "val", snr_db=10.0)
        rng = np.random.default_rng(11)
        h = channel.sample_channel(rng, cfg.n_blocks, shape=(3, 5))
        protocol.run_inference(state.encoders, state.cloud_model, h, 0.1,
                               rng.normal(size=(3, 5, 36)), rng)
        cloud_pass = "cloud_infer" if architecture == "proposed" else "baseline_infer"
        assert {name for name, _ in seen} == {cloud_pass, "forward"}
        assert all(keep is False for _, keep in seen), seen
        seen.clear()
        protocol.run_training_round(state, 1)
        assert (cloud_pass, True) in seen and ("forward", True) in seen


class TestBaselineTraining:
    def test_catnet_trains_synchronously(self):
        cfg = toy_config(architecture="catnet", rounds=3)
        state, records = protocol.train(cfg, toy_dataset())
        assert len(records) == 3
        assert np.isfinite(records[-1].train_loss)

    def test_catnet_rejects_async(self):
        with pytest.raises(ValueError, match="async"):
            toy_config(architecture="catnet", async_coordination=True).validate()

    @pytest.mark.parametrize("architecture", ["catnet", "mhnet"])
    def test_width_matched_to_the_proposed_clouds_size(self, architecture):
        """Without ``baseline_hidden`` a baseline gets the width matched to the
        buffer size of the proposed cloud the same config builds."""
        cfg = toy_config(architecture=architecture)
        size = protocol.build_cloud(dataclasses.replace(cfg, architecture="proposed")).buffer.size
        assert protocol.proposed_param_count(cfg) == size
        width = cloud.matched_hidden_width(architecture, cfg.message_dim, cfg.n_classes,
                                           cfg.n_train, size)
        model = protocol.build_cloud(cfg)
        assert model.layers[0].out_dim == width
        assert np.array_equal(model.buffer, protocol.build_cloud(
            dataclasses.replace(cfg, baseline_hidden=width)).buffer)

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
               dict(architecture="resnet"), dict(optimizer="rmsprop"),
               dict(drop_probability=1.5), dict(p_e=0.0), dict(p_c=0.0)]
        for overrides in bad:
            with pytest.raises(ValueError):
                toy_config(**overrides).validate()
        # non-finite numbers, in a scalar or in a pair, name their field
        nonfinite = [dict(eta=math.nan), dict(p_e=math.nan), dict(snr_up_db=(math.nan, 1.0)),
                     dict(eval_snr_db=math.inf), dict(pathloss_alpha=math.nan)]
        for overrides in nonfinite:
            with pytest.raises(ValueError, match=f"{next(iter(overrides))} must be finite"):
                toy_config(**overrides).validate()

    @pytest.mark.parametrize("overrides, message", [
        (dict(n_train=0), "at least one edge node"),
        (dict(rounds=-1), "rounds must be nonnegative"),
        (dict(pathloss=True, pathloss_d=(10.0, 1.0)), "positive and ordered"),
        (dict(pathloss=True, pathloss_d=(0.0, 1.0)), "positive and ordered"),
    ], ids=["no-node", "negative-rounds", "reversed-distances", "zero-distance"])
    def test_each_rule_names_itself(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            toy_config(**overrides).validate()

    def test_sum_agg_dimension_rule(self):
        with pytest.raises(ValueError, match="sum aggregation"):
            toy_config(architecture="sum_agg", message_dim=8).validate()

    @pytest.mark.parametrize("distances, alpha", [((1e200, 1e200), 2.7), ((1.0, 1e150), 2.7),
                                                  ((1e-200, 1.0), 2.7), ((1.0, 10.0), 400.0)],
                             ids=["far-range", "far-end", "near-end", "steep-exponent"])
    def test_pathloss_variance_must_be_positive_and_finite(self, distances, alpha):
        """d**(-pathloss_alpha) that underflows to 0 or overflows at either end
        of the distance range is rejected; it is monotone in d, so the ends
        cover the range."""
        cfg = toy_config(pathloss=True, pathloss_d=distances, pathloss_alpha=alpha)
        with pytest.raises(ValueError, match="pathloss_d"):
            cfg.validate()
        toy_config(pathloss=False, pathloss_d=distances, pathloss_alpha=alpha).validate()
        toy_config(pathloss=True, pathloss_d=(1.0, 1e100), pathloss_alpha=2.7).validate()
