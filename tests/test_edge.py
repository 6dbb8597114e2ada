"""Edge node encoding, the per-node gradient, and the step the round takes from it."""

import copy
from types import SimpleNamespace

import numpy as np
import pytest

from fronthaul import edge, nn, oracles, protocol


def make_set(obs_dim=6, message_dim=4, hidden=(8,), mode=nn.PER_RB, p_e=1.0,
              seeds=(3,), cqie=False, shared=False):
    """An encoder set with one encoder per seed (one shared encoder with ``shared``)."""
    layers = edge.encoder_layers(obs_dim, message_dim, hidden, p_e, mode, cqie=cqie)
    return edge.EncoderSet(layers, list(seeds), cqie, shared=shared)


def lone_stack(encoders, node):
    """A 2-D stack holding a copy of the parameters node ``node`` encodes
    with, the one slice of a set of its own."""
    stack_set = nn.StackSet(encoders.layers, [0])
    stack_set.set_params({k: v[None] for k, v in encoders.node_encoder(node).params.items()})
    return stack_set.slice_view(0)


def stepped(encoders, observations, rows, active=None, optimizer="sgd", eta=0.1):
    """Each node's parameters after the round's edge step, on a copy of ``encoders``.

    Node i encodes ``observations[i]`` and receives ``rows[i]``; ``active``
    is the (batch, nodes) mask, all true by default.
    """
    encoders = copy.deepcopy(encoders)
    _, cache = edge.encode(encoders, np.asarray(observations))
    batch, nodes = len(rows[0]), len(rows)
    state = SimpleNamespace(encoders=encoders,
                            edge_optimizer=nn.make_optimizer(optimizer, eta))
    env = SimpleNamespace(active=np.ones((batch, nodes), bool) if active is None
                          else np.asarray(active, bool))
    protocol._edge_backprop_phase(state, env, cache, np.asarray(rows))
    return [encoders.node_encoder(i).params for i in range(nodes)]


class TestEncode:
    def test_zero_weight_encoder_ignores_input(self):
        enc = make_set()
        enc.set_params({k: np.zeros_like(v) for k, v in enc.params.items()})
        rng = np.random.default_rng(0)
        s1, _ = edge.encode(enc, rng.normal(size=(1, 1, 6)))
        s2, _ = edge.encode(enc, rng.normal(size=(1, 1, 6)))
        assert np.array_equal(s1, s2)
        assert np.array_equal(s1, np.zeros((1, 1, 4)))  # projection of the zero bias

    @pytest.mark.parametrize("mode", [nn.PER_RB, nn.SUM])
    def test_power_constraint_always_holds(self, mode):
        rng = np.random.default_rng(1)
        for trial in range(50):
            enc = make_set(mode=mode, seeds=(trial,), p_e=0.8)
            [s], _ = edge.encode(enc, rng.normal(size=(1, 20, 6)) * 5)
            if mode == nn.PER_RB:
                power = s[:, :2] ** 2 + s[:, 2:] ** 2
                assert np.all(power <= 0.8 + 1e-12)
            else:
                assert np.all(np.sum(s * s, axis=1) <= 0.8 + 1e-12)

    def test_deterministic(self):
        enc = make_set()
        a = np.random.default_rng(2).normal(size=(1, 1, 6))
        s1, _ = edge.encode(enc, a)
        s2, _ = edge.encode(enc, a)
        assert np.array_equal(s1, s2)

    def test_cqi_mode_mismatch_rejected(self):
        plain = make_set()
        with pytest.raises(ValueError, match="side input"):
            edge.encode(plain, np.zeros((1, 1, 6)), cqi=np.zeros((1, 1, 2)))
        aware = make_set(cqie=True)
        with pytest.raises(ValueError, match="side input"):
            edge.encode(aware, np.zeros((1, 1, 6)))
        s, _ = edge.encode(aware, np.zeros((1, 1, 6)), cqi=np.ones((1, 1, 2)))
        assert s.shape == (1, 1, 4)

    def test_cqi_side_input_transform(self):
        mag = np.array([1.0, 0.01])
        assert np.array_equal(edge.cqi_side_input(mag, pathloss=False), mag)
        assert np.allclose(edge.cqi_side_input(mag, pathloss=True), [0.0, -2.0])

    def test_encoder_must_end_with_projection(self):
        with pytest.raises(ValueError, match="projection"):
            edge.EncoderSet([nn.Dense(6, 4)], [0])

    def test_constructor_checks_length_and_sharing(self):
        """The set rejects an odd output length and a shared set of more
        than one encoder."""
        with pytest.raises(ValueError, match="even"):
            edge.EncoderSet([nn.Dense(6, 3), nn.Projection(1.0)], [0])
        with pytest.raises(ValueError, match="shared"):
            edge.EncoderSet(edge.encoder_layers(6, 4, (8,), 1.0, nn.PER_RB), [3, 3],
                            shared=True)

    def test_slices_start_from_each_nodes_seed(self):
        """Slice i of the stacked set holds, bit for bit, the parameters its
        seed draws; a shared set holds its one encoder with a leading axis of 1."""
        enc = make_set(seeds=(3, 8, 5))
        for i, seed in enumerate((3, 8, 5)):
            want = nn.init_params(edge.encoder_layers(6, 4, (8,), 1.0, nn.PER_RB), seed)
            for name, p in want.items():
                assert np.array_equal(enc.params[name][i], p)
        shared = make_set(shared=True)
        assert list(shared.params) == ["dense0.w", "dense0.b", "dense2.w", "dense2.b"]
        assert all(p.shape[0] == 1 for p in shared.params.values())

    def test_dedicated_encoders_cap_the_population(self):
        """Dedicated encoders serve as many nodes as there are encoders, node
        indices counted from ``first_node``; one shared encoder serves any
        number, each node with the same map."""
        dedicated = make_set(seeds=(3, 4))
        with pytest.raises(ValueError, match="sharing"):
            edge.encode(dedicated, np.zeros((3, 1, 6)))
        with pytest.raises(ValueError, match="sharing"):
            edge.encode(dedicated, np.zeros((1, 1, 6)), first_node=2)
        a = np.random.default_rng(4).normal(size=(1, 2, 6))
        shared = make_set(shared=True)
        s, _ = edge.encode(shared, np.repeat(a, 5, axis=0))
        assert s.shape == (5, 2, 4)
        assert all(np.array_equal(row, s[0]) for row in s)


class TestStackedEncode:
    @pytest.mark.parametrize("kind", ["shared", "dedicated", "cqie"])
    @pytest.mark.parametrize("batch", [1, 9, 300])
    def test_equals_per_node_calls(self, kind, batch):
        """encode and batch_gradient give, byte for byte, nn.forward and
        nn.backward on each node's own encoder: a shared set serving more
        nodes than it has slices, and dedicated sets serving fewer. Encoding
        nodes 1 onward alone gives their rows of the whole call."""
        rng = np.random.default_rng(batch)
        enc = make_set(seeds=(5,) if kind == "shared" else (3, 4, 5, 6),
                       shared=kind == "shared", cqie=kind == "cqie")
        enc.set_params({k: p + rng.normal(size=p.shape) if k.endswith(".b") else p
                        for k, p in enc.params.items()})
        n = 3
        a = rng.normal(size=(n, batch, 6)) * 2.0
        cqi = rng.uniform(size=(n, batch, 2)) if enc.cqie else None
        d = rng.normal(size=(n, batch, 4))
        messages, cache = edge.encode(enc, a, cqi)
        grads = edge.batch_gradient(enc, cache, d)
        later, _ = edge.encode(enc, a[1:], None if cqi is None else cqi[1:], first_node=1)
        assert later.tobytes() == messages[1:].tobytes()
        for i in range(n):
            x = a[i] if cqi is None else np.concatenate([a[i], cqi[i]], axis=-1)
            want, own = nn.forward(enc.node_encoder(i), x)
            assert messages[i].tobytes() == want.tobytes()
            want_grads = nn.backward(own.stack, own, d[i], input_grad=False).param_grads
            for k, g in want_grads.items():
                assert grads[k].shape == (n, *g.shape)
                assert grads[k][i].tobytes() == g.tobytes(), k

    def test_foreign_stale_and_mismatched_caches_rejected(self):
        enc = make_set(seeds=(3, 4))
        _, cache = edge.encode(enc, np.zeros((2, 3, 6)))
        with pytest.raises(ValueError, match=r"upstream shape \(1, 3, 4\) != output shape \(2, 3, 4\)"):
            edge.batch_gradient(enc, cache, np.zeros((1, 3, 4)))
        with pytest.raises(ValueError, match="different parameter set"):
            edge.batch_gradient(make_set(seeds=(3, 4)), cache, np.zeros((2, 3, 4)))
        enc.set_params(enc.params)
        with pytest.raises(ValueError, match="stale"):
            edge.batch_gradient(enc, cache, np.zeros((2, 3, 4)))

    @pytest.mark.parametrize("shared", [False, True])
    def test_backward_rejects_a_stale_view_cache(self, shared):
        """The cache's own view names the encoder set, so ``nn.backward``
        on it checks the set's current version, not one frozen with the view."""
        enc = make_set(seeds=(3,) if shared else (3, 4), shared=shared)
        _, cache = edge.encode(enc, np.zeros((2, 3, 6)))
        enc.set_params(enc.params)
        with pytest.raises(ValueError, match="stale"):
            nn.backward(cache.stack, cache, np.zeros((2, 3, 4)), input_grad=False)


class TestLocalUpdateExact:
    def test_zero_gradient_rows_leave_params(self):
        enc = make_set()
        a = np.random.default_rng(3).normal(size=(5, 6))
        [new] = stepped(enc, [a], [np.zeros((5, 4))], eta=0.7)
        for k, v in enc.node_encoder(0).params.items():
            assert np.array_equal(new[k], v)

    def test_single_sample_is_backward_plus_step(self):
        enc = make_set()
        stack = lone_stack(enc, 0)
        rng = np.random.default_rng(4)
        a = rng.normal(size=6)
        d = rng.normal(size=4)
        [new] = stepped(enc, [a[None, :]], [d[None, :]], eta=0.1)
        _, cache2 = nn.forward(stack, a[None, :])
        grads = nn.backward(stack, cache2, d[None, :])
        want = oracles.sgd_step(stack.params, grads.param_grads, 0.1)
        for k in want:
            assert np.allclose(new[k], want[k], atol=1e-15)

    def test_two_sample_average_by_hand(self):
        enc = make_set()
        stack = lone_stack(enc, 0)
        rng = np.random.default_rng(5)
        a = rng.normal(size=(2, 6))
        d = rng.normal(size=(2, 4))
        [new] = stepped(enc, [a], [d], eta=0.2)
        total = {k: np.zeros_like(v) for k, v in stack.params.items()}
        for b in range(2):
            _, c1 = nn.forward(stack, a[b:b + 1])
            g1 = nn.backward(stack, c1, d[b:b + 1]).param_grads
            for k in total:
                total[k] += g1[k]
        for k in total:
            want = stack.params[k] - (0.2 / 2) * total[k]
            assert np.allclose(new[k], want, atol=1e-14)

    def test_empty_batch_rejected(self):
        """The gradient takes exactly one row per cached sample, so an empty
        set of rows is rejected rather than read as a zero gradient."""
        enc = make_set()
        _, cache = edge.encode(enc, np.zeros((1, 1, 6)))
        with pytest.raises(ValueError, match="shape"):
            edge.batch_gradient(enc, cache, np.zeros((1, 0, 4)))


class TestLocalUpdateWireless:
    def test_noiseless_downlink_equals_exact(self):
        """With zero downlink noise the decoded rows are the exact rows
        H m, so the step from them is the exact step up to rounding."""
        rng = np.random.default_rng(6)
        batch, nodes = 3, 2
        env = SimpleNamespace(
            h=(rng.normal(size=(nodes, batch, 2)) + 1j * rng.normal(size=(nodes, batch, 2))),
            dn_noise=np.zeros((nodes, batch, 4)))
        messages = rng.normal(size=(nodes, batch, 4))
        rows = {}
        for mode in ("exact", "noiseless"):
            cfg = protocol.TrainingConfig(n_train=nodes, message_dim=4, downlink=mode)
            rows[mode] = protocol._downlink_phase(cfg, env, messages)
        for i in range(nodes):
            mag = np.abs(env.h[i])
            assert np.array_equal(rows["exact"][i], np.concatenate([mag, mag], 1) * messages[i])
            np.testing.assert_allclose(rows["noiseless"][i], rows["exact"][i], rtol=1e-12)
        enc = make_set(seeds=(3,) * nodes)
        a = [rng.normal(size=(batch, 6))] * nodes
        exact = stepped(enc, a, rows["exact"], eta=0.3)
        noiseless = stepped(enc, a, rows["noiseless"], eta=0.3)
        for got, want in zip(noiseless, exact):
            for k in want:
                np.testing.assert_allclose(got[k], want[k], rtol=1e-12, atol=1e-15)

    def test_update_term_unbiased_over_noise(self):
        """The mean wireless update over many downlink noise draws matches the
        noiseless update componentwise within four standard errors."""
        enc = make_set(obs_dim=4, message_dim=4, hidden=(6,))
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 4))
        d = rng.normal(size=(4, 4))
        [base] = stepped(enc, [a], [d], eta=1.0)
        draws = 3000
        sigma_e = 0.3
        terms = {k: np.zeros((draws,) + v.shape) for k, v in base.items()}
        for t in range(draws):
            y = d + sigma_e * rng.standard_normal(d.shape)
            [cand] = stepped(enc, [a], [y], eta=1.0)
            for k in terms:
                terms[k][t] = cand[k]
        for k in base:
            mean = terms[k].mean(axis=0)
            se = terms[k].std(axis=0) / np.sqrt(draws)
            assert np.all(np.abs(mean - base[k]) <= 4 * se + 1e-12)


class TestLocalUpdateAsync:
    def test_full_active_set_equals_wireless(self):
        """A node active on every sample steps on all of its rows, divided
        by the batch size."""
        enc = make_set()
        rng = np.random.default_rng(8)
        a = rng.normal(size=(4, 6))
        y = rng.normal(size=(4, 4))
        [full] = stepped(enc, [a], [y], active=np.ones((4, 1)), eta=0.1)
        _, cache = edge.encode(enc, a[None])
        want = oracles.sgd_step(enc.params, edge.batch_gradient(enc, cache, y[None]), 0.1 / 4)
        for k in full:
            assert np.array_equal(full[k], want[k][0])

    def test_empty_active_set_is_noop(self):
        """A node with no active sample keeps its parameters even though its
        delivered rows are nonzero; the other node still steps."""
        enc = make_set(seeds=(3, 3))
        a = np.random.default_rng(9).normal(size=(3, 6))
        active = np.array([[False, True]] * 3)
        out, other = stepped(enc, [a, a], [np.ones((3, 4))] * 2, active=active, eta=0.5)
        for k, v in enc.node_encoder(0).params.items():
            assert np.array_equal(out[k], v)
        assert not np.array_equal(other["dense0.w"], enc.node_encoder(1).params["dense0.w"])

    def test_single_active_sample_divides_by_one(self):
        enc = make_set()
        stack = lone_stack(enc, 0)
        rng = np.random.default_rng(9)
        a = rng.normal(size=(3, 6))
        y = rng.normal(size=(3, 4))
        mask = np.array([False, True, False])
        [got] = stepped(enc, [a], [y], active=mask[:, None], eta=0.2)
        _, c1 = nn.forward(stack, a[1:2])
        g1 = nn.backward(stack, c1, y[1:2]).param_grads
        want = oracles.sgd_step(stack.params, g1, 0.2)  # divisor 1, not 3
        for k in want:
            assert np.allclose(got[k], want[k], atol=1e-14)


class TestLocalUpdateShared:
    def test_zero_gradients_return_shared_point(self):
        enc = make_set(shared=True)
        enc.set_params({k: v + 1.0 for k, v in enc.params.items()})
        shared = enc.node_encoder(0).params
        a = np.zeros((2, 6))
        for out in stepped(enc, [a, a], [np.zeros((2, 4))] * 2, eta=0.4):
            for k in shared:
                assert np.array_equal(out[k], shared[k])

    def test_identical_nodes_produce_identical_candidates(self):
        """Two nodes with the same rows move the shared encoder exactly as
        one dedicated node would: the mean of equal gradients is that
        gradient (Adam, where the mean is exact)."""
        rng = np.random.default_rng(10)
        a = rng.normal(size=(3, 6))
        d = rng.normal(size=(3, 4))
        [alone] = stepped(make_set(seeds=(11,)), [a], [d], optimizer="adam")
        shared = make_set(seeds=(11,), shared=True)
        for out in stepped(shared, [a, a], [d, d], optimizer="adam"):
            for k in alone:
                assert np.array_equal(out[k], alone[k])

    def test_shared_set_holds_one_encoder(self):
        """A shared set holds exactly one encoder, so every sharing node
        encodes with the same parameters."""
        with pytest.raises(ValueError, match="exactly one encoder"):
            edge.EncoderSet(edge.encoder_layers(6, 4, (8,), 1.0, nn.PER_RB), [3, 3],
                            shared=True)
        shared = make_set(shared=True)
        for i in range(4):
            for k, p in shared.node_encoder(i).params.items():
                assert np.shares_memory(p, shared.params[k])


class TestDecentralizationSurface:
    def test_update_signature_takes_no_cross_node_input(self):
        """Node i's gradient slice reads only node i's parameters, cache and
        gradient rows: changing every other node's observations, rows and
        parameters leaves it unchanged bit for bit, and it equals the
        gradient of node i's encoder run on its own."""
        rng = np.random.default_rng(12)
        enc = make_set(seeds=(3, 4, 5))
        a = rng.normal(size=(3, 5, 6))
        d = rng.normal(size=(3, 5, 4))
        _, cache = edge.encode(enc, a)
        grads = edge.batch_gradient(enc, cache, d)
        stack = lone_stack(enc, 1)
        _, own = nn.forward(stack, a[1])
        want = nn.backward(stack, own, d[1]).param_grads
        enc.set_params({k: p + np.array([1.0, 0.0, -2.0]).reshape(-1, *(1,) * (p.ndim - 1))
                        for k, p in enc.params.items()})
        a[[0, 2]] = rng.normal(size=(2, 5, 6))
        d[[0, 2]] = rng.normal(size=(2, 5, 4))
        _, cache = edge.encode(enc, a)
        again = edge.batch_gradient(enc, cache, d)
        for k in want:
            assert np.array_equal(grads[k][1], want[k])
            assert np.array_equal(again[k][1], want[k])
            assert not np.array_equal(again[k][0], grads[k][0])


class TestInputChecks:
    """Each check raises its own message, so no later error stands in for it."""

    def test_odd_message_length(self):
        with pytest.raises(ValueError, match="message length must be even"):
            edge.encoder_layers(6, 5, (8,), 1.0, nn.PER_RB)

    def test_observations_must_be_node_first(self):
        encoders = make_set(shared=True)
        with pytest.raises(ValueError, match=r"observations must be \(nodes, batch, length\)"):
            edge.encode(encoders, np.zeros((3, 6)))
