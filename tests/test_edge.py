"""Edge node encoding, the per-node gradient, and the step the round takes from it."""

from types import SimpleNamespace

import numpy as np
import pytest

from fronthaul import edge, nn, protocol


def make_node(obs_dim=6, message_dim=4, hidden=(8,), mode=nn.PER_RB, p_e=1.0,
              seed=3, cqie=False):
    enc = edge.build_encoder(obs_dim, message_dim, hidden, p_e, mode, seed, cqie=cqie)
    return edge.EdgeNode(0, enc, mode, p_e, cqie)


def stepped(nodes, observations, rows, active=None, optimizer="sgd", sharing=False,
            eta=0.1):
    """Each node's parameters after the round's edge step, on copies of ``nodes``.

    Node i encodes ``observations[i]`` and receives ``rows[i]``; ``active``
    is the (batch, nodes) mask, all true by default. With ``sharing``,
    nodes that hold one encoder hold one copy of it, as sharing nodes do.
    """
    copies, stacks = [], {}
    for i, node in enumerate(nodes):
        key = id(node.encoder) if sharing else i
        if key not in stacks:
            stacks[key] = nn.LayerStack(node.encoder.layers, node.encoder.seed)
            stacks[key].set_params(node.encoder.params)
        copies.append(edge.EdgeNode(i, stacks[key], node.power_mode, node.p_e, node.cqie))
    caches = [edge.encode(node, obs)[1] for node, obs in zip(copies, observations)]
    batch = len(rows[0])
    state = SimpleNamespace(
        config=protocol.TrainingConfig(n_train=len(nodes), encoder_sharing=sharing),
        nodes=copies, edge_optimizers=[nn.make_optimizer(optimizer, eta) for _ in nodes])
    env = SimpleNamespace(batch_indices=np.arange(batch),
                          active=np.ones((batch, len(nodes)), bool) if active is None
                          else np.asarray(active, bool))
    protocol._edge_backprop_phase(state, env, caches, rows)
    return [node.encoder.params for node in copies]


class TestEncode:
    def test_zero_weight_encoder_ignores_input(self):
        node = make_node()
        zeroed = {k: np.zeros_like(v) for k, v in node.encoder.params.items()}
        node.encoder.set_params(zeroed)
        rng = np.random.default_rng(0)
        s1, _ = edge.encode(node, rng.normal(size=(1, 6)))
        s2, _ = edge.encode(node, rng.normal(size=(1, 6)))
        assert np.array_equal(s1, s2)
        assert np.array_equal(s1, np.zeros((1, 4)))  # projection of the zero bias

    @pytest.mark.parametrize("mode", [nn.PER_RB, nn.SUM])
    def test_power_constraint_always_holds(self, mode):
        rng = np.random.default_rng(1)
        for trial in range(50):
            node = make_node(mode=mode, seed=trial, p_e=0.8)
            s, _ = edge.encode(node, rng.normal(size=(20, 6)) * 5)
            if mode == nn.PER_RB:
                power = s[:, :2] ** 2 + s[:, 2:] ** 2
                assert np.all(power <= 0.8 + 1e-12)
            else:
                assert np.all(np.sum(s * s, axis=1) <= 0.8 + 1e-12)

    def test_deterministic(self):
        node = make_node()
        a = np.random.default_rng(2).normal(size=(1, 6))
        s1, _ = edge.encode(node, a)
        s2, _ = edge.encode(node, a)
        assert np.array_equal(s1, s2)

    def test_cqi_mode_mismatch_rejected(self):
        plain = make_node()
        with pytest.raises(ValueError, match="side input"):
            edge.encode(plain, np.zeros((1, 6)), cqi=np.zeros((1, 2)))
        aware = make_node(cqie=True)
        with pytest.raises(ValueError, match="side input"):
            edge.encode(aware, np.zeros((1, 6)))
        s, _ = edge.encode(aware, np.zeros((1, 6)), cqi=np.ones((1, 2)))
        assert s.shape == (1, 4)

    def test_cqi_side_input_transform(self):
        mag = np.array([1.0, 0.01])
        assert np.array_equal(edge.cqi_side_input(mag, pathloss=False), mag)
        assert np.allclose(edge.cqi_side_input(mag, pathloss=True), [0.0, -2.0])

    def test_encoder_must_end_with_projection(self):
        bare = nn.LayerStack([nn.Dense(6, 4)], seed=0)
        with pytest.raises(ValueError, match="projection"):
            edge.EdgeNode(0, bare, nn.PER_RB, 1.0)


class TestLocalUpdateExact:
    def test_zero_gradient_rows_leave_params(self):
        node = make_node()
        a = np.random.default_rng(3).normal(size=(5, 6))
        [new] = stepped([node], [a], [np.zeros((5, 4))], eta=0.7)
        for k, v in node.encoder.params.items():
            assert np.array_equal(new[k], v)

    def test_single_sample_is_backward_plus_step(self):
        node = make_node()
        rng = np.random.default_rng(4)
        a = rng.normal(size=6)
        d = rng.normal(size=4)
        [new] = stepped([node], [a[None, :]], [d[None, :]], eta=0.1)
        _, cache2 = nn.forward(node.encoder, a[None, :])
        grads = nn.backward(node.encoder, cache2, d[None, :])
        want = nn.sgd_step(node.encoder.params, grads.param_grads, 0.1)
        for k in want:
            assert np.allclose(new[k], want[k], atol=1e-15)

    def test_two_sample_average_by_hand(self):
        node = make_node()
        rng = np.random.default_rng(5)
        a = rng.normal(size=(2, 6))
        d = rng.normal(size=(2, 4))
        [new] = stepped([node], [a], [d], eta=0.2)
        total = {k: np.zeros_like(v) for k, v in node.encoder.params.items()}
        for b in range(2):
            _, c1 = nn.forward(node.encoder, a[b:b + 1])
            g1 = nn.backward(node.encoder, c1, d[b:b + 1]).param_grads
            for k in total:
                total[k] += g1[k]
        for k in total:
            want = node.encoder.params[k] - (0.2 / 2) * total[k]
            assert np.allclose(new[k], want, atol=1e-14)

    def test_empty_batch_rejected(self):
        """The gradient takes exactly one row per cached sample, so an empty
        set of rows is rejected rather than read as a zero gradient."""
        node = make_node()
        _, cache = edge.encode(node, np.zeros((1, 6)))
        with pytest.raises(ValueError, match="shape"):
            edge.batch_gradient(node, cache, np.zeros((0, 4)))


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
        for mode in ("exact", "wireless"):
            cfg = protocol.TrainingConfig(n_train=nodes, message_dim=4, downlink=mode,
                                          noiseless_downlink=True)
            rows[mode] = protocol._downlink_phase(cfg, env, messages)
        for i in range(nodes):
            mag = np.abs(env.h[i])
            assert np.array_equal(rows["exact"][i], np.concatenate([mag, mag], 1) * messages[i])
            np.testing.assert_allclose(rows["wireless"][i], rows["exact"][i], rtol=1e-12)
        node = make_node()
        a = [rng.normal(size=(batch, 6))] * nodes
        exact = stepped([node] * nodes, a, rows["exact"], eta=0.3)
        wireless = stepped([node] * nodes, a, rows["wireless"], eta=0.3)
        for got, want in zip(wireless, exact):
            for k in want:
                np.testing.assert_allclose(got[k], want[k], rtol=1e-12, atol=1e-15)

    def test_update_term_unbiased_over_noise(self):
        """The mean wireless update over many downlink noise draws matches the
        noiseless update componentwise within four standard errors."""
        node = make_node(obs_dim=4, message_dim=4, hidden=(6,))
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 4))
        d = rng.normal(size=(4, 4))
        [base] = stepped([node], [a], [d], eta=1.0)
        draws = 3000
        sigma_e = 0.3
        terms = {k: np.zeros((draws,) + v.shape) for k, v in base.items()}
        for t in range(draws):
            y = d + sigma_e * rng.standard_normal(d.shape)
            [cand] = stepped([node], [a], [y], eta=1.0)
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
        node = make_node()
        rng = np.random.default_rng(8)
        a = rng.normal(size=(4, 6))
        y = rng.normal(size=(4, 4))
        [full] = stepped([node], [a], [y], active=np.ones((4, 1)), eta=0.1)
        _, cache = edge.encode(node, a)
        want = nn.sgd_step(node.encoder.params, edge.batch_gradient(node, cache, y), 0.1 / 4)
        for k in full:
            assert np.array_equal(full[k], want[k])

    def test_empty_active_set_is_noop(self):
        """A node with no active sample keeps its parameters even though its
        delivered rows are nonzero; the other node still steps."""
        node = make_node()
        a = np.random.default_rng(9).normal(size=(3, 6))
        active = np.array([[False, True]] * 3)
        out, other = stepped([node, node], [a, a], [np.ones((3, 4))] * 2, active=active,
                             eta=0.5)
        for k, v in node.encoder.params.items():
            assert np.array_equal(out[k], v)
        assert not np.array_equal(other["dense0.w"], node.encoder.params["dense0.w"])

    def test_single_active_sample_divides_by_one(self):
        node = make_node()
        rng = np.random.default_rng(9)
        a = rng.normal(size=(3, 6))
        y = rng.normal(size=(3, 4))
        mask = np.array([False, True, False])
        [got] = stepped([node], [a], [y], active=mask[:, None], eta=0.2)
        _, c1 = nn.forward(node.encoder, a[1:2])
        g1 = nn.backward(node.encoder, c1, y[1:2]).param_grads
        want = nn.sgd_step(node.encoder.params, g1, 0.2)  # divisor 1, not 3
        for k in want:
            assert np.allclose(got[k], want[k], atol=1e-14)


class TestLocalUpdateShared:
    def test_zero_gradients_return_shared_point(self):
        node = make_node()
        node.encoder.set_params({k: v + 1.0 for k, v in node.encoder.params.items()})
        shared = node.encoder.params
        a = np.zeros((2, 6))
        for out in stepped([node, node], [a, a], [np.zeros((2, 4))] * 2, sharing=True,
                           eta=0.4):
            for k in shared:
                assert np.array_equal(out[k], shared[k])

    def test_identical_nodes_produce_identical_candidates(self):
        """Two nodes with the same rows move the shared encoder exactly as
        one dedicated node would: the mean of equal gradients is that
        gradient (Adam, where the mean is exact)."""
        rng = np.random.default_rng(10)
        a = rng.normal(size=(3, 6))
        d = rng.normal(size=(3, 4))
        node = make_node(seed=11)
        [alone] = stepped([node], [a], [d], optimizer="adam")
        for out in stepped([node, node], [a, a], [d, d], optimizer="adam", sharing=True):
            for k in alone:
                assert np.array_equal(out[k], alone[k])

    def test_shape_mismatch_rejected(self):
        """Nodes whose encoder layouts differ cannot share one encoder: every
        sharing node must hold the one shared stack, and a node holding
        another is rejected before any step."""
        a = np.zeros((1, 6))
        with pytest.raises(ValueError, match="node 1 does not hold the shared encoder"):
            stepped([make_node(), make_node(hidden=(5,))], [a, a],
                    [np.ones((1, 4))] * 2, sharing=True)


class TestDecentralizationSurface:
    def test_update_signature_takes_no_cross_node_input(self):
        """The per-node gradient accepts only this node, its cache and its own
        gradient rows; there is no parameter through which another node's
        observation or parameters could flow."""
        import inspect
        names = list(inspect.signature(edge.batch_gradient).parameters)
        assert names == ["node", "cache", "upstream"]
