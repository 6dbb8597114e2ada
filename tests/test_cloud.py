"""Multi-branch cloud model, its update, parameter averaging, and the baseline
architectures."""

import itertools

import numpy as np
import pytest

from fronthaul import cloud, nn, protocol


def small_model(m=2, s=6, r=4, x=3, hidden=5, seed=7):
    return cloud.build_cloud_model(m, s, r, x, hidden, seed)


def straight_line_eval(model, received):
    """Independent re-evaluation of the pooled multi-branch composition."""
    logits = np.zeros(model.output_dim)
    for z_stack, u_stack in model.branches:
        pooled = np.zeros(model.latent_dim)
        for y in received:
            h = y
            for idx, layer in enumerate(z_stack.layers):
                if isinstance(layer, nn.Dense):
                    h = z_stack.params[f"dense{idx}.w"] @ h + z_stack.params[f"dense{idx}.b"]
                else:
                    h = np.maximum(h, 0.0)
            pooled = pooled + h
        h = pooled
        for idx, layer in enumerate(u_stack.layers):
            if isinstance(layer, nn.Dense):
                h = u_stack.params[f"dense{idx}.w"] @ h + u_stack.params[f"dense{idx}.b"]
            else:
                h = np.maximum(h, 0.0)
        logits = logits + h
    return logits


class TestCloudInfer:
    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        model = small_model()
        received = [rng.normal(size=6) for _ in range(4)]
        base, _ = cloud.cloud_infer(model, received)
        for perm in itertools.permutations(range(4)):
            out, _ = cloud.cloud_infer(model, [received[i] for i in perm])
            assert np.max(np.abs(out - base)) < 1e-12

    def test_single_branch_single_node_composition(self):
        model = small_model(m=1)
        y = np.random.default_rng(1).normal(size=6)
        out, _ = cloud.cloud_infer(model, [y])
        z_stack, u_stack = model.branches[0]
        latent, _ = nn.forward(z_stack, y)
        want, _ = nn.forward(u_stack, latent)
        assert np.allclose(out, want, atol=1e-15)

    @pytest.mark.parametrize("n_nodes", [1, 2, 5])
    def test_matches_straight_line_evaluation(self, n_nodes):
        rng = np.random.default_rng(2)
        model = small_model(m=3, seed=int(rng.integers(1000)))
        received = [rng.normal(size=6) for _ in range(n_nodes)]
        out, _ = cloud.cloud_infer(model, received)
        assert np.max(np.abs(out - straight_line_eval(model, received))) < 1e-12

    def test_empty_and_mismatched_inputs_rejected(self):
        model = small_model()
        with pytest.raises(ValueError, match="no received"):
            cloud.cloud_infer(model, [])
        with pytest.raises(ValueError, match="length"):
            cloud.cloud_infer(model, [np.zeros(5)])
        with pytest.raises(ValueError, match="0 or 1"):
            cloud.cloud_infer(model, [np.zeros((2, 6))], np.full((2, 1), 0.5))

    def test_construction_independent_of_node_count(self):
        """One instance serves any population without parameter change."""
        model = small_model()
        before = {f"{m}.{n}": p.copy() for m, (z, u) in enumerate(model.branches)
                  for stacks in (z, u) for n, p in stacks.params.items()}
        rng = np.random.default_rng(3)
        for n_nodes in range(1, 13):
            out, _ = cloud.cloud_infer(model, [rng.normal(size=6)
                                               for _ in range(n_nodes)])
            assert out.shape == (3,)
        after = {f"{m}.{n}": p for m, (z, u) in enumerate(model.branches)
                 for stacks in (z, u) for n, p in stacks.params.items()}
        for k in before:
            assert np.array_equal(before[k], after[k])


class TestCloudBackward:
    def test_zero_upstream_all_zero(self):
        model = small_model()
        rng = np.random.default_rng(4)
        received = [rng.normal(size=6) for _ in range(3)]
        _, cache = cloud.cloud_infer(model, received)
        grads, messages = cloud.cloud_backward(model, cache, np.zeros(3))
        assert all(np.all(g == 0) for gs in grads.z_grads + grads.u_grads
                   for g in gs.values())
        assert all(np.all(m == 0) for m in messages)

    def test_parameter_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        model = small_model(m=2)
        received = [rng.normal(size=6) for _ in range(2)]
        label = 1
        logits, cache = cloud.cloud_infer(model, received)
        _, gx = nn.softmax_cross_entropy(logits, label)
        grads, _ = cloud.cloud_backward(model, cache, gx)

        def loss():
            lg, _ = cloud.cloud_infer(model, received)
            return nn.softmax_cross_entropy(lg, label)[0]

        step = 1e-5
        for m, (z_stack, u_stack) in enumerate(model.branches):
            for stack, gset in ((z_stack, grads.z_grads[m]), (u_stack, grads.u_grads[m])):
                for name, p in stack.params.items():
                    flat = p.reshape(-1)
                    gflat = gset[name].reshape(-1)
                    for idx in range(flat.size):
                        old = flat[idx]
                        flat[idx] = old + step
                        hi = loss()
                        flat[idx] = old - step
                        lo = loss()
                        flat[idx] = old
                        fd = (hi - lo) / (2 * step)
                        denom = max(1.0, abs(fd), abs(gflat[idx]))
                        assert abs(fd - gflat[idx]) / denom < 1e-5

    def test_messages_match_finite_differences(self):
        rng = np.random.default_rng(6)
        model = small_model(m=2)
        received = [rng.normal(size=6) for _ in range(3)]
        logits, cache = cloud.cloud_infer(model, received)
        _, gx = nn.softmax_cross_entropy(logits, 0)
        _, messages = cloud.cloud_backward(model, cache, gx)
        step = 1e-5
        for i in range(3):
            for j in range(6):
                old = received[i][j]
                received[i][j] = old + step
                hi = nn.softmax_cross_entropy(cloud.cloud_infer(model, received)[0], 0)[0]
                received[i][j] = old - step
                lo = nn.softmax_cross_entropy(cloud.cloud_infer(model, received)[0], 0)[0]
                received[i][j] = old
                fd = (hi - lo) / (2 * step)
                denom = max(1.0, abs(fd), abs(messages[i][j]))
                assert abs(fd - messages[i][j]) / denom < 1e-5

    def test_all_active_mask_equals_no_mask_exactly(self):
        """With everyone active the masked accumulation is the synchronous one."""
        rng = np.random.default_rng(7)
        model = small_model()
        received = [rng.normal(size=(4, 6)) for _ in range(3)]
        gx = rng.normal(size=(4, 3))
        out_m, cache_m = cloud.cloud_infer(model, received, np.ones((4, 3)))
        out_n, cache_n = cloud.cloud_infer(model, received)
        assert np.array_equal(out_m, out_n)
        gm, mm = cloud.cloud_backward(model, cache_m, gx)
        gn, mn = cloud.cloud_backward(model, cache_n, gx)
        for a, b in zip(mm, mn):
            assert np.array_equal(a, b)
        for m in range(model.n_branches):
            for name in gm.z_grads[m]:
                assert np.array_equal(gm.z_grads[m][name], gn.z_grads[m][name])

    def test_inactive_pairs_contribute_nothing(self):
        """Marking a node inactive for a sample removes exactly that latent
        contribution and zeroes its gradient message rows."""
        rng = np.random.default_rng(8)
        model = small_model()
        received = [rng.normal(size=(2, 6)) for _ in range(2)]
        mask = np.array([[1.0, 0.0], [1.0, 1.0]])
        out, cache = cloud.cloud_infer(model, received, mask)
        solo, _ = cloud.cloud_infer(model, [received[0][0:1]])
        assert np.max(np.abs(out[0] - solo[0])) < 1e-12
        gx = rng.normal(size=(2, 3))
        _, messages = cloud.cloud_backward(model, cache, gx)
        assert np.all(messages[1][0] == 0.0)
        assert np.any(messages[1][1] != 0.0)


def random_biases(model, rng):
    """Nonzero biases, so the count-weighted inner output bias moves the logits."""
    for stack in (s for pair in model.branches for s in pair):
        stack.set_params({name: rng.normal(size=p.shape) if name.endswith(".b") else p
                          for name, p in stack.params.items()})


def per_branch_node_reference(model, received, active, grad_logits):
    """The unfused composition: per-(branch, node) nn.forward/nn.backward calls.

    Returns logits, per-branch inner and outer gradient dicts, and the
    per-node messages, all summed in branch and node index order.
    """
    logits = 0.0
    z_grads, u_grads = [], []
    messages = [np.zeros_like(y) for y in received]
    for z_stack, u_stack in model.branches:
        pooled = 0.0
        caches = []
        for i, y in enumerate(received):
            latent, cache = nn.forward(z_stack, y)
            caches.append(cache)
            pooled = pooled + active[:, i:i + 1] * latent
        out, u_cache = nn.forward(u_stack, pooled)
        logits = logits + out
        u_set = nn.backward(u_stack, u_cache, grad_logits)
        u_grads.append(u_set.param_grads)
        acc = nn.zero_grads_like(z_stack)
        for i in range(len(received)):
            z_set = nn.backward(z_stack, caches[i], u_set.input_grad * active[:, i:i + 1])
            nn.accumulate(acc, z_set.param_grads)
            messages[i] = messages[i] + z_set.input_grad
        z_grads.append(acc)
    return logits, z_grads, u_grads, messages


def assert_matches(got, want):
    """rtol 1e-12 with an absolute floor of 1e-12 times the array's largest
    entry: the fused passes sum in another order, so an entry that cancels
    carries rounding on the scale of the terms it sums."""
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(want), initial=0.0))


def assert_fused_matches_reference(model, received, active, grad_logits):
    logits, cache = cloud.cloud_infer(model, received, active)
    grads, messages = cloud.cloud_backward(model, cache, grad_logits)
    assert logits.shape == np.shape(grad_logits)
    assert [m.shape for m in messages] == [np.shape(y) for y in received]
    rows = [np.atleast_2d(y) for y in received]
    mask = np.ones((rows[0].shape[0], len(rows))) if active is None else active
    want_logits, want_z, want_u, want_messages = per_branch_node_reference(
        model, rows, mask, np.atleast_2d(grad_logits))
    assert_matches(logits, want_logits.reshape(logits.shape))
    for m in range(model.n_branches):
        for name in want_z[m]:
            assert_matches(grads.z_grads[m][name], want_z[m][name])
            assert_matches(grads.u_grads[m][name], want_u[m][name])
    for got, want in zip(messages, want_messages):
        assert_matches(got, want.reshape(got.shape))


class TestFusedCloud:
    @pytest.mark.parametrize("batch", [1, 7, 256])
    @pytest.mark.parametrize("n_branches", [1, 4, 12])
    @pytest.mark.parametrize("n_nodes", [1, 3, 16])
    def test_matches_per_branch_node_reference(self, n_nodes, n_branches, batch):
        rng = np.random.default_rng(100 * n_nodes + 10 * n_branches + batch)
        model = small_model(m=n_branches, seed=int(rng.integers(1000)))
        random_biases(model, rng)
        received = [rng.normal(size=(batch, 6)) for _ in range(n_nodes)]
        active = (rng.random((batch, n_nodes)) < 0.6).astype(float)
        if batch > 1:
            active[0] = 0.0  # a row with no active node
        active[-1, 0] = 1.0
        assert_fused_matches_reference(model, received, active,
                                       rng.normal(size=(batch, 3)))

    def test_single_vector_matches_reference(self):
        rng = np.random.default_rng(101)
        model = small_model(m=4)
        random_biases(model, rng)
        assert_fused_matches_reference(model, [rng.normal(size=6) for _ in range(3)],
                                       None, rng.normal(size=3))

    @pytest.mark.parametrize("which", range(6))
    def test_stale_cache_rejected(self, which):
        """A parameter swap on any one branch stack invalidates the cache."""
        model = small_model(m=3)
        rng = np.random.default_rng(102)
        received = [rng.normal(size=(4, 6)) for _ in range(2)]
        _, cache = cloud.cloud_infer(model, received)
        stack = [s for pair in model.branches for s in pair][which]
        stack.set_params(stack.params)
        with pytest.raises(ValueError, match="stale"):
            cloud.cloud_backward(model, cache, np.zeros((4, 3)))

    def test_returned_arrays_share_no_memory(self):
        model = small_model(m=3)
        rng = np.random.default_rng(103)
        received = [rng.normal(size=(5, 6)) for _ in range(4)]
        _, cache = cloud.cloud_infer(model, received, rng.random((5, 4)) < 0.5)
        grads, messages = cloud.cloud_backward(model, cache, rng.normal(size=(5, 3)))
        arrays = ([g for gs in grads.z_grads + grads.u_grads for g in gs.values()]
                  + messages)
        assert len(arrays) == 3 * 8 + 4
        for a, b in itertools.combinations(arrays, 2):
            assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("inner, outer", [
        ([nn.Dense(6, 5), nn.Relu(), nn.Dense(5, 5), nn.Relu(), nn.Dense(5, 4)],
         [nn.Dense(4, 5), nn.Relu(), nn.Dense(5, 3)]),
        ([nn.Dense(6, 5), nn.Relu(), nn.Dense(5, 4)], [nn.Dense(4, 3)]),
        ([nn.Dense(6, 5), nn.Relu(), nn.Dense(5, 4), nn.Relu()],
         [nn.Dense(4, 5), nn.Relu(), nn.Dense(5, 3)]),
        ([nn.Dense(6, 4), nn.Projection(1.0)], [nn.Dense(4, 5), nn.Relu(), nn.Dense(5, 3)]),
    ], ids=["deep-inner", "linear-outer", "inner-ends-in-relu", "projection"])
    def test_rejects_branch_stacks_not_dense_relu_dense(self, inner, outer):
        with pytest.raises(ValueError, match="Dense, Relu, Dense"):
            cloud.CloudModel([(nn.LayerStack(inner, 0), nn.LayerStack(outer, 1))])

    def test_rejects_branches_of_different_widths(self):
        def pair(hidden):
            return (nn.LayerStack([nn.Dense(6, hidden), nn.Relu(), nn.Dense(hidden, 4)], 0),
                    nn.LayerStack([nn.Dense(4, 5), nn.Relu(), nn.Dense(5, 3)], 1))
        with pytest.raises(ValueError, match="inconsistent"):
            cloud.CloudModel([pair(5), pair(7)])


def sgd_optimizers(model, eta):
    return [nn.SgdOptimizer(eta) for pair in model.branches for _ in pair]


def random_gradients(model, rng):
    return cloud.CloudGradients(
        z_grads=[{k: rng.normal(size=v.shape) for k, v in z.params.items()}
                 for z, _ in model.branches],
        u_grads=[{k: rng.normal(size=v.shape) for k, v in u.params.items()}
                 for _, u in model.branches])


class TestCloudUpdate:
    """The round protocol commits cloud gradients through protocol._model_apply."""

    def test_zero_gradients_change_nothing(self):
        model = small_model()
        before = [{k: v.copy() for k, v in s.params.items()}
                  for pair in model.branches for s in pair]
        zeros = cloud.CloudGradients(
            z_grads=[{k: np.zeros_like(v) for k, v in z.params.items()}
                     for z, _ in model.branches],
            u_grads=[{k: np.zeros_like(v) for k, v in u.params.items()}
                     for _, u in model.branches])
        protocol._model_apply(model, sgd_optimizers(model, 0.5), zeros, 4)
        after = [s.params for pair in model.branches for s in pair]
        for b, a in zip(before, after):
            for k in b:
                assert np.array_equal(b[k], a[k])

    def test_matches_per_branch_sgd_step(self):
        """Gradients from the fused backward land on their own branch stack."""
        rng = np.random.default_rng(9)
        model = small_model(m=3)
        ref = small_model(m=3)
        received = [rng.normal(size=(6, 6)) for _ in range(2)]
        _, cache = cloud.cloud_infer(model, received, rng.random((6, 2)) < 0.7)
        grads, _ = cloud.cloud_backward(model, cache, rng.normal(size=(6, 3)))
        protocol._model_apply(model, sgd_optimizers(model, 0.3), grads, 6)
        for m, (z, u) in enumerate(ref.branches):
            want_z = nn.sgd_step(z.params, grads.z_grads[m], 0.3 / 6)
            want_u = nn.sgd_step(u.params, grads.u_grads[m], 0.3 / 6)
            for k in want_z:
                assert np.array_equal(model.branches[m][0].params[k], want_z[k])
            for k in want_u:
                assert np.array_equal(model.branches[m][1].params[k], want_u[k])

    def test_two_half_batches_average_to_full_batch(self):
        rng = np.random.default_rng(10)
        model_a = small_model(seed=21)
        model_b = small_model(seed=21)
        g1 = random_gradients(model_a, rng)
        g2 = random_gradients(model_a, rng)
        merged = cloud.CloudGradients(
            z_grads=[{k: g1.z_grads[m][k] + g2.z_grads[m][k] for k in g1.z_grads[m]}
                     for m in range(2)],
            u_grads=[{k: g1.u_grads[m][k] + g2.u_grads[m][k] for k in g1.u_grads[m]}
                     for m in range(2)])
        protocol._model_apply(model_a, sgd_optimizers(model_a, 0.1), merged, 8)
        half = sgd_optimizers(model_b, 0.1 / 2)
        protocol._model_apply(model_b, half, g1, 4)
        protocol._model_apply(model_b, half, g2, 4)
        for (za, ua), (zb, ub) in zip(model_a.branches, model_b.branches):
            for k in za.params:
                assert np.allclose(za.params[k], zb.params[k], atol=1e-12)
                assert np.allclose(ua.params[k], ub.params[k], atol=1e-12)


class TestBaselines:
    def test_sum_aggregation_is_plain_sum(self):
        model = cloud.build_baseline(cloud.SUM_AGG, 3, 3, 4, seed=0)
        rng = np.random.default_rng(11)
        received = [rng.normal(size=3) for _ in range(4)]
        out, _ = cloud.baseline_infer(model, received)
        assert np.allclose(out, sum(received), atol=1e-15)

    def test_sum_aggregation_dimension_rule(self):
        with pytest.raises(ValueError, match="message length"):
            cloud.build_baseline(cloud.SUM_AGG, 4, 3, 2, seed=0)

    def test_single_head_single_node_is_plain_stack(self):
        model = cloud.build_baseline(cloud.MHNET, 6, 3, 1, seed=1, hidden=5)
        y = np.random.default_rng(12).normal(size=6)
        out, _ = cloud.baseline_infer(model, [y])
        want, _ = nn.forward(model.stacks[0], y)
        assert np.allclose(out, want, atol=1e-15)

    def test_catnet_matches_forward_on_concatenation(self):
        model = cloud.build_baseline(cloud.CATNET, 4, 3, 3, seed=2, hidden=6)
        rng = np.random.default_rng(13)
        received = [rng.normal(size=4) for _ in range(3)]
        out, _ = cloud.baseline_infer(model, received)
        want, _ = nn.forward(model.stacks[0], np.concatenate(received))
        assert np.allclose(out, want, atol=1e-15)

    def test_catnet_rejects_mismatched_population(self):
        model = cloud.build_baseline(cloud.CATNET, 4, 3, 3, seed=2, hidden=6)
        rng = np.random.default_rng(14)
        with pytest.raises(ValueError, match="built for 3"):
            cloud.baseline_infer(model, [rng.normal(size=4) for _ in range(2)])
        with pytest.raises(ValueError, match="built for 3"):
            cloud.baseline_infer(model, [rng.normal(size=4) for _ in range(4)])

    def test_mhnet_not_permutation_invariant(self):
        """Heads are node-indexed, so swapping inputs changes the output."""
        model = cloud.build_baseline(cloud.MHNET, 6, 3, 2, seed=3, hidden=5)
        rng = np.random.default_rng(15)
        received = [rng.normal(size=6) for _ in range(2)]
        a, _ = cloud.baseline_infer(model, received)
        b, _ = cloud.baseline_infer(model, received[::-1])
        assert np.max(np.abs(a - b)) > 1e-6

    def test_budget_matching_within_five_percent(self):
        target = 12000
        for kind, n in ((cloud.CATNET, 4), (cloud.MHNET, 4)):
            model = cloud.build_baseline(kind, 16, 4, n, seed=4, target_params=target)
            assert abs(model.param_count - target) / target < 0.05

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(16)
        for kind in (cloud.CATNET, cloud.MHNET):
            model = cloud.build_baseline(kind, 4, 3, 2, seed=5, hidden=4)
            received = [rng.normal(size=4) for _ in range(2)]
            logits, cache = cloud.baseline_infer(model, received)
            _, gx = nn.softmax_cross_entropy(logits, 1)
            grads, messages = cloud.baseline_backward(model, cache, gx)

            def loss():
                lg, _ = cloud.baseline_infer(model, received)
                return nn.softmax_cross_entropy(lg, 1)[0]

            step = 1e-5
            for stack, gset in zip(model.stacks, grads):
                for name, p in stack.params.items():
                    flat = p.reshape(-1)
                    gflat = gset[name].reshape(-1)
                    for idx in range(0, flat.size, 3):  # sampled entries
                        old = flat[idx]
                        flat[idx] = old + step
                        hi = loss()
                        flat[idx] = old - step
                        lo = loss()
                        flat[idx] = old
                        fd = (hi - lo) / (2 * step)
                        assert abs(fd - gflat[idx]) / max(1, abs(fd)) < 1e-5
            for i in range(2):
                for j in range(4):
                    old = received[i][j]
                    received[i][j] = old + step
                    hi = loss()
                    received[i][j] = old - step
                    lo = loss()
                    received[i][j] = old
                    fd = (hi - lo) / (2 * step)
                    assert abs(fd - messages[i][j]) / max(1, abs(fd)) < 1e-5

    def test_sum_agg_messages_are_loss_gradient(self):
        model = cloud.build_baseline(cloud.SUM_AGG, 3, 3, 2, seed=0)
        rng = np.random.default_rng(17)
        received = [rng.normal(size=3) for _ in range(2)]
        logits, cache = cloud.baseline_infer(model, received)
        _, gx = nn.softmax_cross_entropy(logits, 2)
        grads, messages = cloud.baseline_backward(model, cache, gx)
        assert grads == []
        for m in messages:
            assert np.allclose(m, gx, atol=1e-15)
