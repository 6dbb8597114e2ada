"""Multi-branch cloud model, its stacked parameters and their update, and the
baseline architectures."""

import itertools

import numpy as np
import pytest

from fronthaul import cloud, nn, protocol


def small_model(m=2, s=6, r=4, x=3, hidden=5, seed=7):
    return cloud.build_cloud_model(m, s, r, x, hidden, seed)


def branch_stacks(model):
    """Per-branch (inner, outer) layer stacks holding copies of the model's
    branch slices, for references that run the unfused nn passes."""
    named = model.named_params()
    pairs = []
    for m in range(model.n_branches):
        pair = []
        for prefix in ("z", "u"):
            w0, w2 = named[f"{prefix}{m}.dense0.w"], named[f"{prefix}{m}.dense2.w"]
            stack = nn.LayerStack([nn.Dense(w0.shape[1], w0.shape[0]), nn.Relu(),
                                   nn.Dense(w2.shape[1], w2.shape[0])], 0)
            stack.set_params({name: named[f"{prefix}{m}.{name}"].copy()
                              for name in stack.params})
            pair.append(stack)
        pairs.append(tuple(pair))
    return pairs


def by_branch(stacked):
    """Per-branch views, under checkpoint names, of a dict shaped like a
    cloud model's ``params`` (its gradients, say)."""
    return cloud.CloudModel(stacked).named_params()


def straight_line_eval(model, received):
    """Independent re-evaluation of the pooled multi-branch composition."""
    logits = np.zeros(model.output_dim)
    for z_stack, u_stack in branch_stacks(model):
        pooled = np.zeros(z_stack.out_dim)
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
        z_stack, u_stack = branch_stacks(model)[0]
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
        before = {k: p.copy() for k, p in model.params.items()}
        rng = np.random.default_rng(3)
        for n_nodes in range(1, 13):
            out, _ = cloud.cloud_infer(model, [rng.normal(size=6)
                                               for _ in range(n_nodes)])
            assert out.shape == (3,)
        assert model.version == 0
        for k in before:
            assert np.array_equal(before[k], model.params[k])


class TestCloudBackward:
    def test_zero_upstream_all_zero(self):
        model = small_model()
        rng = np.random.default_rng(4)
        received = [rng.normal(size=6) for _ in range(3)]
        _, cache = cloud.cloud_infer(model, received)
        grads, messages = cloud.cloud_backward(model, cache, np.zeros(3))
        assert all(np.all(g == 0) for g in grads.values())
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
        assert set(grads) == set(model.params)
        for key, p in model.params.items():
            flat = p.reshape(-1)
            gflat = grads[key].reshape(-1)
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
        for key in gm:
            assert np.array_equal(gm[key], gn[key])

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
    model.set_named_params({name: rng.normal(size=p.shape) if name.endswith(".b") else p
                            for name, p in model.named_params().items()})


def per_branch_node_reference(model, received, active, grad_logits):
    """The unfused composition: per-(branch, node) nn.forward/nn.backward calls.

    Returns logits, per-branch inner and outer gradient dicts, and the
    per-node messages, all summed in branch and node index order.
    """
    logits = 0.0
    z_grads, u_grads = [], []
    messages = [np.zeros_like(y) for y in received]
    for z_stack, u_stack in branch_stacks(model):
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
    got = by_branch(grads)
    for m in range(model.n_branches):
        for name in want_z[m]:
            assert_matches(got[f"z{m}.{name}"], want_z[m][name])
            assert_matches(got[f"u{m}.{name}"], want_u[m][name])
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
        """A parameter swap on any one branch stack's slices invalidates the cache."""
        model = small_model(m=3)
        rng = np.random.default_rng(102)
        received = [rng.normal(size=(4, 6)) for _ in range(2)]
        _, cache = cloud.cloud_infer(model, received)
        prefix = f"{'zu'[which % 2]}{which // 2}."
        model.set_named_params({name: p + 1.0 if name.startswith(prefix) else p
                                for name, p in model.named_params().items()})
        with pytest.raises(ValueError, match="stale"):
            cloud.cloud_backward(model, cache, np.zeros((4, 3)))

    def test_returned_arrays_share_no_memory(self):
        model = small_model(m=3)
        rng = np.random.default_rng(103)
        received = [rng.normal(size=(5, 6)) for _ in range(4)]
        _, cache = cloud.cloud_infer(model, received, rng.random((5, 4)) < 0.5)
        grads, messages = cloud.cloud_backward(model, cache, rng.normal(size=(5, 3)))
        arrays = list(grads.values()) + messages
        assert len(arrays) == 8 + 4
        for a, b in itertools.combinations(arrays, 2):
            assert not np.shares_memory(a, b)

    def test_rejects_branches_of_different_widths(self):
        """Branches of hidden widths 5 and 7 do not stack: the inner first
        layers give 12 rows, where two width-5 branches need 10."""
        params = dict(small_model(m=2, hidden=5).params)
        params["z_in"] = np.zeros((5 + 7, 6))
        params["z_in_b"] = np.zeros(5 + 7)
        with pytest.raises(ValueError, match="inconsistent"):
            cloud.CloudModel(params)

    @pytest.mark.parametrize("edit", [
        lambda p: p.pop("u_in_b"),
        lambda p: p.update(z_mid=np.zeros((2, 5, 5))),
        lambda p: p.update(z_out=np.zeros((4, 5))),
        lambda p: p.update(u_out_b=np.zeros((3, 3))),
        lambda p: p.update(z_out=np.zeros((0, 4, 5))),
    ], ids=["missing-key", "extra-key", "no-branch-axis", "branch-count", "no-branch"])
    def test_rejects_malformed_parameter_sets(self, edit):
        params = dict(small_model(m=2).params)
        edit(params)
        with pytest.raises(ValueError):
            cloud.CloudModel(params)

    def test_named_views_are_branch_slices(self):
        """Checkpoint names index into the stacked arrays: row blocks of the
        inner first layer, branch m of the rest. Installing them back gives
        the same stacks bit for bit."""
        model = small_model(m=3, hidden=5)
        named = model.named_params()
        assert list(named)[:8] == ["z0.dense0.w", "z0.dense0.b", "z0.dense2.w", "z0.dense2.b",
                                   "u0.dense0.w", "u0.dense0.b", "u0.dense2.w", "u0.dense2.b"]
        assert len(named) == 3 * 8
        assert np.shares_memory(named["z1.dense0.w"], model.params["z_in"])
        assert np.array_equal(named["z1.dense0.w"], model.params["z_in"][5:10])
        assert np.array_equal(named["u2.dense2.b"], model.params["u_out_b"][2])
        other = small_model(m=3, hidden=5, seed=8)
        other.set_named_params(named)
        for key, p in model.params.items():
            assert np.array_equal(other.params[key], p)
            assert not np.shares_memory(other.params[key], p)


def random_gradients(model, rng):
    return {k: rng.normal(size=v.shape) for k, v in model.params.items()}


class TestCloudUpdate:
    """The round protocol steps the whole cloud with one optimizer."""

    def test_zero_gradients_change_nothing(self):
        model = small_model()
        before = {k: v.copy() for k, v in model.params.items()}
        zeros = {k: np.zeros_like(v) for k, v in model.params.items()}
        nn.SgdOptimizer(0.5).step(model, zeros, 4)
        for k in before:
            assert np.array_equal(before[k], model.params[k])

    def test_matches_per_branch_sgd_step(self):
        """Gradients from the fused backward land on their own branch's slices."""
        rng = np.random.default_rng(9)
        model = small_model(m=3)
        ref = small_model(m=3)
        received = [rng.normal(size=(6, 6)) for _ in range(2)]
        _, cache = cloud.cloud_infer(model, received, rng.random((6, 2)) < 0.7)
        grads, _ = cloud.cloud_backward(model, cache, rng.normal(size=(6, 3)))
        nn.SgdOptimizer(0.3).step(model, grads, 6)
        got = model.named_params()
        per_branch = by_branch(grads)
        for name, p in ref.named_params().items():
            assert np.array_equal(got[name], p - (0.3 / 6) * per_branch[name])

    def test_two_half_batches_average_to_full_batch(self):
        rng = np.random.default_rng(10)
        model_a = small_model(seed=21)
        model_b = small_model(seed=21)
        g1 = random_gradients(model_a, rng)
        g2 = random_gradients(model_a, rng)
        merged = {k: g1[k] + g2[k] for k in g1}
        nn.SgdOptimizer(0.1).step(model_a, merged, 8)
        half = nn.SgdOptimizer(0.1 / 2)
        half.step(model_b, g1, 4)
        half.step(model_b, g2, 4)
        for k in model_a.params:
            assert np.allclose(model_a.params[k], model_b.params[k], atol=1e-12)

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_stacked_step_equals_per_slice_steps(self, optimizer):
        """One optimizer over the stacked set lands bit for bit where 2*M
        optimizers, one per branch stack, land on the slices: both
        optimizers are elementwise."""
        rng = np.random.default_rng(11)
        model = small_model(m=4)
        stacks = [s for pair in branch_stacks(model) for s in pair]
        names = [f"{zu}{m}" for m in range(4) for zu in "zu"]
        stacked_opt = nn.make_optimizer(optimizer, 0.05)
        slice_opts = [nn.make_optimizer(optimizer, 0.05) for _ in stacks]
        for _ in range(3):
            grads = random_gradients(model, rng)
            stacked_opt.step(model, grads, 7)
            per_branch = by_branch(grads)
            for prefix, stack, opt in zip(names, stacks, slice_opts):
                opt.step(stack, {n: per_branch[f"{prefix}.{n}"] for n in stack.params}, 7)
        got = model.named_params()
        for prefix, stack in zip(names, stacks):
            for name, p in stack.params.items():
                assert np.array_equal(got[f"{prefix}.{name}"], p)

    def test_step_makes_cache_stale(self):
        model = small_model(m=2)
        rng = np.random.default_rng(12)
        received = [rng.normal(size=(4, 6)) for _ in range(2)]
        _, cache = cloud.cloud_infer(model, received)
        grads, _ = cloud.cloud_backward(model, cache, rng.normal(size=(4, 3)))
        nn.AdamOptimizer(0.01).step(model, grads, 4)
        assert model.version == 1
        with pytest.raises(ValueError, match="stale"):
            cloud.cloud_backward(model, cache, rng.normal(size=(4, 3)))


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
            assert set(grads) == set(model.params)
            for key, p in model.params.items():
                flat = p.reshape(-1)
                gflat = grads[key].reshape(-1)
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
        assert grads == {} and model.params == {}
        for m in messages:
            assert np.allclose(m, gx, atol=1e-15)

    def test_flat_params_over_the_stacks(self):
        """A baseline's parameters are its stacks' under ``stack{idx}.``;
        ``set_params`` installs them stack by stack, and a head no node used
        gets a zero gradient."""
        model = cloud.build_baseline(cloud.MHNET, 4, 3, 3, seed=6, hidden=5)
        assert list(model.params) == [f"stack{i}.dense{j}.{wb}" for i in range(3)
                                      for j in (0, 2, 4) for wb in "wb"]
        assert model.named_params() == model.params
        moved = {k: p + 1.0 for k, p in model.params.items()}
        model.set_params(moved)
        for i, stack in enumerate(model.stacks):
            assert stack.version == 1
            for name, p in stack.params.items():
                assert np.array_equal(p, moved[f"stack{i}.{name}"])
        with pytest.raises(ValueError, match="names"):
            model.set_params({"stack0.dense0.w": np.zeros((5, 4))})
        rng = np.random.default_rng(18)
        logits, cache = model.infer([rng.normal(size=(2, 4)) for _ in range(2)])
        grads, _ = model.backward(cache, rng.normal(size=logits.shape))
        assert set(grads) == set(model.params)
        assert all(np.all(grads[k] == 0.0) for k in grads if k.startswith("stack2."))
        assert any(np.any(grads[k] != 0.0) for k in grads if k.startswith("stack1."))
