"""Multi-branch cloud model, its stacked parameters and their update, and the
baseline architectures."""

import itertools

import numpy as np
import pytest

from fronthaul import cloud, nn, protocol


def small_model(m=2, s=6, r=4, x=3, hidden=5, seed=7):
    return cloud.build_cloud_model(m, s, r, x, hidden, seed)


# each stacked cloud key as (branch stack, the name nn.init_params gives
# that array): "z" is a branch's inner stack, "u" its outer stack
BRANCH_NAMES = {"z_in": ("z", "dense0.w"), "z_in_b": ("z", "dense0.b"),
                "z_out": ("z", "dense2.w"), "z_out_b": ("z", "dense2.b"),
                "u_in": ("u", "dense0.w"), "u_in_b": ("u", "dense0.b"),
                "u_out": ("u", "dense2.w"), "u_out_b": ("u", "dense2.b")}


def by_branch(stacked):
    """Per-branch views, named ``z{m}.dense0.w`` and so on, of a dict shaped
    like a cloud model's ``params`` (its gradients, say): branch m's block
    of rows of the inner first layer, index m of the other arrays."""
    count = stacked["z_out"].shape[0]
    views = {}
    for key, p in stacked.items():
        blocks = p.reshape(count, -1, *p.shape[1:]) if key.startswith("z_in") else p
        stack, name = BRANCH_NAMES[key]
        views.update({f"{stack}{m}.{name}": blocks[m] for m in range(count)})
    return views


def branch_stacks(model):
    """Per-branch (inner, outer) 2-D stacks holding copies of the model's
    branch slices, each the one slice of a set of its own, for references
    that run the unfused nn passes."""
    named = by_branch(model.params)
    pairs = []
    for m in range(model.n_branches):
        pair = []
        for prefix in ("z", "u"):
            w0, w2 = named[f"{prefix}{m}.dense0.w"], named[f"{prefix}{m}.dense2.w"]
            stack_set = nn.StackSet(nn.perceptron(w0.shape[1], w0.shape[0], w2.shape[0]), [0])
            stack_set.set_params({name: named[f"{prefix}{m}.{name}"][None]
                                  for name in stack_set.params})
            pair.append(stack_set.slice_view(0))
        pairs.append(tuple(pair))
    return pairs


def random_biases(model, rng):
    """Nonzero biases (keys ``*_b`` in the cloud, ``*.b`` in a baseline), so
    the count-weighted inner output bias moves the logits."""
    model.set_params({key: rng.normal(size=p.shape) if key.endswith(("_b", ".b")) else p
                      for key, p in model.params.items()})


def straight_line_eval(model, received):
    """Independent re-evaluation of the pooled multi-branch composition for
    one sample, each node's signal given as a (1, S) row."""
    logits = np.zeros(model.output_dim)
    for z_stack, u_stack in branch_stacks(model):
        pooled = np.zeros(z_stack.layers[-1].out_dim)
        for y in received:
            h = y[0]
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
        received = [rng.normal(size=(1, 6)) for _ in range(4)]
        base, _ = cloud.cloud_infer(model, received)
        for perm in itertools.permutations(range(4)):
            out, _ = cloud.cloud_infer(model, [received[i] for i in perm])
            assert np.max(np.abs(out - base)) < 1e-12

    def test_single_branch_single_node_composition(self):
        model = small_model(m=1)
        y = np.random.default_rng(1).normal(size=(1, 6))
        out, _ = cloud.cloud_infer(model, [y])
        z_stack, u_stack = branch_stacks(model)[0]
        latent, _ = nn.forward(z_stack, y)
        want, _ = nn.forward(u_stack, latent)
        assert np.allclose(out, want, atol=1e-15)

    @pytest.mark.parametrize("n_nodes", [1, 2, 5])
    def test_matches_straight_line_evaluation(self, n_nodes):
        rng = np.random.default_rng(2)
        model = small_model(m=3, seed=int(rng.integers(1000)))
        received = [rng.normal(size=(1, 6)) for _ in range(n_nodes)]
        out, _ = cloud.cloud_infer(model, received)
        assert np.max(np.abs(out[0] - straight_line_eval(model, received))) < 1e-12

    def test_empty_and_mismatched_inputs_rejected(self):
        model = small_model()
        with pytest.raises(ValueError, match="no received"):
            cloud.cloud_infer(model, [])
        with pytest.raises(ValueError, match="length"):
            cloud.cloud_infer(model, [np.zeros((1, 5))])
        with pytest.raises(ValueError, match="nodes, batch, length"):
            cloud.cloud_infer(model, [np.zeros(6)])
        with pytest.raises(ValueError, match="0 or 1"):
            cloud.cloud_infer(model, [np.zeros((2, 6))], np.full((2, 1), 0.5))

    @pytest.mark.parametrize("split", [0, 1, 3, 5])
    def test_held_sum_continues_the_pool_bit_for_bit(self, split):
        """Pooling the first ``split`` nodes into a held sum and then the rest
        onto it gives the bits of one pass over all five nodes, the held sum
        ends as that pass's pool, and a call with no new node repeats them."""
        rng = np.random.default_rng(4)
        model = small_model(m=3)
        random_biases(model, rng)
        received = rng.normal(size=(5, 7, 6))
        want, _ = cloud.cloud_infer(model, received, keep_cache=False)
        pooled = np.zeros((7, model.params["z_in"].shape[0]))
        first, _ = cloud.cloud_infer(model, received[:split], keep_cache=False,
                                     held=(pooled, 0))
        if split:
            alone, _ = cloud.cloud_infer(model, received[:split], keep_cache=False)
            assert np.array_equal(bits(first), bits(alone))
        got, _ = cloud.cloud_infer(model, received[split:], keep_cache=False,
                                   held=(pooled, split))
        again, _ = cloud.cloud_infer(model, received[5:], keep_cache=False, held=(pooled, 5))
        assert np.array_equal(bits(got), bits(want)) and np.array_equal(bits(again), bits(want))
        _, cache = cloud.cloud_infer(model, received)
        assert np.array_equal(bits(pooled), bits(cache.pooled.transpose(1, 0, 2).reshape(7, -1)))

    def test_held_sum_is_for_inference_only(self):
        model = small_model()
        received = np.zeros((2, 4, 6))
        pooled = np.zeros((4, 10))
        with pytest.raises(ValueError, match="inference only"):
            cloud.cloud_infer(model, received, held=(pooled, 1))
        with pytest.raises(ValueError, match="inference only"):
            cloud.cloud_infer(model, received, np.ones((4, 2)), keep_cache=False,
                              held=(pooled, 1))
        with pytest.raises(ValueError, match="held pool"):
            cloud.cloud_infer(model, received, keep_cache=False, held=(pooled[:3], 1))
        with pytest.raises(ValueError, match="no received"):
            cloud.cloud_infer(model, received[:0], keep_cache=False)

    def test_construction_independent_of_node_count(self):
        """One instance serves any population without parameter change."""
        model = small_model()
        before = {k: p.copy() for k, p in model.params.items()}
        rng = np.random.default_rng(3)
        for n_nodes in range(1, 13):
            out, _ = cloud.cloud_infer(model, [rng.normal(size=(1, 6))
                                               for _ in range(n_nodes)])
            assert out.shape == (1, 3)
        assert model.version == 0
        for k in before:
            assert np.array_equal(before[k], model.params[k])


class TestCloudBackward:
    def test_zero_upstream_all_zero(self):
        model = small_model()
        rng = np.random.default_rng(4)
        received = [rng.normal(size=(1, 6)) for _ in range(3)]
        _, cache = cloud.cloud_infer(model, received)
        grads, messages = cloud.cloud_backward(model, cache, np.zeros((1, 3)))
        assert all(np.all(g == 0) for g in grads.values())
        assert all(np.all(m == 0) for m in messages)

    def test_parameter_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        model = small_model(m=2)
        received = [rng.normal(size=(1, 6)) for _ in range(2)]
        label = 1
        logits, cache = cloud.cloud_infer(model, received)
        _, gx = nn.softmax_cross_entropy(logits, [label])
        grads, _ = cloud.cloud_backward(model, cache, gx)

        def loss():
            lg, _ = cloud.cloud_infer(model, received)
            return nn.softmax_cross_entropy(lg, [label])[0][0]

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
        received = [rng.normal(size=(1, 6)) for _ in range(3)]
        logits, cache = cloud.cloud_infer(model, received)
        _, gx = nn.softmax_cross_entropy(logits, [0])
        _, messages = cloud.cloud_backward(model, cache, gx)
        step = 1e-5

        def loss():
            return nn.softmax_cross_entropy(cloud.cloud_infer(model, received)[0], [0])[0][0]

        for i in range(3):
            for j in range(6):
                old = received[i][0, j]
                received[i][0, j] = old + step
                hi = loss()
                received[i][0, j] = old - step
                lo = loss()
                received[i][0, j] = old
                fd = (hi - lo) / (2 * step)
                denom = max(1.0, abs(fd), abs(messages[i][0, j]))
                assert abs(fd - messages[i][0, j]) / denom < 1e-5

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
        acc = {k: np.zeros_like(p) for k, p in z_stack.params.items()}
        for i in range(len(received)):
            z_set = nn.backward(z_stack, caches[i], u_set.input_grad * active[:, i:i + 1])
            for name, g in z_set.param_grads.items():
                acc[name] = acc[name] + g
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
    assert messages.shape == np.shape(received)
    mask = np.ones((received[0].shape[0], len(received))) if active is None else active
    want_logits, want_z, want_u, want_messages = per_branch_node_reference(
        model, received, mask, grad_logits)
    assert_matches(logits, want_logits)
    got = by_branch(grads)
    for m in range(model.n_branches):
        for name in want_z[m]:
            assert_matches(got[f"z{m}.{name}"], want_z[m][name])
            assert_matches(got[f"u{m}.{name}"], want_u[m][name])
    for got, want in zip(messages, want_messages):
        assert_matches(got, want)


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

    def test_cache_keeps_bool_slopes_only(self):
        """The cache holds every inner rectifier's slope as one (N, B, M*H) bool
        array, off on inactive pairs, and no per-node float pre-activations."""
        rng = np.random.default_rng(103)
        model = small_model(m=4)
        random_biases(model, rng)
        received = [rng.normal(size=(7, 6)) for _ in range(3)]
        active = (rng.random((7, 3)) < 0.6).astype(float)
        _, cache = cloud.cloud_infer(model, received, active)
        width = model.params["z_in"].shape[0]
        assert cache.inner_slope.dtype == bool and cache.inner_slope.shape == (3, 7, width)
        for i, y in enumerate(received):
            pre = y @ model.params["z_in"].T + model.params["z_in_b"]
            assert np.array_equal(cache.inner_slope[i], (pre > 0.0) & (active[:, i:i + 1] == 1.0))
        fields = vars(cache).values()
        assert not any(isinstance(v, list) for v in fields)
        assert not any(isinstance(v, np.ndarray) and v.dtype == float and v.shape[-1] == width
                       for v in fields)

    def test_single_vector_matches_reference(self):
        rng = np.random.default_rng(101)
        model = small_model(m=4)
        random_biases(model, rng)
        assert_fused_matches_reference(model, [rng.normal(size=(1, 6)) for _ in range(3)],
                                       None, rng.normal(size=(1, 3)))

    @pytest.mark.parametrize("which", range(6))
    def test_stale_cache_rejected(self, which):
        """A parameter swap on any one branch stack's slices invalidates the cache."""
        model = small_model(m=3)
        rng = np.random.default_rng(102)
        received = [rng.normal(size=(4, 6)) for _ in range(2)]
        _, cache = cloud.cloud_infer(model, received)
        prefix = f"{'zu'[which % 2]}{which // 2}."
        moved = {key: p.copy() for key, p in model.params.items()}
        for name, view in by_branch(moved).items():
            if name.startswith(prefix):
                view += 1.0
        model.set_params(moved)
        with pytest.raises(ValueError, match="stale"):
            cloud.cloud_backward(model, cache, np.zeros((4, 3)))

    def test_returned_arrays_share_no_memory(self):
        model = small_model(m=3)
        rng = np.random.default_rng(103)
        received = [rng.normal(size=(5, 6)) for _ in range(4)]
        _, cache = cloud.cloud_infer(model, received, rng.random((5, 4)) < 0.5)
        grads, messages = cloud.cloud_backward(model, cache, rng.normal(size=(5, 3)))
        arrays = list(grads.values()) + list(messages)
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

    @pytest.mark.parametrize("edit, message", [
        (lambda p: p.pop("u_in_b"), "exactly the keys"),
        (lambda p: p.update(z_mid=np.zeros((2, 5, 5))), "exactly the keys"),
        (lambda p: p.update(z_out=np.zeros((4, 5))), "at least one branch"),
        (lambda p: p.update(u_out_b=np.zeros((3, 3))), "inconsistent"),
        (lambda p: p.update(z_out=np.zeros((0, 4, 5))), "at least one branch"),
    ], ids=["missing-key", "extra-key", "no-branch-axis", "branch-count", "no-branch"])
    def test_rejects_malformed_parameter_sets(self, edit, message):
        params = dict(small_model(m=2).params)
        edit(params)
        with pytest.raises(ValueError, match=message):
            cloud.CloudModel(params)

    def test_branches_keep_their_child_seed_draws(self):
        """Each branch's slices hold, bit for bit, the parameters
        ``nn.init_params`` draws from its own child seed: inner stack m from
        child 2m, outer stack m from child 2m+1."""
        model = small_model(m=3, hidden=5, seed=8)
        seeds = cloud._child_seeds(8, 6)
        named = by_branch(model.params)
        for m in range(3):
            for prefix, widths, stack_seed in (("z", (6, 5, 4), seeds[2 * m]),
                                               ("u", (4, 5, 3), seeds[2 * m + 1])):
                for name, p in nn.init_params(nn.perceptron(*widths), stack_seed).items():
                    assert named[f"{prefix}{m}.{name}"].tobytes() == p.tobytes()


def unfused_infer(model, received, mask):
    """``cloud_infer`` with its first layers' bias added after their product,
    a pass of its own: the logits and cache fields whose bits the fold keeps."""
    w = model.params
    n_nodes, batch = received.shape[:2]
    pooled = np.zeros((batch, w["z_in"].shape[0]))
    slopes = []
    for i, y in enumerate(received):
        pre = y @ w["z_in"].T
        pre = pre + w["z_in_b"]
        if mask is not None:
            pre[mask[:, i] == 0.0] = 0.0
        slopes.append(pre > 0.0)
        pooled += np.maximum(pre, 0.0)
    pooled = pooled.reshape(batch, model.n_branches, -1).transpose(1, 0, 2)
    latent = np.matmul(pooled, w["z_out"].transpose(0, 2, 1))
    latent += (n_nodes if mask is None else mask.sum(axis=1)[:, None]) * w["z_out_b"][:, None, :]
    outer_act = np.matmul(latent, w["u_in"].transpose(0, 2, 1))
    outer_act = np.maximum(outer_act + w["u_in_b"][:, None, :], 0.0)
    out = np.matmul(outer_act, w["u_out"].transpose(0, 2, 1)) + w["u_out_b"][:, None, :]
    return out.sum(axis=0), {"inner_slope": np.stack(slopes), "pooled": pooled,
                             "latent": latent, "outer_act": outer_act}


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64 if a.dtype == float else np.uint8)


# (nodes, batch, branches) with S = 16 and H = 32, the configs/default.txt
# widths: its training round, train-wide's round (M*H = 384) and the two
# evaluation chunks of a 12-node population (M*H = 96)
FOLD_SHAPES = {"default": (4, 32, 3), "train-wide": (16, 256, 12),
               "eval-chunk-512": (12, 512, 3), "eval-chunk-256": (12, 256, 3)}


class TestFirstLayerBiasFold:
    @pytest.mark.parametrize("keep_cache", [True, False], ids=["cache", "no-cache"])
    @pytest.mark.parametrize("masked", [False, True], ids=["all-active", "masked"])
    @pytest.mark.parametrize("shape", sorted(FOLD_SHAPES))
    def test_bits_of_a_separate_bias_add(self, shape, masked, keep_cache):
        """The bias folded into the first layers' product gives the logits and
        every cache field of a product followed by a bias add, bit for bit."""
        n_nodes, batch, n_branches = FOLD_SHAPES[shape]
        rng = np.random.default_rng(sum(FOLD_SHAPES[shape]) + 2 * masked + keep_cache)
        model = cloud.build_cloud_model(n_branches, 16, 16, 4, 32, seed=int(rng.integers(1000)))
        random_biases(model, rng)
        received = rng.normal(size=(n_nodes, batch, 16)) * 2.0
        mask = (rng.random((batch, n_nodes)) < 0.7).astype(float) if masked else None
        logits, cache = cloud.cloud_infer(model, received, mask, keep_cache=keep_cache)
        want_logits, want_cache = unfused_infer(model, received, mask)
        assert np.array_equal(bits(logits), bits(want_logits))
        if not keep_cache:
            assert cache is None
            return
        assert np.array_equal(bits(cache.received), bits(received))
        assert np.array_equal(cache.active, np.ones((batch, n_nodes)) if mask is None else mask)
        for name, want in want_cache.items():
            assert np.array_equal(bits(getattr(cache, name)), bits(want)), name


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
        got = by_branch(model.params)
        per_branch = by_branch(grads)
        for name, p in by_branch(ref.params).items():
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
        optimizers, one per branch stack's set, land on the slices: both
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
                opt.step(stack.param_set, {n: per_branch[f"{prefix}.{n}"][None]
                                           for n in stack.params}, 7)
        got = by_branch(model.params)
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
        received = [rng.normal(size=(1, 3)) for _ in range(4)]
        out, _ = cloud.baseline_infer(model, received)
        assert np.allclose(out, sum(received), atol=1e-15)

    def test_sum_aggregation_dimension_rule(self):
        with pytest.raises(ValueError, match="message length"):
            cloud.build_baseline(cloud.SUM_AGG, 4, 3, 2, seed=0)

    @pytest.mark.parametrize("kind", [cloud.CATNET, cloud.MHNET])
    def test_needs_at_least_one_node(self, kind):
        """With a width or with a budget to match (whose search would
        otherwise never end for mhnet, every width counting 0)."""
        for budget in ({"hidden": 5}, {"target_params": 100}):
            with pytest.raises(ValueError, match="at least one node"):
                cloud.build_baseline(kind, 4, 3, 0, seed=1, **budget)

    def test_single_head_single_node_is_plain_stack(self):
        model = cloud.build_baseline(cloud.MHNET, 6, 3, 1, seed=1, hidden=5)
        y = np.random.default_rng(12).normal(size=(1, 6))
        out, _ = cloud.baseline_infer(model, [y])
        want, _ = nn.forward(model.slice_view(0), y)
        assert np.allclose(out, want, atol=1e-15)

    def test_catnet_matches_forward_on_concatenation(self):
        model = cloud.build_baseline(cloud.CATNET, 4, 3, 3, seed=2, hidden=6)
        rng = np.random.default_rng(13)
        received = [rng.normal(size=(1, 4)) for _ in range(3)]
        out, _ = cloud.baseline_infer(model, received)
        want, _ = nn.forward(model.slice_view(0), np.concatenate(received, axis=1))
        assert np.allclose(out, want, atol=1e-15)

    def test_catnet_rejects_mismatched_population(self):
        model = cloud.build_baseline(cloud.CATNET, 4, 3, 3, seed=2, hidden=6)
        rng = np.random.default_rng(14)
        with pytest.raises(ValueError, match="built for 3"):
            cloud.baseline_infer(model, [rng.normal(size=(1, 4)) for _ in range(2)])
        with pytest.raises(ValueError, match="built for 3"):
            cloud.baseline_infer(model, [rng.normal(size=(1, 4)) for _ in range(4)])

    @pytest.mark.parametrize("kind", [cloud.MHNET, cloud.SUM_AGG])
    def test_mask_entries_other_than_0_or_1_rejected(self, kind):
        """The baselines check the active mask as cloud_infer does."""
        model = cloud.build_baseline(kind, 4, 4, 2, seed=4, hidden=5)
        received = np.random.default_rng(16).normal(size=(2, 3, 4))
        mask = np.ones((3, 2))
        mask[1, 0] = 0.5
        with pytest.raises(ValueError, match="0 or 1"):
            cloud.baseline_infer(model, received, mask)
        with pytest.raises(ValueError, match="shape"):
            cloud.baseline_infer(model, received, np.ones((2, 3)))

    def test_mhnet_not_permutation_invariant(self):
        """Heads are node-indexed, so swapping inputs changes the output."""
        model = cloud.build_baseline(cloud.MHNET, 6, 3, 2, seed=3, hidden=5)
        rng = np.random.default_rng(15)
        received = [rng.normal(size=(1, 6)) for _ in range(2)]
        a, _ = cloud.baseline_infer(model, received)
        b, _ = cloud.baseline_infer(model, received[::-1])
        assert np.max(np.abs(a - b)) > 1e-6

    def test_budget_matching_within_five_percent(self):
        target = 12000
        for kind, n in ((cloud.CATNET, 4), (cloud.MHNET, 4)):
            model = cloud.build_baseline(kind, 16, 4, n, seed=4, target_params=target)
            assert abs(sum(p.size for p in model.params.values()) - target) / target < 0.05

    @pytest.mark.parametrize("kind", [cloud.CATNET, cloud.MHNET])
    def test_matched_width_is_nearest_narrower_on_tie(self, kind):
        """Over every target up to width 12's count, the matched width is the
        brute-force nearest, the narrower of two equally near; the counts are
        the built models' buffer sizes."""
        ties = 0
        for message_dim, n_classes, n_nodes in ((2, 2, 1), (4, 3, 3), (8, 4, 2)):
            counts = {w: cloud.build_baseline(kind, message_dim, n_classes, n_nodes, seed=0,
                                              hidden=w).buffer.size for w in range(1, 13)}
            for target in range(counts[12]):
                gaps = sorted((abs(c - target), w) for w, c in counts.items())
                ties += gaps[0][0] == gaps[1][0]
                assert cloud.matched_hidden_width(kind, message_dim, n_classes, n_nodes,
                                                  target) == gaps[0][1]
        assert ties > 0

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(16)
        for kind in (cloud.CATNET, cloud.MHNET):
            model = cloud.build_baseline(kind, 4, 3, 2, seed=5, hidden=4)
            received = [rng.normal(size=(1, 4)) for _ in range(2)]
            logits, cache = cloud.baseline_infer(model, received)
            _, gx = nn.softmax_cross_entropy(logits, [1])
            grads, messages = cloud.baseline_backward(model, cache, gx)

            def loss():
                lg, _ = cloud.baseline_infer(model, received)
                return nn.softmax_cross_entropy(lg, [1])[0][0]

            step = 1e-5
            assert set(grads) == set(model.params)
            for key, p in model.params.items():
                # mhnet's heads are strided views of its buffer: entries
                # move in place, never through a reshaped copy
                assert np.shares_memory(p, model.buffer)
                for idx in list(np.ndindex(p.shape))[::3]:  # sampled entries
                    old = p[idx]
                    p[idx] = old + step
                    hi = loss()
                    p[idx] = old - step
                    lo = loss()
                    p[idx] = old
                    fd = (hi - lo) / (2 * step)
                    assert abs(fd - grads[key][idx]) / max(1, abs(fd)) < 1e-5
            for i in range(2):
                for j in range(4):
                    old = received[i][0, j]
                    received[i][0, j] = old + step
                    hi = loss()
                    received[i][0, j] = old - step
                    lo = loss()
                    received[i][0, j] = old
                    fd = (hi - lo) / (2 * step)
                    assert abs(fd - messages[i][0, j]) / max(1, abs(fd)) < 1e-5

    def test_sum_agg_messages_are_loss_gradient(self):
        model = cloud.build_baseline(cloud.SUM_AGG, 3, 3, 2, seed=0)
        rng = np.random.default_rng(17)
        received = [rng.normal(size=(1, 3)) for _ in range(2)]
        logits, cache = cloud.baseline_infer(model, received)
        _, gx = nn.softmax_cross_entropy(logits, [2])
        grads, messages = cloud.baseline_backward(model, cache, gx)
        assert grads == {} and model.params == {}
        for m in messages:
            assert np.allclose(m, gx, atol=1e-15)

    def test_params_are_the_stacked_heads(self):
        """A baseline's arrays are its stacks' stacked along a leading head
        axis, views of its buffer; ``set_params`` installs them head by head,
        and a head no node used gets a zero gradient."""
        model = cloud.build_baseline(cloud.MHNET, 4, 3, 3, seed=6, hidden=5)
        assert list(model.params) == [f"dense{j}.{wb}" for j in (0, 2, 4) for wb in "wb"]
        assert all(p.shape[0] == 3 and np.shares_memory(p, model.buffer)
                   for p in model.params.values())
        # shift head i by 1 + i
        moved = {k: p + 1.0 + np.arange(3).reshape(-1, *(1,) * (p.ndim - 1))
                 for k, p in model.params.items()}
        model.set_params(moved)
        assert model.version == 1
        for i in range(3):
            for name, p in model.slice_view(i).params.items():
                assert np.array_equal(p, moved[name][i])
        with pytest.raises(ValueError, match="names"):
            model.set_params({"dense0.w": np.zeros((3, 5, 4))})
        rng = np.random.default_rng(18)
        logits, cache = model.infer([rng.normal(size=(2, 4)) for _ in range(2)])
        grads, _ = model.backward(cache, rng.normal(size=logits.shape))
        assert {k: g.shape for k, g in grads.items()} == \
            {k: p.shape for k, p in model.params.items()}
        assert all(np.all(g[2] == 0.0) for g in grads.values())
        assert any(np.any(g[1] != 0.0) for g in grads.values())

    def test_stale_cache_rejected(self):
        model = cloud.build_baseline(cloud.MHNET, 4, 3, 2, seed=6, hidden=5)
        received = np.random.default_rng(21).normal(size=(2, 3, 4))
        _, cache = model.infer(received)
        model.set_params({k: p + 1.0 for k, p in model.params.items()})
        with pytest.raises(ValueError, match="stale"):
            model.backward(cache, np.zeros((3, 3)))

    def test_backward_rejects_a_stale_head_view_cache(self):
        """``nn.backward`` on mhnet's node-first head view checks the model's
        current version: the view names the model, not a frozen version."""
        model = cloud.build_baseline(cloud.MHNET, 4, 3, 2, seed=6, hidden=5)
        received = np.random.default_rng(22).normal(size=(2, 3, 4))
        _, fc = nn.forward(model.node_range(0, 2), received)
        model.set_params({k: p + 1.0 for k, p in model.params.items()})
        with pytest.raises(ValueError, match="stale"):
            nn.backward(fc.stack, fc, np.zeros((2, 3, 3)))

    @pytest.mark.parametrize("kind", [cloud.MHNET, cloud.SUM_AGG])
    @pytest.mark.parametrize("n_nodes", [1, 3, 12])
    def test_masked_passes_match_a_loop_over_nodes(self, kind, n_nodes):
        """The node-first passes give, bit for bit, the logits, gradients and
        messages of a loop over the nodes, with inactive pairs (a sample
        no node delivered among them, and signed zeros), over enough nodes
        that a pairwise sum would add in another order, and for mhnet on
        fewer nodes than heads."""
        rng = np.random.default_rng(20 + n_nodes)
        dim = 3 if kind == cloud.SUM_AGG else 4
        model = cloud.build_baseline(kind, dim, 3, 12, seed=7, hidden=5)
        random_biases(model, rng)
        for batch in (1, 7, 64):
            received = rng.normal(size=(n_nodes, batch, dim))
            received[:, -1] = -0.0
            active = (rng.random((batch, n_nodes)) < 0.6).astype(float)
            active[0] = 0.0
            grad_logits = rng.normal(size=(batch, 3))
            logits, cache = model.infer(received, active)
            grads, messages = model.backward(cache, grad_logits)
            want_logits, want_grads, want_messages = per_node_baseline_reference(
                model, received, active, grad_logits)
            assert logits.tobytes() == want_logits.tobytes()
            assert grads.keys() == want_grads.keys()
            for name, g in want_grads.items():
                assert grads[name].tobytes() == g.tobytes(), name
            assert messages.tobytes() == want_messages.tobytes()


def per_node_baseline_reference(model, received, active, grad_logits):
    """mhnet or sum_agg as a loop over the nodes: each mhnet head runs 2-D
    ``nn.forward``/``nn.backward`` on its slice view, and each node's
    logits add onto zeros in node order. Head i's upstream rows are a view
    of the node-first masked upstream array, as the node-first pass reads
    them (a product on a fresh copy can round differently). Returns the
    logits, the gradients keyed and shaped like ``model.params`` and the
    node-first messages."""
    logits = np.zeros((received.shape[1], model.n_classes))
    grads = {name: np.zeros_like(p) for name, p in model.params.items()}
    messages = np.empty(received.shape)
    upstream = active.T[:, :, None] * grad_logits
    for i, rows in enumerate(received):
        if model.kind == cloud.SUM_AGG:
            logits = logits + active[:, i:i + 1] * rows
            messages[i] = upstream[i]
            continue
        head = model.slice_view(i)
        out, fc = nn.forward(head, rows)
        logits = logits + active[:, i:i + 1] * out
        grad_set = nn.backward(head, fc, upstream[i])
        for name, g in grad_set.param_grads.items():
            grads[name][i] = g
        messages[i] = grad_set.input_grad
    return logits, grads, messages


FORWARD_ONLY_KINDS = ["proposed", cloud.CATNET, cloud.MHNET, cloud.SUM_AGG]


def forward_only_model(kind, n_nodes, n_branches, rng):
    """A model of ``kind`` serving ``n_nodes`` nodes, with nonzero biases so
    the count-weighted inner output bias moves the logits, and its input length."""
    dim = 3 if kind == cloud.SUM_AGG else 6  # sum aggregation: message length = classes
    if kind == "proposed":
        model = small_model(m=n_branches, s=dim, seed=int(rng.integers(1000)))
    else:
        model = cloud.build_baseline(kind, dim, 3, n_nodes, seed=int(rng.integers(1000)),
                                     hidden=5)
    random_biases(model, rng)
    return model, dim


class TestForwardOnly:
    @pytest.mark.parametrize("batch", [1, 7, 512])
    @pytest.mark.parametrize("n_nodes", [1, 3, 12])
    @pytest.mark.parametrize("kind", FORWARD_ONLY_KINDS)
    def test_logits_equal_the_cached_pass(self, kind, n_nodes, batch):
        """``keep_cache=False`` gives the cached pass's logits byte for byte and
        no cache, without a mask and with one (all ones for catnet, which
        takes no inactive node), at M = 1, 3 and 12 branches for the pooled
        cloud."""
        rng = np.random.default_rng(1000 * n_nodes + batch)
        for n_branches in ((1, 3, 12) if kind == "proposed" else (None,)):
            model, dim = forward_only_model(kind, n_nodes, n_branches, rng)
            received = rng.normal(size=(n_nodes, batch, dim))
            active = (rng.random((batch, n_nodes)) < 0.6).astype(float)
            if kind == cloud.CATNET:
                active[:] = 1.0
            for mask in (None, active):
                want, cache = model.infer(received, mask)
                got, none = model.infer(received, mask, keep_cache=False)
                assert cache is not None and none is None
                assert got.tobytes() == want.tobytes(), (n_branches, mask is None)

    def test_no_mask_is_built_without_one(self, monkeypatch):
        """Without ``active`` the forward-only pass builds no mask; a given
        mask is still checked."""
        rng = np.random.default_rng(104)
        model = small_model(m=3)
        random_biases(model, rng)
        received = rng.normal(size=(4, 5, 6))
        want, _ = cloud.cloud_infer(model, received)
        with pytest.raises(ValueError, match="0 or 1"):
            cloud.cloud_infer(model, received, np.full((5, 4), 0.5), keep_cache=False)

        def no_mask(*args):
            raise AssertionError("a forward-only pass without a mask built one")

        monkeypatch.setattr(cloud, "_active_mask", no_mask)
        got, none = cloud.cloud_infer(model, received, keep_cache=False)
        assert none is None and got.tobytes() == want.tobytes()


class TestInputChecks:
    """Each check raises its own message, so no later error stands in for it."""

    def test_build_needs_a_branch(self):
        with pytest.raises(ValueError, match="at least one branch"):
            small_model(m=0)

    def test_active_mask_shape(self):
        model = small_model()
        received = np.zeros((2, 3, 6))
        with pytest.raises(ValueError, match="active mask shape"):
            cloud.cloud_infer(model, received, np.ones((3, 3)))

    def test_cloud_backward_gradient_shape(self):
        model = small_model()
        _, cache = cloud.cloud_infer(model, np.ones((2, 3, 6)))
        with pytest.raises(ValueError, match="gradient shape"):
            cloud.cloud_backward(model, cache, np.zeros((3, 1)))

    def test_unknown_baseline_kind(self):
        with pytest.raises(ValueError, match="unknown baseline kind 'resnet'"):
            cloud.build_baseline("resnet", 4, 3, 2, seed=0, hidden=5)

    def test_only_catnet_and_mhnet_have_a_layout(self):
        with pytest.raises(ValueError, match="only catnet and mhnet"):
            cloud.matched_hidden_width(cloud.SUM_AGG, 4, 4, 2, 100)

    def test_baseline_needs_a_width_or_a_budget(self):
        with pytest.raises(ValueError, match="hidden width or a parameter budget"):
            cloud.build_baseline(cloud.CATNET, 4, 3, 2, seed=0)

    def test_catnet_rejects_inactive_nodes(self):
        model = cloud.build_baseline(cloud.CATNET, 4, 3, 2, seed=0, hidden=5)
        mask = np.ones((3, 2))
        mask[1, 0] = 0.0
        with pytest.raises(ValueError, match="inactive nodes"):
            cloud.baseline_infer(model, np.zeros((2, 3, 4)), mask)

    def test_sum_agg_backward_checks_its_cache(self):
        """sum_agg keeps no forward cache of its own, so only the model's
        ``check_cache`` rejects a cache of another model."""
        a, b = (cloud.build_baseline(cloud.SUM_AGG, 4, 4, 2, seed=s) for s in (0, 1))
        _, cache = cloud.baseline_infer(a, np.zeros((2, 3, 4)))
        with pytest.raises(ValueError, match="different parameter set"):
            cloud.baseline_backward(b, cache, np.zeros((3, 4)))

    @pytest.mark.parametrize("kind", [cloud.SUM_AGG, cloud.CATNET, cloud.MHNET])
    def test_baseline_backward_gradient_shape(self, kind):
        model = cloud.build_baseline(kind, 4, 4, 2, seed=0, hidden=5)
        _, cache = cloud.baseline_infer(model, np.zeros((2, 3, 4)))
        with pytest.raises(ValueError, match="gradient shape"):
            cloud.baseline_backward(model, cache, np.zeros((3, 1)))
