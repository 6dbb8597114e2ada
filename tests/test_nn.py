"""Core network engine: forward, backward, projection, loss, updates."""

import copy
import itertools
import multiprocessing
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fronthaul import (channel, cloud, config as config_mod, data, edge, experiment, nn, oracles,
                       protocol)

DEFAULT_CONFIG = Path(__file__).parents[1] / "configs" / "default.txt"
# the benchmark's train-wide workload: configs/default.txt with these keys
WIDE = {"n_train": 16, "batch_size": 256, "branches": 12, "async": False,
        "encoder_sharing": False, "val_cadence": 0}


def rel_err(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.max(np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b))))


def fd_check(stack, x, upstream, step=1e-5, tol=1e-5):
    """Central finite differences of out @ upstream against backward, for
    one sample given as vectors and run as a (1, dim) row."""
    x, upstream = x.reshape(1, -1), upstream.reshape(1, -1)
    _, cache = nn.forward(stack, x)
    grads = nn.backward(stack, cache, upstream)

    def value():
        out, _ = nn.forward(stack, x)
        return float(out[0] @ upstream[0])

    for name, p in stack.params.items():
        flat = p.reshape(-1)
        gflat = grads.param_grads[name].reshape(-1)
        for idx in range(flat.size):
            old = flat[idx]
            flat[idx] = old + step
            hi = value()
            flat[idx] = old - step
            lo = value()
            flat[idx] = old
            fd = (hi - lo) / (2 * step)
            assert rel_err(fd, gflat[idx]) < tol, f"{name}[{idx}]"
    for j in range(x.size):
        old = x[0, j]
        x[0, j] = old + step
        hi = value()
        x[0, j] = old - step
        lo = value()
        x[0, j] = old
        fd = (hi - lo) / (2 * step)
        assert rel_err(fd, grads.input_grad[0, j]) < tol, f"input[{j}]"


def one_stack(layers, seed):
    """A one-slice stack set drawn from ``seed`` and its slice as a 2-D stack."""
    stack_set = nn.StackSet(layers, [seed])
    return stack_set, stack_set.slice_view(0)


class TestOneStack:
    def test_identity_dense(self):
        """A dense layer with identity weights and zero bias passes input through."""
        stack_set, stack = one_stack([nn.Dense(2, 2)], seed=0)
        stack_set.set_params({"dense0.w": np.eye(2)[None], "dense0.b": np.zeros((1, 2))})
        out, _ = nn.forward(stack, np.array([[1.0, 2.0]]))
        assert np.array_equal(out, [[1.0, 2.0]])

    def test_relu_definition(self):
        stack_set, stack = one_stack([nn.Dense(3, 3), nn.Relu()], seed=0)
        stack_set.set_params({"dense0.w": np.eye(3)[None], "dense0.b": np.zeros((1, 3))})
        out, _ = nn.forward(stack, np.array([[-1.0, 2.0, 0.0]]))
        assert np.array_equal(out, [[0.0, 2.0, 0.0]])

    def test_two_layer_matches_hand_composition(self):
        """Straight-line re-evaluation of the same weights agrees to 1e-12."""
        _, stack = one_stack([nn.Dense(4, 5), nn.Relu(), nn.Dense(5, 3)], seed=7)
        x = np.random.default_rng(1).normal(size=4)
        out, _ = nn.forward(stack, x[None, :])
        w0, b0 = stack.params["dense0.w"], stack.params["dense0.b"]
        w2, b2 = stack.params["dense2.w"], stack.params["dense2.b"]
        by_hand = w2 @ np.maximum(w0 @ x + b0, 0.0) + b2
        assert np.max(np.abs(out[0] - by_hand)) < 1e-12

    def test_dimension_mismatch_names_layer(self):
        with pytest.raises(ValueError, match="layer 1"):
            nn.StackSet([nn.Dense(3, 4), nn.Dense(5, 2)], [0])
        _, stack = one_stack([nn.Dense(3, 4)], seed=0)
        with pytest.raises(ValueError, match="layer 0"):
            nn.forward(stack, np.zeros((1, 5)))
        with pytest.raises(ValueError, match="batch of rows"):
            nn.forward(stack, np.zeros(3))

    def test_same_seed_bit_identical(self):
        layers = [nn.Dense(6, 8), nn.Relu(), nn.Dense(8, 4), nn.Projection(1.0)]
        a = nn.StackSet(layers, [42])
        b = nn.StackSet(layers, [42])
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])

    def test_param_count_pure_function_of_layers(self):
        layers = [nn.Dense(6, 8), nn.Relu(), nn.Dense(8, 4)]
        params = nn.StackSet(layers, [0]).params
        assert sum(p.size for p in params.values()) == 6 * 8 + 8 + 8 * 4 + 4
        assert nn.perceptron(6, 8, 4) == layers
        assert nn.param_count(layers) == 6 * 8 + 8 + 8 * 4 + 4
        # an encoder with its projection, a cloud branch and a baseline head
        for layout in ([*nn.perceptron(38, 32, 32, 8), nn.Projection(1.0, nn.SUM)],
                       nn.perceptron(8, 10, 6), nn.perceptron(16, 5, 5, 4)):
            assert nn.param_count(layout) == nn.StackSet(layout, [3]).buffer.size

    def test_params_are_views_of_one_buffer(self):
        """The named arrays tile one (1, P) buffer, name after name, through
        construction, set_params and deepcopy; stepping a deep copy leaves
        the original alone."""
        stack = nn.StackSet([nn.Dense(3, 4), nn.Relu(), nn.Dense(4, 2)], [1])

        def check(s):
            assert s.buffer.shape == (1, 3 * 4 + 4 + 4 * 2 + 2)
            assert np.concatenate([p.ravel() for p in s.params.values()]).tobytes() == \
                s.buffer.tobytes()
            assert all(np.shares_memory(p, s.buffer) for p in s.params.values())

        check(stack)
        stack.set_params({k: p + 1.0 for k, p in stack.params.items()})
        assert stack.version == 1
        check(stack)
        clone = copy.deepcopy(stack)
        check(clone)
        kept = stack.buffer.copy()
        nn.AdamOptimizer(0.1).step(clone, {k: np.ones_like(p) for k, p in clone.params.items()},
                                   1.0)
        assert stack.buffer.tobytes() == kept.tobytes() != clone.buffer.tobytes()
        assert (stack.version, clone.version) == (1, 2)

    def test_init_range_is_fan_scaled(self):
        stack = nn.StackSet([nn.Dense(30, 50)], [3])
        limit = np.sqrt(6.0 / 80.0)
        w = stack.params["dense0.w"]
        assert np.all(np.abs(w) <= limit)
        assert np.max(np.abs(w)) > 0.8 * limit  # actually fills the range


class TestBackward:
    def test_linear_map_adjoint(self):
        """For y = Wx the input gradient of upstream g is W^T g."""
        stack_set, stack = one_stack([nn.Dense(4, 3)], seed=5)
        stack_set.set_params({"dense0.w": stack_set.params["dense0.w"],
                              "dense0.b": np.zeros((1, 3))})
        x = np.arange(4.0)
        g = np.array([1.0, -2.0, 0.5])
        _, cache = nn.forward(stack, x[None, :])
        got = nn.backward(stack, cache, g[None, :])
        assert np.allclose(got.input_grad[0], stack.params["dense0.w"].T @ g, atol=1e-15)
        assert np.allclose(got.param_grads["dense0.w"], np.outer(g, x), atol=1e-15)

    def test_zero_upstream_zero_gradients(self):
        _, stack = one_stack([nn.Dense(4, 6), nn.Relu(), nn.Dense(6, 4),
                              nn.Projection(0.5)], seed=5)
        _, cache = nn.forward(stack, np.random.default_rng(0).normal(size=(1, 4)))
        got = nn.backward(stack, cache, np.zeros((1, 4)))
        assert np.all(got.input_grad == 0.0)
        assert all(np.all(g == 0.0) for g in got.param_grads.values())

    def test_three_layer_finite_differences(self):
        rng = np.random.default_rng(11)
        _, stack = one_stack([nn.Dense(5, 7), nn.Relu(), nn.Dense(7, 6),
                              nn.Projection(0.8)], seed=13)
        fd_check(stack, rng.normal(size=5), rng.normal(size=6))

    def test_stale_cache_rejected(self):
        stack_set, stack = one_stack([nn.Dense(3, 4)], seed=1)
        _, cache = nn.forward(stack, np.zeros((1, 3)))
        nn.SgdOptimizer(0.1).step(stack_set, {k: np.ones_like(v)
                                              for k, v in stack_set.params.items()}, divisor=1)
        with pytest.raises(ValueError, match="stale"):
            nn.backward(stack, cache, np.zeros((1, 4)))

    def test_foreign_cache_rejected(self):
        _, a = one_stack([nn.Dense(3, 4)], seed=1)
        _, b = one_stack([nn.Dense(3, 4)], seed=1)
        _, cache = nn.forward(a, np.zeros((1, 3)))
        with pytest.raises(ValueError, match="different parameter set"):
            nn.backward(b, cache, np.zeros((1, 4)))

    def test_batched_param_grads_sum_over_rows(self):
        _, stack = one_stack([nn.Dense(3, 2)], seed=2)
        xs = np.random.default_rng(3).normal(size=(4, 3))
        up = np.random.default_rng(4).normal(size=(4, 2))
        _, cache = nn.forward(stack, xs)
        batched = nn.backward(stack, cache, up)
        total = {k: np.zeros_like(v) for k, v in stack.params.items()}
        for b in range(4):
            _, c1 = nn.forward(stack, xs[b:b + 1])
            g1 = nn.backward(stack, c1, up[b:b + 1])
            for k in total:
                total[k] += g1.param_grads[k]
        for k in total:
            assert np.allclose(batched.param_grads[k], total[k], atol=1e-12)


class TestProjection:
    def test_clipped_pair_lands_on_budget(self):
        """A (3, 4) pair under unit budget rescales to (0.6, 0.8)."""
        out = nn.projection_forward(np.array([3.0, 4.0]), 1.0, nn.PER_RB)
        assert np.allclose(out, [0.6, 0.8], atol=1e-15)

    def test_pass_through_region_untouched(self):
        rng = np.random.default_rng(0)
        v = rng.uniform(-0.5, 0.5, size=8)  # all pair powers <= 0.5 < 1
        assert np.array_equal(nn.projection_forward(v, 1.0, nn.PER_RB), v)

    def test_sum_mode_scaling(self):
        v = np.full(4, 2.0)  # squared norm 16
        out = nn.projection_forward(v, 4.0, nn.SUM)
        assert np.allclose(out, v * 0.5, atol=1e-15)

    def test_odd_length_and_negative_power_rejected(self):
        with pytest.raises(ValueError, match="even"):
            nn.projection_forward(np.zeros(3), 1.0, nn.PER_RB)
        with pytest.raises(ValueError, match="power"):
            nn.projection_forward(np.zeros(4), -1.0, nn.PER_RB)

    @pytest.mark.parametrize("mode", [nn.PER_RB, nn.SUM])
    def test_idempotent(self, mode):
        rng = np.random.default_rng(8)
        v = rng.normal(size=10) * 3.0
        once = nn.projection_forward(v, 1.3, mode)
        twice = nn.projection_forward(once, 1.3, mode)
        assert np.allclose(once, twice, atol=1e-12)

    @pytest.mark.parametrize("mode", [nn.PER_RB, nn.SUM])
    def test_feasible_output(self, mode):
        rng = np.random.default_rng(9)
        for _ in range(200):
            v = rng.normal(size=12) * rng.uniform(0.1, 5.0)
            out = nn.projection_forward(v, 1.0, mode)
            if mode == nn.PER_RB:
                p = out[:6] ** 2 + out[6:] ** 2
                assert np.all(p <= 1.0 + 1e-12)
            else:
                assert np.sum(out * out) <= 1.0 + 1e-12

    def test_backward_identity_on_pass_through(self):
        v = np.full(6, 0.1)
        g = np.random.default_rng(1).normal(size=6)
        for mode in (nn.PER_RB, nn.SUM):
            assert np.array_equal(nn.projection_backward(v, 1.0, mode, g), g)

    def test_backward_zero_upstream(self):
        v = np.random.default_rng(2).normal(size=6) * 4
        assert np.all(nn.projection_backward(v, 1.0, nn.PER_RB, np.zeros(6)) == 0.0)

    @pytest.mark.parametrize("mode", [nn.PER_RB, nn.SUM])
    def test_backward_matches_finite_differences(self, mode):
        """Checked away from the budget boundary in both branches."""
        rng = np.random.default_rng(3)
        step = 1e-6
        for scale in (0.2, 3.0):  # pass-through and clipped regimes
            v = rng.normal(size=6) * scale
            g = rng.normal(size=6)
            an = nn.projection_backward(v, 1.0, mode, g)
            for j in range(6):
                vp, vm = v.copy(), v.copy()
                vp[j] += step
                vm[j] -= step
                fd = (nn.projection_forward(vp, 1.0, mode) @ g
                      - nn.projection_forward(vm, 1.0, mode) @ g) / (2 * step)
                assert rel_err(fd, an[j]) < 1e-5

    def test_boundary_uses_pass_through_branch(self):
        v = np.array([1.0, 0.0])  # pair power exactly equals the budget
        assert np.array_equal(nn.projection_forward(v, 1.0, nn.PER_RB), v)
        g = np.array([0.3, 0.7])
        assert np.array_equal(nn.projection_backward(v, 1.0, nn.PER_RB, g), g)
        # a zero budget: zero vectors sit on its boundary, anything else is clipped
        for mode in (nn.PER_RB, nn.SUM):
            zero = np.zeros(2)
            assert np.array_equal(nn.projection_forward(zero, 0.0, mode), zero)
            assert np.array_equal(nn.projection_backward(zero, 0.0, mode, g), g)
            assert np.all(nn.projection_forward(v, 0.0, mode) == 0.0)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_n(self):
        loss, _ = nn.softmax_cross_entropy(np.full((1, 10), 123.456), [3])
        assert abs(loss[0] - np.log(10)) < 1e-12

    def test_grad_sums_to_zero(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            _, grad = nn.softmax_cross_entropy(rng.normal(size=(1, 7)) * 10, [2])
            assert abs(grad.sum()) < 1e-12

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(1, 6))
        _, grad = nn.softmax_cross_entropy(logits, [4])
        step = 1e-6
        for j in range(6):
            zp, zm = logits.copy(), logits.copy()
            zp[0, j] += step
            zm[0, j] -= step
            fd = (nn.softmax_cross_entropy(zp, [4])[0][0]
                  - nn.softmax_cross_entropy(zm, [4])[0][0]) / (2 * step)
            assert abs(fd - grad[0, j]) < 1e-6

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="label"):
            nn.softmax_cross_entropy(np.zeros((1, 4)), [4])
        with pytest.raises(ValueError, match="label"):
            nn.softmax_cross_entropy(np.zeros((1, 4)), [-1])

    def test_batched_matches_single(self):
        """Each row of a batch gets the loss and gradient of that row alone;
        one sample is a (1, X) row, and a bare vector is rejected."""
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        losses, grads = nn.softmax_cross_entropy(logits, labels)
        for b in range(5):
            loss1, grad1 = nn.softmax_cross_entropy(logits[b:b + 1], labels[b:b + 1])
            assert abs(losses[b] - loss1[0]) < 1e-14
            assert np.allclose(grads[b], grad1[0], atol=1e-14)
        with pytest.raises(ValueError, match="batch"):
            nn.softmax_cross_entropy(logits[0], labels[0])

    @given(st.floats(-30.0, 30.0))
    @settings(max_examples=30, deadline=None)
    def test_softmax_normalized_at_any_magnitude(self, shift):
        """The class probabilities behind the gradient (gradient plus the
        one-hot label) sum to one at any logit magnitude."""
        _, grad = nn.softmax_cross_entropy(np.array([[1.0, 2.0, 3.0]]) + shift, [0])
        p = grad[0] + np.array([1.0, 0.0, 0.0])
        assert abs(p.sum() - 1.0) < 1e-12 and np.all(p > 0.0)


class TestSgdStep:
    def test_zero_rate_is_identity(self):
        params = {"w": np.ones((2, 2))}
        out = oracles.sgd_step(params, {"w": np.full((2, 2), 9.0)}, 0.0)
        assert np.array_equal(out["w"], params["w"])

    def test_arithmetic(self):
        out = oracles.sgd_step({"p": np.array(2.0)}, {"p": np.array(4.0)}, 0.25)
        assert out["p"] == 1.0

    def test_two_steps_equal_one_summed_step(self):
        rng = np.random.default_rng(7)
        params = {"w": rng.normal(size=3)}
        g1, g2 = rng.normal(size=3), rng.normal(size=3)
        stepped = oracles.sgd_step(oracles.sgd_step(params, {"w": g1}, 0.1), {"w": g2}, 0.1)
        merged = oracles.sgd_step(params, {"w": g1 + g2}, 0.1)
        assert np.allclose(stepped["w"], merged["w"], atol=1e-15)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            oracles.sgd_step({"w": np.zeros(3)}, {"w": np.zeros(4)}, 0.1)
        with pytest.raises(ValueError, match="names"):
            oracles.sgd_step({"w": np.zeros(3)}, {"v": np.zeros(3)}, 0.1)


class TestGradientProperty:
    def test_random_stacks_match_finite_differences(self):
        """Every supported layer type, random dims, double-precision FD."""
        rng = np.random.default_rng(21)
        for _ in range(10):
            in_dim = int(rng.integers(2, 6))
            mid = int(rng.integers(2, 7))
            out_dim = 2 * int(rng.integers(1, 4))
            mode = nn.PER_RB if rng.random() < 0.5 else nn.SUM
            _, stack = one_stack(
                [nn.Dense(in_dim, mid), nn.Relu(), nn.Dense(mid, out_dim),
                 nn.Projection(float(rng.uniform(0.3, 1.5)), mode)],
                seed=int(rng.integers(0, 1000)))
            fd_check(stack, rng.normal(size=in_dim) * 2, rng.normal(size=out_dim))

    def test_forward_deterministic_given_seed_and_input(self):
        layers = [nn.Dense(5, 6), nn.Relu(), nn.Dense(6, 4), nn.Projection(1.0)]
        x = np.random.default_rng(1).normal(size=(1, 5))
        outs = []
        for _ in range(2):
            _, stack = one_stack(layers, seed=77)
            out, cache = nn.forward(stack, x)
            grads = nn.backward(stack, cache, np.ones((1, 4)))
            outs.append((out, grads.input_grad))
        assert np.array_equal(outs[0][0], outs[1][0])
        assert np.array_equal(outs[0][1], outs[1][1])

    def test_cache_replay_reproduces_output(self):
        """Re-running each Dense and Projection layer on its cached input
        reproduces the output, and each ReLU's cached slope is its replayed
        input > 0."""
        _, stack = one_stack([nn.Dense(4, 6), nn.Relu(), nn.Dense(6, 4),
                              nn.Projection(0.7)], seed=9)
        x = np.random.default_rng(2).normal(size=(5, 4))
        out, cache = nn.forward(stack, x)
        h = x
        for idx, layer in enumerate(stack.layers):
            saved = cache.saved[idx]
            if isinstance(layer, nn.Relu):
                assert saved.dtype == bool and np.array_equal(saved, h > 0.0)
                assert saved.any() and not saved.all()
                h = np.maximum(h, 0.0)
                continue
            assert np.array_equal(h, saved)
            if isinstance(layer, nn.Dense):
                h = saved @ stack.params[f"dense{idx}.w"].T + stack.params[f"dense{idx}.b"]
            else:
                h = nn.projection_forward(saved, layer.power, layer.mode)
        assert np.array_equal(h, out)


class TestAdam:
    def test_first_step_direction_is_signed_gradient(self):
        stack = nn.StackSet([nn.Dense(2, 2)], [0])
        before = {k: v.copy() for k, v in stack.params.items()}
        opt = nn.AdamOptimizer(eta=0.1)
        grads = {"dense0.w": np.array([[[1.0, -2.0], [0.0, 3.0]]]),
                 "dense0.b": np.array([[1.0, -1.0]])}
        opt.step(stack, grads, divisor=1.0)
        delta = stack.params["dense0.w"] - before["dense0.w"]
        expect = -0.1 * np.sign(grads["dense0.w"])
        nonzero = grads["dense0.w"] != 0
        assert np.allclose(delta[nonzero], expect[nonzero], rtol=1e-6)

    def test_divisor_scales_like_mean(self):
        a = nn.StackSet([nn.Dense(2, 2)], [0])
        b = nn.StackSet([nn.Dense(2, 2)], [0])
        g = {"dense0.w": np.ones((1, 2, 2)), "dense0.b": np.ones((1, 2))}
        nn.AdamOptimizer(eta=0.05).step(a, {k: 4 * v for k, v in g.items()}, divisor=4.0)
        nn.AdamOptimizer(eta=0.05).step(b, g, divisor=1.0)
        for k in a.params:
            assert np.allclose(a.params[k], b.params[k], atol=1e-15)


class StackedParams(nn.ParamSet):
    """Parameters with a leading slice axis, as an optimizer steps them:
    one buffer row per slice."""

    def __init__(self, params):
        self._hold(params, slices=len(next(iter(params.values()))))


class TestPerSliceDivisor:
    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_each_slice_steps_alone(self, optimizer):
        """With one divisor per slice along the leading axis, each slice
        lands where its own optimizer on that slice alone lands, bit for
        bit, over steps in which the slices have no sample in turn; a slice
        with divisor 0 keeps its parameters, moments and step count."""
        rng = np.random.default_rng(47)
        layers = [nn.Dense(5, 7), nn.Relu(), nn.Dense(7, 3)]
        lone = [nn.StackSet(layers, [s]) for s in (1, 2, 3)]
        stacked = StackedParams({k: np.concatenate([s.params[k] for s in lone])
                                 for k in lone[0].params})
        opt = nn.make_optimizer(optimizer, 0.01)
        lone_opts = [nn.make_optimizer(optimizer, 0.01) for _ in lone]
        for counts in ([3, 1, 4], [0, 2, 5], [6, 0, 0], [2, 2, 2], [1, 0, 3]):
            grads = {k: rng.normal(size=p.shape) for k, p in stacked.params.items()}
            before = {k: p.copy() for k, p in stacked.params.items()}
            opt.step(stacked, grads, np.array(counts))
            for i, count in enumerate(counts):
                if count:
                    lone_opts[i].step(lone[i], {k: g[i:i + 1] for k, g in grads.items()}, count)
                for k, p in stacked.params.items():
                    assert np.array_equal(p[i], lone[i].params[k][0]), (counts, i, k)
                    if not count:
                        assert np.array_equal(p[i], before[k][i])
        if optimizer == "adam":
            assert opt.t.tolist() == [lone_opts[i].t for i in range(3)] == [4, 3, 4]
            for i in range(3):
                for k in opt.m:
                    assert np.array_equal(opt.m[k][i], lone_opts[i].m[k][0])
                    assert np.array_equal(opt.v[k][i], lone_opts[i].v[k][0])


# --- the kernels' earlier formulas, kept as references -------------------


def ref_forward(stack, x):
    h = x
    for idx, layer in enumerate(stack.layers):
        if isinstance(layer, nn.Dense):
            h = h @ stack.params[f"dense{idx}.w"].T + stack.params[f"dense{idx}.b"]
        elif isinstance(layer, nn.Relu):
            h = np.maximum(h, 0.0)
        else:
            h = ref_projection_forward(h, layer.power, layer.mode)
    return h


def ref_backward(stack, x, upstream):
    inputs = []
    h = x
    for idx, layer in enumerate(stack.layers):
        inputs.append(h)
        if isinstance(layer, nn.Dense):
            h = h @ stack.params[f"dense{idx}.w"].T + stack.params[f"dense{idx}.b"]
        elif isinstance(layer, nn.Relu):
            h = np.maximum(h, 0.0)
        else:
            h = ref_projection_forward(h, layer.power, layer.mode)
    g = upstream
    grads = {}
    for idx in reversed(range(len(stack.layers))):
        layer, h_in = stack.layers[idx], inputs[idx]
        if isinstance(layer, nn.Dense):
            grads[f"dense{idx}.w"] = g.T @ h_in
            grads[f"dense{idx}.b"] = g.sum(axis=0)
            g = g @ stack.params[f"dense{idx}.w"]
        elif isinstance(layer, nn.Relu):
            g = np.where(h_in > 0.0, g, 0.0)
        else:
            g = ref_projection_backward(h_in, layer.power, layer.mode, g)
    return grads, g


def ref_projection_forward(v, power, mode):
    if mode == nn.PER_RB:
        half = v.shape[-1] // 2
        vr, vi = v[..., :half], v[..., half:]
        p = vr * vr + vi * vi
        clipped = p > power
        scale = np.where(clipped, np.sqrt(power / np.where(clipped, p, 1.0)), 1.0)
        return np.concatenate([vr * scale, vi * scale], axis=-1)
    total = np.sum(v * v, axis=-1, keepdims=True)
    clipped = total > power
    scale = np.where(clipped, np.sqrt(power / np.where(clipped, total, 1.0)), 1.0)
    return v * scale


def ref_projection_backward(v, power, mode, g):
    if mode == nn.PER_RB:
        half = v.shape[-1] // 2
        vr, vi = v[..., :half], v[..., half:]
        gr, gi = g[..., :half], g[..., half:]
        p = vr * vr + vi * vi
        clipped = p > power
        safe_p = np.where(clipped, p, 1.0)
        coef = np.where(clipped, np.sqrt(power / safe_p), 1.0)
        dot = np.where(clipped, (gr * vr + gi * vi) / safe_p, 0.0)
        return np.concatenate([coef * (gr - vr * dot), coef * (gi - vi * dot)], axis=-1)
    total = np.sum(v * v, axis=-1, keepdims=True)
    clipped = total > power
    safe_t = np.where(clipped, total, 1.0)
    coef = np.where(clipped, np.sqrt(power / safe_t), 1.0)
    dot = np.where(clipped, np.sum(g * v, axis=-1, keepdims=True) / safe_t, 0.0)
    return coef * (g - v * dot)


def concat_budget_scale(sq, power):
    denom = np.maximum(sq, power)
    if power == 0.0:
        boundary = denom == 0.0
        denom[boundary] = 1.0
        return boundary.astype(float), denom
    return np.sqrt(power / denom), denom


def concat_projection_forward(v, power, mode):
    """The projection as it was written with separate halves and
    ``np.concatenate``, the bits the in-place passes keep."""
    if mode == nn.PER_RB:
        half = v.shape[-1] // 2
        vr, vi = v[..., :half], v[..., half:]
        scale, _ = concat_budget_scale(vr * vr + vi * vi, power)
        return np.concatenate([vr * scale, vi * scale], axis=-1)
    scale, _ = concat_budget_scale(np.sum(v * v, axis=-1, keepdims=True), power)
    return v * scale


def concat_projection_backward(v, power, mode, g):
    if mode == nn.PER_RB:
        half = v.shape[-1] // 2
        vr, vi = v[..., :half], v[..., half:]
        gr, gi = g[..., :half], g[..., half:]
        p = vr * vr + vi * vi
        coef, denom = concat_budget_scale(p, power)
        dot = (gr * vr + gi * vi) / denom * (p > power)
        return np.concatenate([coef * (gr - vr * dot), coef * (gi - vi * dot)], axis=-1)
    total = np.sum(v * v, axis=-1, keepdims=True)
    coef, denom = concat_budget_scale(total, power)
    dot = np.sum(g * v, axis=-1, keepdims=True) / denom * (total > power)
    return coef * (g - v * dot)


def ref_adam(params, grad_steps, divisor, eta=0.01, beta1=0.9, beta2=0.999, eps=1e-8):
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    for t, grads in enumerate(grad_steps, start=1):
        new = {}
        for name, p in params.items():
            g = grads[name] / divisor
            m[name] = beta1 * m[name] + (1.0 - beta1) * g
            v[name] = beta2 * v[name] + (1.0 - beta2) * g * g
            m_hat = m[name] / (1.0 - beta1 ** t)
            v_hat = v[name] / (1.0 - beta2 ** t)
            new[name] = p - eta * m_hat / (np.sqrt(v_hat) + eps)
        params = new
    return params, m, v


def same_bits(a, b):
    """Equal bit for bit, except that -0.0 and +0.0 count as the same zero.

    The ReLU backward multiplies by its mask, so a negative gradient at a
    dead unit becomes -0.0 where np.where gave +0.0; adding +0.0 maps both
    to +0.0 and leaves every other value alone.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and (a + 0.0).tobytes() == (b + 0.0).tobytes()


def snapshot(arrays):
    return [np.array(a, copy=True) for a in arrays]


def unchanged(before, after):
    return all(x.tobytes() == np.asarray(y).tobytes() for x, y in zip(before, after))


KERNEL_STACKS = {
    "relu-inside": [nn.Dense(6, 9), nn.Relu(), nn.Dense(9, 4)],
    "ends-in-relu": [nn.Dense(6, 9), nn.Relu(), nn.Dense(9, 5), nn.Relu()],
    "per-rb-projection": [nn.Dense(6, 9), nn.Relu(), nn.Dense(9, 8), nn.Projection(0.7)],
    "sum-projection": [nn.Dense(6, 9), nn.Relu(), nn.Dense(9, 8),
                       nn.Projection(2.0, nn.SUM)],
}


def kernel_set(name, seeds):
    """The KERNEL_STACKS stacks of ``seeds`` as one stack set, with nonzero
    biases (they start at zero): slice k's drawn from ``seeds[k]``."""
    stack_set = nn.StackSet(KERNEL_STACKS[name], seeds)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    stack_set.set_params({k: np.stack([v[i] + rng.normal(size=v.shape[1:])
                                       for i, rng in enumerate(rngs)])
                          if k.endswith(".b") else v for k, v in stack_set.params.items()})
    return stack_set


def kernel_stack(name, seed):
    """A stack from KERNEL_STACKS with nonzero biases, as the 2-D slice of
    a set of its own."""
    return kernel_set(name, [seed]).slice_view(0)


class TestKernelsMatchReferences:
    @pytest.mark.parametrize("name", sorted(KERNEL_STACKS))
    def test_forward_and_backward_match_reference(self, name):
        """Forward output, input gradient and weight gradients are bit-identical
        to the np.where formulas; bias gradients match g.sum(axis=0) to 1e-12."""
        rng = np.random.default_rng(31)
        stack = kernel_stack(name, seed=5)
        for rows in (1, 7, 256):
            x = rng.normal(size=(rows, 6)) * 2.0
            out, cache = nn.forward(stack, x)
            assert out.tobytes() == ref_forward(stack, x).tobytes()
            upstream = rng.normal(size=out.shape)
            got = nn.backward(stack, cache, upstream)
            grads, input_grad = ref_backward(stack, x, upstream)
            assert same_bits(got.input_grad, input_grad)
            for pname, ref in grads.items():
                if pname.endswith(".b"):
                    assert np.allclose(got.param_grads[pname], ref, rtol=1e-12, atol=0.0), pname
                else:
                    assert same_bits(got.param_grads[pname], ref), pname

    @pytest.mark.parametrize("name", sorted(KERNEL_STACKS))
    def test_backward_without_input_gradient(self, name):
        """``input_grad=False`` gives the default call's parameter gradients
        bit for bit and no input gradient; every ReLU caches bools."""
        rng = np.random.default_rng(37)
        stack = kernel_stack(name, seed=8)
        for rows in (1, 7, 256):
            out, cache = nn.forward(stack, rng.normal(size=(rows, 6)) * 2.0)
            assert all(saved.dtype == bool for layer, saved in zip(stack.layers, cache.saved)
                       if isinstance(layer, nn.Relu))
            upstream = rng.normal(size=out.shape)
            full = nn.backward(stack, cache, upstream)
            params_only = nn.backward(stack, cache, upstream, input_grad=False)
            assert full.input_grad is not None and params_only.input_grad is None
            assert list(params_only.param_grads) == list(full.param_grads)
            for pname, grad in full.param_grads.items():
                assert same_bits(params_only.param_grads[pname], grad), pname

    @pytest.mark.parametrize("mode", [nn.PER_RB, nn.SUM])
    @pytest.mark.parametrize("power", [0.0, 0.25, 1.0, 4.0])
    def test_projection_matches_reference(self, mode, power):
        """Both directions, bit for bit, over clipped, inside and boundary points."""
        rng = np.random.default_rng(int(power * 8) + (mode == nn.SUM))
        v = rng.normal(size=(300, 8)) * rng.uniform(0.0, 3.0, size=(300, 1))
        v[:20] = 0.0  # zero power: the boundary of a zero budget
        # rows exactly on the boundary, p == P, in per-RB and in sum mode
        r = np.sqrt(power)
        v[20:24] = [[r, 0, 0, 0, 0, 0, 0, 0], [0, r, 0, 0, 0, 0, r, 0],
                    [0, 0, 0, 0, 0, 0, 0, -r], [-r, 0, 0, 0, 0, 0, 0, 0]]
        v[24] = [r / 2, r / 2, r / 2, r / 2, 0, 0, 0, 0]  # sum mode's boundary
        g = rng.normal(size=v.shape)
        assert nn.projection_forward(v, power, mode).tobytes() == \
            ref_projection_forward(v, power, mode).tobytes()
        assert nn.projection_backward(v, power, mode, g).tobytes() == \
            ref_projection_backward(v, power, mode, g).tobytes()

    @pytest.mark.parametrize("shape", [(300, 8), (16, 256, 16), (5, 40, 6)])
    @pytest.mark.parametrize("mode", [nn.PER_RB, nn.SUM])
    @pytest.mark.parametrize("power", [0.0, 0.25, 1.0, 4.0])
    def test_projection_matches_concatenate_formulas(self, mode, power, shape):
        """Both directions, bit for bit, against the per-half formulas joined
        by ``np.concatenate``: on batches of rows and node-first batches,
        over clipped, inside, zero and on-budget entries."""
        rng = np.random.default_rng(len(shape) * 100 + shape[-1] + int(power * 8)
                                    + (mode == nn.SUM))
        v = rng.normal(size=shape) * rng.uniform(0.0, 3.0, size=(*shape[:-1], 1))
        flat = v.reshape(-1, shape[-1])
        half = shape[-1] // 2
        r = np.sqrt(power)
        flat[:10] = 0.0  # zero power: the boundary of a zero budget
        flat[10:13] = 0.0
        flat[10, 0] = r  # per-RB entries exactly on the budget, p == P
        flat[11, [1, half + 1]] = r / np.sqrt(2.0), r / np.sqrt(2.0)
        flat[12, -1] = -r
        flat[13] = r / np.sqrt(shape[-1])  # sum mode's boundary, up to rounding
        flat[14] = 0.0
        flat[14, [0, half]] = r  # a row whose sum is 2P and whose RB 0 holds it all
        g = rng.normal(size=shape)
        for got, want in ((nn.projection_forward(v, power, mode),
                           concat_projection_forward(v, power, mode)),
                          (nn.projection_backward(v, power, mode, g),
                           concat_projection_backward(v, power, mode, g))):
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_adam_steps_match_reference(self):
        rng = np.random.default_rng(41)
        stack = nn.StackSet([nn.Dense(5, 7), nn.Relu(), nn.Dense(7, 3)], [2])
        start = {k: v.copy() for k, v in stack.params.items()}
        steps = [{k: rng.normal(size=v.shape) * 10 ** rng.uniform(-3, 1)
                  for k, v in start.items()} for _ in range(6)]
        opt = nn.AdamOptimizer(eta=0.01)
        for grads in steps:
            opt.step(stack, grads, divisor=3.0)
        params, m, v = ref_adam(start, steps, divisor=3.0)
        for name in start:
            assert stack.params[name].tobytes() == params[name].tobytes(), name
            assert opt.m[name].tobytes() == m[name].tobytes(), name
            assert opt.v[name].tobytes() == v[name].tobytes(), name


def node_stacked(name, seeds):
    """The kernel stacks of ``seeds`` as the node-first view of one stack
    set, the form ``nn.forward`` reads, and each as a 2-D stack of a set of
    its own."""
    return (kernel_set(name, seeds).node_range(0, len(seeds)),
            [kernel_stack(name, seed) for seed in seeds])


class TestStackSet:
    def test_slices_are_the_seeds_draws(self):
        """Slice k of ``StackSet(layers, seeds)`` is ``init_params(layers,
        seeds[k])`` bit for bit; a seed may serve two slices."""
        layers = KERNEL_STACKS["per-rb-projection"]
        stack_set = nn.StackSet(layers, [4, 9, 4])
        for k, seed in enumerate([4, 9, 4]):
            draw = nn.init_params(layers, seed)
            assert list(stack_set.params) == list(draw)
            for name, p in draw.items():
                assert stack_set.params[name][k].tobytes() == p.tobytes(), (k, name)
        assert nn.check_layers(layers) == stack_set.layers == tuple(layers)

    def test_slices_hold_the_stacks_bits(self):
        """Slice i holds stack i's parameters bit for bit; the 2-D slice
        views, the node-first view and the stacked arrays are views of the
        set's one buffer."""
        lone = [kernel_stack("relu-inside", seed) for seed in (1, 2, 3)]
        stack_set = kernel_set("relu-inside", (1, 2, 3))
        assert stack_set.n_slices == 3 and stack_set.layers == lone[0].layers
        assert list(stack_set.params) == list(lone[0].params)
        for i, stack in enumerate(lone):
            view = stack_set.slice_view(i)
            for k, p in stack.params.items():
                assert view.params[k].tobytes() == p.tobytes()
                assert stack_set.params[k][i].tobytes() == p.tobytes()
                assert np.shares_memory(view.params[k], stack_set.buffer)
        first = stack_set.node_range(0, 2)
        assert first.layers == stack_set.layers and first.in_dim == 6
        for k, p in first.params.items():
            assert p.shape == (2, *lone[0].params[k].shape)
            assert np.shares_memory(p, stack_set.buffer)

    def test_node_range_reads_its_own_slices(self):
        """Nodes 1 and 2 read slices 1 and 2; a set of one slice yields that
        slice for any range."""
        lone = [kernel_stack("relu-inside", seed) for seed in (1, 2, 3)]
        later = kernel_set("relu-inside", (1, 2, 3)).node_range(1, 3)
        single = kernel_set("relu-inside", (1,)).node_range(4, 7)
        for k, p in later.params.items():
            assert p.tobytes() == np.stack([lone[1].params[k], lone[2].params[k]]).tobytes()
            assert single.params[k].tobytes() == lone[0].params[k][None].tobytes()

    def test_backward_checks_the_set_a_view_names(self):
        """A view cache answers to the set its forward pass read: any view of
        that set at the same version serves, with the same bits; a view of
        another set, of its slices or of one slice of its own, is a different
        set; a change of the set makes the cache stale."""
        stack_set = kernel_set("relu-inside", (1, 2))
        other = copy.deepcopy(stack_set)
        rng = np.random.default_rng(7)
        x, upstream = rng.normal(size=(2, 5, 6)), rng.normal(size=(2, 5, 4))
        _, cache = nn.forward(stack_set.node_range(0, 2), x)
        want = nn.backward(cache.stack, cache, upstream)
        got = nn.backward(stack_set.node_range(0, 2), cache, upstream)
        assert got.input_grad.tobytes() == want.input_grad.tobytes()
        for k, g in want.param_grads.items():
            assert got.param_grads[k].tobytes() == g.tobytes(), k
        for foreign in (other.node_range(0, 2), kernel_stack("relu-inside", 1)):
            with pytest.raises(ValueError, match="different parameter set"):
                nn.backward(foreign, cache, upstream)
        stack_set.set_params(stack_set.params)
        with pytest.raises(ValueError, match="stale"):
            nn.backward(cache.stack, cache, upstream)

    def test_a_set_of_no_stacks_has_no_parameters(self):
        empty = nn.StackSet(KERNEL_STACKS["relu-inside"], [])
        assert empty.params == {} and empty.n_slices == 0
        empty.set_params({})
        assert empty.version == 1


class TestStackedCalls:
    @pytest.mark.parametrize("name", sorted(KERNEL_STACKS))
    @pytest.mark.parametrize("seeds", [(5, 6, 7), (5,)], ids=["dedicated", "shared"])
    @pytest.mark.parametrize("input_grad", [True, False])
    def test_equal_per_slice_calls(self, name, seeds, input_grad, monkeypatch):
        """One call on node-first rows gives, byte for byte, the output and
        gradients of one 2-D call per node on its slice (the shared slice
        for every node when there is one), whether or not the call splits
        its nodes across the worker thread and the caller."""
        rng = np.random.default_rng(53)
        stacked, lone = node_stacked(name, seeds)
        n = 3
        for rows, split_values in itertools.product((1, 7, 256), (nn._SPLIT_VALUES, 0)):
            monkeypatch.setattr(nn, "_SPLIT_VALUES", split_values)
            x = rng.normal(size=(n, rows, 6)) * 2.0
            out, cache = nn.forward(stacked, x)
            upstream = rng.normal(size=out.shape)
            got = nn.backward(stacked, cache, upstream, input_grad=input_grad)
            for i in range(n):
                stack = lone[i % len(lone)]
                want_out, c = nn.forward(stack, x[i])
                want = nn.backward(stack, c, upstream[i], input_grad=input_grad)
                assert out[i].tobytes() == want_out.tobytes()
                assert (got.input_grad is None) == (not input_grad)
                if input_grad:
                    assert got.input_grad[i].tobytes() == want.input_grad.tobytes()
                for pname, grad in want.param_grads.items():
                    assert got.param_grads[pname].shape == (n, *grad.shape)
                    assert got.param_grads[pname][i].tobytes() == grad.tobytes(), pname

    @pytest.mark.parametrize("name", sorted(KERNEL_STACKS))
    @pytest.mark.parametrize("seeds", [(5, 6, 7), (5,)], ids=["dedicated", "shared"])
    def test_forward_only_equals_cached_forward(self, name, seeds):
        """``keep_cache=False`` gives the cached call's output byte for byte,
        leaves the rows alone and returns no cache, on node-first rows and
        on one node's 2-D slice."""
        rng = np.random.default_rng(59)
        stacked, lone = node_stacked(name, seeds)
        for rows in (1, 7, 256):
            x = rng.normal(size=(3, rows, 6)) * 2.0
            before = snapshot([x])
            for stack, batch in ((stacked, x), (lone[0], x[0])):
                want, cache = nn.forward(stack, batch)
                got, none = nn.forward(stack, batch, keep_cache=False)
                assert cache is not None and none is None
                assert got.tobytes() == want.tobytes()
            assert unchanged(before, [x])

    def test_node_count_must_match_or_be_one(self):
        stacked, _ = node_stacked("relu-inside", (1, 2, 3))
        for n in (2, 4):
            with pytest.raises(ValueError, match=f"input for {n} nodes, parameters for 3"):
                nn.forward(stacked, np.zeros((n, 5, 6)))
        with pytest.raises(ValueError, match="layer 0 input has dim 5"):
            nn.forward(stacked, np.zeros((3, 5, 5)))

    def test_rows_and_weights_agree_in_rank(self):
        stacked, lone = node_stacked("relu-inside", (1,))
        with pytest.raises(ValueError, match="3-D input needs node-stacked weights"):
            nn.forward(lone[0], np.zeros((1, 5, 6)))
        with pytest.raises(ValueError, match="2-D input needs 2-D weights"):
            nn.forward(stacked, np.zeros((5, 6)))

    @pytest.mark.parametrize("shape", [(6,), (1, 1, 5, 6)])
    def test_other_ranks_are_not_a_batch_of_rows(self, shape):
        stacked, lone = node_stacked("relu-inside", (1,))
        for stack in (stacked, lone[0]):
            with pytest.raises(ValueError, match="batch of rows"):
                nn.forward(stack, np.zeros(shape))


class TestKernelsLeaveInputsAlone:
    @pytest.mark.parametrize("name", sorted(KERNEL_STACKS))
    @pytest.mark.parametrize("rows", [1, 16])
    def test_no_call_writes_into_its_inputs(self, name, rows):
        """forward leaves x alone; backward leaves upstream, the cached layer
        inputs and slopes and the parameters alone (a stack ending in Relu
        hands the caller's upstream straight to the ReLU backward)."""
        rng = np.random.default_rng(43)
        stack = kernel_stack(name, seed=6)
        x = rng.normal(size=(rows, 6))
        x_before = snapshot([x])
        out, cache = nn.forward(stack, x)
        assert unchanged(x_before, [x])
        upstream = rng.normal(size=out.shape)
        guarded = [upstream, *cache.saved, *stack.params.values()]
        before = snapshot(guarded)
        names_before = list(stack.params)
        nn.backward(stack, cache, upstream)
        assert unchanged(before, guarded)
        assert list(stack.params) == names_before

    def test_adam_leaves_gradients_alone(self):
        stack = nn.StackSet([nn.Dense(3, 2)], [0])
        grads = {k: np.full(v.shape, 0.5) for k, v in stack.params.items()}
        before = snapshot(grads.values())
        old_params = dict(stack.params)
        params_before = snapshot(old_params.values())
        opt = nn.AdamOptimizer(eta=0.1)
        opt.step(stack, grads, divisor=2.0)
        opt.step(stack, grads, divisor=2.0)
        assert unchanged(before, grads.values())
        # params are live views of the buffer: a dict held across the steps
        # holds the same arrays, stepped in place
        assert all(old_params[k] is p for k, p in stack.params.items())
        assert not unchanged(params_before, old_params.values())


class TestInputChecks:
    """Each check raises its own message, so no later error stands in for it."""

    @pytest.mark.parametrize("layers, message", [
        ([], "at least one layer"),
        ([nn.Relu(), nn.Dense(4, 4)], "layer 0 must be dense"),
        ([nn.Dense(3, 4), nn.Projection(-1.0, nn.PER_RB)], "negative power budget"),
        ([nn.Dense(3, 4), nn.Projection(1.0, "peak")], "unknown projection mode"),
    ], ids=["empty", "first-not-dense", "negative-power", "unknown-mode"])
    def test_check_layers(self, layers, message):
        with pytest.raises(ValueError, match=message):
            nn.check_layers(layers)

    def test_projection_forward_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown projection mode"):
            nn.projection_forward(np.ones(4), 1.0, "peak")

    @pytest.mark.parametrize("v, power, mode, upstream, message", [
        (np.ones(3), 1.0, nn.PER_RB, np.ones(3), "length must be even"),
        (np.ones(4), -1.0, nn.PER_RB, np.ones(4), "power budget must be nonnegative"),
        (np.ones(4), 1.0, nn.PER_RB, np.ones(6), "upstream shape must match"),
        (np.ones(4), 1.0, "peak", np.ones(4), "unknown projection mode"),
    ], ids=["odd-length", "negative-power", "mismatched-shapes", "unknown-mode"])
    def test_projection_backward(self, v, power, mode, upstream, message):
        with pytest.raises(ValueError, match=message):
            nn.projection_backward(v, power, mode, upstream)

    def test_make_optimizer_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown optimizer 'rmsprop'"):
            nn.make_optimizer("rmsprop", 0.1)


class HalfFailed(Exception):
    pass


def default_state(**overrides):
    """A fresh training state of configs/default.txt with ``overrides``."""
    cfg = {**config_mod.load_config(DEFAULT_CONFIG), **overrides}
    dataset = experiment.build_dataset(cfg)
    return protocol.init_state(
        config_mod.to_training_config(cfg, dataset.obs_dim, dataset.n_classes), dataset)


def split_in_child():
    """A split in a forked child; exits nonzero unless both halves ran, on two threads."""
    threads = set()
    nn._split(2, 1, lambda lo, hi: threads.add(threading.get_ident()))
    sys.exit(0 if len(threads) == 2 else 1)


class SpyWorker:
    """Stands in for ``nn._WORKER``: records each submitted function, then
    submits it to the real worker."""

    def __init__(self, worker):
        self.worker = worker
        self.submitted = []

    def submit(self, fn, *args):
        self.submitted.append(fn)
        return self.worker.submit(fn, *args)


class TestSplit:
    """``nn._split`` runs two halves of a node range at once, one on the
    worker thread and one on the caller, and ``nn._in_background`` one task
    on the worker, once the work is large enough."""

    def test_halves_run_on_the_worker_and_the_caller(self, monkeypatch):
        monkeypatch.setattr(nn, "_SPLIT_VALUES", 10)
        here = threading.get_ident()
        seen = []

        def work(lo, hi):
            seen.append((lo, hi, threading.get_ident() == here))

        nn._split(5, 20, work)
        assert sorted(seen) == [(0, 2, True), (2, 5, False)]
        for n, values in ((5, 19), (1, 10 ** 9)):  # too small a half, or one node
            seen.clear()
            nn._split(n, values, work)
            assert seen == [(0, n, True)]

    def test_worker_exception_reraises_here_and_the_worker_goes_on(self, monkeypatch):
        """An exception of the worker's half or task re-raises on the caller
        with its type; the next split runs on the same worker as before."""
        monkeypatch.setattr(nn, "_SPLIT_VALUES", 0)

        def work(lo, hi):
            if lo > 0:
                raise HalfFailed(f"nodes {lo} to {hi}")

        with pytest.raises(HalfFailed, match="nodes 2 to 4"):
            nn._split(4, 1, work)

        def task():
            raise HalfFailed("in the background")

        join = nn._in_background(1, task)
        with pytest.raises(HalfFailed, match="in the background"):
            join()
        threads = set()
        nn._split(4, 1, lambda lo, hi: threads.add(threading.get_ident()))
        assert len(threads) == 2
        nn._in_background(1, lambda: threads.add(threading.get_ident()))()
        assert len(threads) == 2

    def test_caller_exception_waits_for_the_worker_half(self, monkeypatch):
        """The caller's half raising leaves the worker's half to finish before
        the exception leaves ``_split``: no half still writes afterwards."""
        monkeypatch.setattr(nn, "_SPLIT_VALUES", 0)
        done = threading.Event()

        def work(lo, hi):
            if lo == 0:
                raise HalfFailed("caller")
            time.sleep(0.05)
            done.set()

        with pytest.raises(HalfFailed, match="caller"):
            nn._split(2, 1, work)
        assert done.is_set()

    def test_a_forked_child_splits_on_a_worker_of_its_own(self, monkeypatch):
        """After the worker thread has run, a forked child, where that thread
        does not exist, still runs both halves of a split."""
        monkeypatch.setattr(nn, "_SPLIT_VALUES", 0)
        nn._split(2, 1, lambda lo, hi: None)
        child = multiprocessing.get_context("fork").Process(target=split_in_child)
        child.start()
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0

    def test_split_layer_loops_match_under_a_short_switch_interval(self, monkeypatch):
        """With the interpreter switching threads every 10 us, split forward
        and backward passes over 16 nodes give the serial call's bytes, call
        after call: the halves write disjoint parts of the arrays."""
        stacked, _ = node_stacked("per-rb-projection", list(range(16)))
        rng = np.random.default_rng(61)
        x = rng.normal(size=(16, 33, 6))
        out, cache = nn.forward(stacked, x)
        upstream = rng.normal(size=out.shape)
        want = nn.backward(stacked, cache, upstream)
        monkeypatch.setattr(nn, "_SPLIT_VALUES", 0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            deadline = time.perf_counter() + 2.0
            for _ in range(40):
                got_out, got_cache = nn.forward(stacked, x)
                got = nn.backward(stacked, got_cache, upstream)
                assert got_out.tobytes() == out.tobytes()
                assert got.input_grad.tobytes() == want.input_grad.tobytes()
                for name, grad in want.param_grads.items():
                    assert got.param_grads[name].tobytes() == grad.tobytes(), name
                if time.perf_counter() > deadline:
                    break
        finally:
            sys.setswitchinterval(interval)

    def test_default_shapes_stay_serial_and_wide_shapes_split(self, monkeypatch):
        """At configs/default.txt's shapes a round, a validation pass and
        evaluation over n_test 1 to 12 in turn submit nothing to the worker.
        A round at the benchmark's train-wide shapes submits four pieces of
        work: the link noise, the encoders' forward and backward passes and
        the cloud's first-layer backward loop."""
        spy = SpyWorker(nn._WORKER)
        monkeypatch.setattr(nn, "_WORKER", spy)
        state = default_state()
        protocol.run_training_round(state, 1)
        protocol.evaluate(state, "val", n_test=state.config.n_train,
                          snr_db=state.config.eval_snr_db)
        for n_test in range(1, 13):
            protocol.evaluate(state, "test", n_test=n_test, snr_db=10.0)
        assert spy.submitted == []
        protocol.run_training_round(default_state(**WIDE), 1)
        assert sorted(fn.__module__ for fn in spy.submitted) == [
            "fronthaul.cloud", "fronthaul.nn", "fronthaul.nn", "fronthaul.protocol"]

    def test_the_worker_allocates_no_large_array(self, monkeypatch):
        """Each piece of work a train-wide round hands the worker allocates
        under 128 KB at its peak, run here one at a time under tracemalloc:
        what the worker frees stays in its own malloc arena, out of the
        caller's reach. A projection there allocated 0.5 MB."""
        peaks = {}

        class Inline:
            def submit(self, fn, *args):
                before, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                fn(*args)
                peaks[fn.__qualname__] = tracemalloc.get_traced_memory()[1] - before
                return lambda: None

        state = default_state(**WIDE)
        monkeypatch.setattr(nn, "_WORKER", Inline())
        tracemalloc.start()
        try:
            protocol.run_training_round(state, 1)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 4
        assert max(peaks.values()) < 128 * 1024, peaks

    def test_the_worker_calls_no_public_function(self, monkeypatch):
        """Every call of a public function of channel, cloud, data, edge and
        nn in a split round comes from the calling thread: the benchmark's
        tracer wraps those functions with one span stack."""
        here = threading.get_ident()
        threads = []

        def watched(fn):
            def call(*args, **kwargs):
                threads.append(threading.get_ident())
                return fn(*args, **kwargs)
            return call

        state = default_state(**WIDE)
        monkeypatch.setattr(nn, "_SPLIT_VALUES", 0)
        for module in (channel, cloud, data, edge, nn):
            for name, fn in vars(module).items():
                if (not name.startswith("_") and callable(fn) and not isinstance(fn, type)
                        and getattr(fn, "__module__", None) == module.__name__):
                    monkeypatch.setattr(module, name, watched(fn))
        protocol.run_training_round(state, 1)
        assert len(threads) > 10 and set(threads) == {here}
