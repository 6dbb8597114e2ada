"""Fronthaul channel model: fading statistics, the real row form, both link directions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fronthaul import channel, nn


class TestNoiseVariance:
    @pytest.mark.parametrize("snr_db,expected", [(0.0, 1.0), (10.0, 0.1), (30.0, 0.001)])
    def test_decibel_conversion(self, snr_db, expected):
        assert abs(channel.snr_to_noise_var(snr_db) - expected) < 1e-15


def complex_view(rows):
    """The complex vector a real stacked-halves row stands for."""
    half = rows.shape[-1] // 2
    return rows[..., :half] + 1j * rows[..., half:]


class TestPacking:
    def test_direct_example(self):
        """Rows are stacked halves: [1, 2, 3, 4] is (1 + 3j, 2 + 4j), so over
        conj(h) = -1j the cloud sends (3 - 1j, 4 - 2j) = [3, 4, -1, -2]."""
        y = channel.downlink_transmit(np.array([1.0, 2.0, 3.0, 4.0]), np.full(2, 1j), 1.0,
                                      np.zeros(4))
        assert np.array_equal(y, [3.0, 4.0, -1.0, -2.0])

    @given(st.integers(1, 8), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, half, seed):
        """Through the complex view of both downlink legs and back, bit for
        bit, at unit gain and zero noise."""
        s = np.random.default_rng(seed).normal(size=2 * half)
        h = np.ones(half, complex)
        y = channel.downlink_transmit(s, h, 1.0, np.zeros(2 * half))
        assert np.array_equal(y, s)
        assert np.array_equal(channel.downlink_decode(y, h, 1.0), s)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError, match="even"):
            channel.compute_alpha(np.zeros(3), 1.0, "per-rb")
        with pytest.raises(ValueError, match="channel shape"):
            channel.uplink_transmit(np.zeros(3), np.ones(1, complex), np.zeros(3))


class TestLinkNoise:
    def test_one_draw_equals_real_then_imaginary_draws(self):
        """The rows hold every real part, then every imaginary part, of the
        complex draws the two-draw form makes, bit for bit."""
        variance = np.random.default_rng(0).uniform(0.1, 2.0, size=(5, 1, 1))
        got = channel.noise(np.random.default_rng(1), (5, 3, 4), variance)
        rng = np.random.default_rng(1)
        std = np.sqrt(variance / 2.0)
        want = std * (rng.standard_normal((5, 3, 4)) + 1j * rng.standard_normal((5, 3, 4)))
        assert got.shape == (5, 3, 8)
        assert np.array_equal(complex_view(got), want)

    def test_variance_must_broadcast(self):
        with pytest.raises(ValueError, match="does not broadcast"):
            channel.noise(np.random.default_rng(0), (5, 4), np.ones(3))

    @pytest.mark.parametrize("variance", [0.0, 1e-4, 0.37, 1.0, 5.0])
    def test_unit_draw_rescales_to_any_variance(self, variance):
        """The variance-2 draw scaled by ``noise_std`` gives the bits of a draw
        at that variance, zeros with the sign of the draw included."""
        unit = channel.noise(np.random.default_rng(3), (6, 2, 4), 2.0)
        want = channel.noise(np.random.default_rng(3), (6, 2, 4), variance)
        assert (unit * channel.noise_std(variance)).tobytes() == want.tobytes()


class TestSampleChannel:
    def test_unit_variance_magnitude(self):
        """Mean squared magnitude of the fading entries is 1 under no pathloss."""
        h = channel.sample_channel(np.random.default_rng(0), 4, shape=(25000,))
        mean_sq = float(np.mean(np.abs(h) ** 2))
        assert abs(mean_sq - 1.0) < 0.02

    def test_pathloss_scales_variance(self):
        h = channel.sample_channel(np.random.default_rng(1), 4,
                                   pathloss=(10.0, 2.7), shape=(25000,))
        expected = 10.0 ** (-2.7)
        mean_sq = float(np.mean(np.abs(h) ** 2))
        assert abs(mean_sq - expected) / expected < 0.05

    def test_fixed_seed_replays(self):
        a = channel.sample_channel(np.random.default_rng(7), 6)
        b = channel.sample_channel(np.random.default_rng(7), 6)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("shape", [(256, 16), (32, 4), ()])
    @pytest.mark.parametrize("with_pathloss", [False, True])
    def test_draw_equals_scaled_complex_formula(self, shape, with_pathloss):
        """Byte for byte the earlier std * (re + 1j * im), real draw first."""
        rng = np.random.default_rng(len(shape) + 5 * with_pathloss)
        pathloss = (rng.uniform(1.0, 10.0, size=shape), 2.7) if with_pathloss else None
        h = channel.sample_channel(np.random.default_rng(11), 8, pathloss, shape)
        ref_rng = np.random.default_rng(11)
        factor = pathloss[0] ** -pathloss[1] if with_pathloss else 1.0
        full = (*shape, 8)
        std = np.sqrt(np.broadcast_to(np.asarray(factor)[..., None], full) / 2.0)
        want = std * (ref_rng.standard_normal(full) + 1j * ref_rng.standard_normal(full))
        assert h.dtype == want.dtype and h.shape == want.shape
        assert h.tobytes() == want.tobytes()

    def test_magnitude_phase_reconstruct(self):
        """The gain's magnitude, rotated by the phase the edge compensates
        with, rebuilds the fading draw."""
        h = channel.sample_channel(np.random.default_rng(2), 8)
        magnitude_rows = channel.gain(h) * np.repeat([1.0, 0.0], 8)
        rebuilt = complex_view(channel.downlink_decode(magnitude_rows, h, 1.0))
        assert np.max(np.abs(rebuilt - h)) < 1e-12

    def test_effective_matrix_structure(self):
        """diag(gain(h)) is the effective matrix diag([|h|; |h|])."""
        h = channel.sample_channel(np.random.default_rng(3), 3)
        H = np.diag(channel.gain(h))
        assert H.shape == (6, 6)
        diag = np.diag(H)
        assert np.array_equal(diag[:3], diag[3:])
        assert np.array_equal(diag[:3], np.abs(h))
        assert np.all(diag >= 0)
        assert np.array_equal(H, np.diag(diag))

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            channel.sample_channel(np.random.default_rng(0), 0)
        with pytest.raises(ValueError):
            channel.sample_channel(np.random.default_rng(0), 2, pathloss=(-1.0, 2.7))


class TestUplink:
    def test_phase_cancelled_magnitude_applied(self):
        y = channel.uplink_transmit(np.array([1.0, 0.0]), np.array([3 + 4j]), np.zeros(2))
        assert np.allclose(y, [5.0, 0.0], atol=1e-12)

    def test_unit_magnitude_any_phase_is_transparent(self):
        for theta in (0.0, 0.4, 2.2, -1.3):
            h = np.array([np.exp(1j * theta)])
            y = channel.uplink_transmit(np.array([0.3, -0.7]), h, np.zeros(2))
            assert np.max(np.abs(y - [0.3, -0.7])) < 1e-12

    def test_noise_variance_empirical(self):
        """Complex noise variance matches the configured value within 3%."""
        rng = np.random.default_rng(5)
        n = 100_000
        s = np.tile([1.0, 0.0], (n, 1))
        y = channel.uplink_transmit(s, np.ones((n, 1), complex),
                                    channel.noise(rng, (n, 1), 0.1))
        resid = complex_view(y - s)
        var = float(np.mean(np.abs(resid) ** 2))
        assert abs(var - 0.1) / 0.1 < 0.03

    def test_exact_affine_form_at_zero_noise(self):
        """Real form satisfies y = H s + n exactly, entrywise."""
        rng = np.random.default_rng(6)
        for _ in range(10):
            h = channel.sample_channel(rng, 4)
            s = rng.normal(size=8)
            y = channel.uplink_transmit(s, h, np.zeros(8))
            H = np.diag(np.concatenate([np.abs(h), np.abs(h)]))
            assert np.array_equal(y, H @ s)

    def test_phase_invariance_at_fixed_noise(self):
        """Same magnitude and same noise draw give bitwise-identical output.

        The phase is changed by exact 90-degree rotations and conjugation,
        which alter the angle while leaving the float magnitude untouched.
        """
        rng = np.random.default_rng(7)
        h = channel.sample_channel(rng, 4)
        noise = rng.standard_normal(8) * 0.2
        s = rng.normal(size=8)
        reference = channel.uplink_transmit(s, h, noise)
        for rotated in (1j * h, -h, -1j * h, np.conj(h)):
            assert not np.allclose(np.angle(rotated), np.angle(h))
            out = channel.uplink_transmit(s, rotated, noise)
            assert np.array_equal(out, reference)

    def test_noiseless_rows_then_noise_match_noisy_rows(self):
        """``noise=None`` gives H s; adding the noise afterwards, in either
        order, gives the noisy call's bits."""
        rng = np.random.default_rng(8)
        h = channel.sample_channel(rng, 4, shape=(3, 5))
        s = rng.normal(size=(3, 5, 8))
        noise = channel.noise(rng, (3, 5, 4), 0.3)
        hs = channel.uplink_transmit(s, h, None)
        assert hs.tobytes() == (channel.gain(h) * s).tobytes()
        noisy = channel.uplink_transmit(s, h, noise).tobytes()
        assert (hs + noise).tobytes() == (noise + hs).tobytes() == noisy

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            channel.uplink_transmit(np.zeros(8), np.zeros(3, complex), np.zeros(8))


class TestAlpha:
    def test_per_rb_peak(self):
        alpha = channel.compute_alpha([np.array([1.0, 0.0, 1.0, 0.0])], 1.0, "per-rb")
        assert abs(alpha - 1 / np.sqrt(2)) < 1e-12

    def test_sum_mode_shares_budget(self):
        m1 = np.array([1.0, 1.0, 1.0, 0.0])  # squared norm 3
        m2 = np.array([1.0, 0.0, 0.0, 0.0])  # squared norm 1
        alpha = channel.compute_alpha([m1, m2], 1.0, "sum")
        assert abs(alpha - 0.5) < 1e-12

    def test_zero_message_floored(self):
        alpha = channel.compute_alpha([np.zeros(8)], 1.0, "per-rb")
        assert abs(alpha - np.sqrt(1.0 / 1e-12)) < 1e-3

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError):
            channel.compute_alpha([np.ones(4)], 0.0, "per-rb")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown power mode"):
            channel.compute_alpha([np.ones(4)], 1.0, "peak")

    @pytest.mark.parametrize("nodes", [1, 2, 3, 7, 16])
    def test_node_first_equals_per_node_loop(self, nodes):
        """On node-first message rows (N, B, S) per-RB mode gives each node's
        own factor and sum mode adds the nodes' energies in node order, bit
        for bit as a loop over the nodes does."""
        rng = np.random.default_rng(nodes)
        rows = rng.normal(size=(nodes, 32, 16)) * rng.uniform(0.1, 10, (nodes, 32, 1))
        m = complex_view(rows)
        per_rb = channel.compute_alpha(rows, 1.0, "per-rb")
        assert per_rb.shape == (nodes, 32)
        for i in range(nodes):
            peak = np.max(np.abs(m[i]) ** 2, axis=-1)
            assert np.array_equal(per_rb[i], np.sqrt(1.0 / np.maximum(peak, 1e-12)))
        total = 0.0
        for i in range(nodes):
            total = total + np.sum(np.abs(m[i]) ** 2, axis=-1)
        want = np.sqrt(1.0 / np.maximum(total, 1e-12))
        assert np.array_equal(channel.compute_alpha(rows, 1.0, "sum"), want)


class TestDownlink:
    def test_conjugate_product(self):
        y = channel.downlink_transmit(np.array([1.0, 0.0]), np.array([3 + 4j]), 1.0,
                                      np.zeros(2))
        assert np.allclose(y, [3.0, -4.0], atol=1e-12)

    def test_zero_message_zero_output(self):
        y = channel.downlink_transmit(np.zeros(4), np.array([3 + 4j, 1 - 1j]), 2.0,
                                      np.zeros(4))
        assert np.all(y == 0)

    def test_noise_variance_empirical(self):
        rng = np.random.default_rng(8)
        n = 100_000
        y = channel.downlink_transmit(np.zeros((n, 2)), np.ones((n, 1), complex),
                                      np.ones(n), channel.noise(rng, (n, 1), 0.25))
        var = float(np.mean(np.abs(complex_view(y)) ** 2))
        assert abs(var - 0.25) / 0.25 < 0.03

    def test_decode_compensates_phase(self):
        h = np.array([3 + 4j])
        y = channel.downlink_transmit(np.array([1.0, 0.0]), h, 1.0, np.zeros(2))
        decoded = channel.downlink_decode(y, h, 1.0)
        assert np.allclose(decoded, [5.0, 0.0], atol=1e-12)

    def test_composition_equals_uplink_effective_map(self):
        """decode(transmit(m)) with zero noise is the same H m map the uplink
        realizes, for random messages and realizations."""
        rng = np.random.default_rng(9)
        for _ in range(100):
            h = channel.sample_channel(rng, 5)
            m = rng.normal(size=10)
            alpha = channel.compute_alpha(m, 1.0, "per-rb")
            got = channel.downlink_decode(
                channel.downlink_transmit(m, h, alpha, np.zeros(10)), h, alpha)
            want = channel.uplink_transmit(m, h, np.zeros(10))
            assert np.max(np.abs(got - want)) < 1e-12

    def test_decoded_noise_std_is_sigma_over_alpha(self):
        rng = np.random.default_rng(10)
        n = 100_000
        alpha = 0.5
        sigma_e2 = 0.09
        h = np.ones((n, 1), complex)
        y = channel.downlink_transmit(np.zeros((n, 2)), h, np.full(n, alpha),
                                      channel.noise(rng, (n, 1), sigma_e2))
        decoded = channel.downlink_decode(y, h, np.full(n, alpha))
        std = float(np.std(decoded))  # per real dimension: sigma_e / (alpha sqrt 2)
        expected = np.sqrt(sigma_e2) / alpha / np.sqrt(2)
        assert abs(std - expected) / expected < 0.03

    def test_zero_fading_has_no_phase_to_undo(self):
        """A block whose fading is exactly zero decodes with phase factor 1,
        the angle of zero, instead of the 0/0 of h/|h|."""
        h = np.array([0j, 3 + 4j])
        y = np.array([0.3, 1.0, -0.6, 2.0])
        decoded = channel.downlink_decode(y, h, 2.0)
        assert np.array_equal(decoded[[0, 2]], [0.15, -0.3])
        assert np.all(np.isfinite(decoded))

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ValueError, match="scaling"):
            channel.downlink_decode(np.zeros(4), np.ones(2, complex), 0.0)

    @pytest.mark.parametrize("mode", nn.POWER_MODES)
    def test_power_feasibility(self, mode):
        """Scaled transmissions never exceed the budget beyond 1e-12."""
        rng = np.random.default_rng(11)
        for _ in range(100):
            msgs = [rng.normal(size=8) * rng.uniform(0.1, 10) for _ in range(3)]
            alpha = channel.compute_alpha(msgs, 1.0, mode)
            if mode == nn.PER_RB:
                assert alpha.shape == (3,)
                for i in range(3):
                    assert np.max(np.abs(alpha[i] * complex_view(msgs[i])) ** 2) <= 1.0 + 1e-12
            else:
                total = sum(np.sum(np.abs(alpha * complex_view(m)) ** 2) for m in msgs)
                assert total <= 1.0 + 1e-12


class TestIndependence:
    def test_distinct_draws_uncorrelated(self):
        """Fading for distinct (node, sample) slots shows no linear dependence."""
        h = channel.sample_channel(np.random.default_rng(12), 1, shape=(20000, 2))
        a = h[:, 0, 0].real
        b = h[:, 1, 0].real
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.03


class TestInputChecks:
    """Each check raises its own message, so no later error stands in for it."""

    def test_noise_variance_must_broadcast_against_the_draw(self):
        """A variance with one more axis than the fading shape would
        broadcast against the stacked real and imaginary draw, not the shape."""
        with pytest.raises(ValueError, match="does not broadcast"):
            channel.noise(np.random.default_rng(0), (3, 2), np.full((2, 1, 1), 0.5))

    def test_downlink_transmit_rows_must_fit_the_channel(self):
        with pytest.raises(ValueError, match="do not fit channel shape"):
            channel.downlink_transmit(np.zeros((2, 8)), np.ones((1, 4), complex), 1.0,
                                      np.zeros((2, 8)))

    def test_downlink_decode_rows_must_fit_the_channel(self):
        with pytest.raises(ValueError, match="do not fit channel shape"):
            channel.downlink_decode(np.zeros((2, 8)), np.ones((1, 4), complex), 1.0)
