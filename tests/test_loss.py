"""Tests for the progressive contrastive loss and its building blocks.

The scalar reference implementations here intentionally mirror the rules
with plain Python loops and math.* calls so the vectorized code is checked
against an independent evaluation path.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from oracles import _weighted_loss, oracle_contrastive, oracle_loss_gradients

from progemb.loss import (
    HyperParams,
    MomentumState,
    _scale_matrix,
    batch_threshold,
    info_nce,
    positive_weights,
    progressive_loss,
    update_momentum,
)


def scalar_progressive(pos, neg, sigma, t, tau, mask=None):
    """Per-query scalar evaluation of the progressive loss."""
    b, n = neg.shape
    per_query = []
    for i in range(b):
        p = float(pos[i])
        if sigma <= 0.0:
            w = 1.0
        elif p >= sigma:
            w = 1.0
        else:
            w = min(max(p / sigma, 0.0), 1.0)
        terms = []
        for j in range(n):
            if mask is not None and not mask[i, j]:
                continue
            s = float(neg[i, j])
            a = 1.0 if (p < sigma or s < p) else t + p
            terms.append(math.exp((a * s - p) / tau))
        per_query.append(w * math.log1p(math.fsum(terms)))
    return math.fsum(per_query)


def scalar_infonce(pos, neg, tau):
    b, n = neg.shape
    per_query = [
        math.log1p(
            math.fsum(math.exp((float(neg[i, j]) - float(pos[i])) / tau) for j in range(n))
        )
        for i in range(b)
    ]
    return math.fsum(per_query)


def negative_scales(pos_q, neg_q, sigma, t):
    """Scalar oracle for one query's negative scales: 1 while the positive
    sits below the threshold or for an easy negative, else t + pos_q."""
    return np.array([1.0 if (pos_q < sigma or s < pos_q) else t + pos_q for s in neg_q])


def random_instance(rng, max_b=8, max_n=8):
    b = int(rng.integers(1, max_b + 1))
    n = int(rng.integers(1, max_n + 1))
    pos = rng.uniform(-1, 1, size=b)
    neg = rng.uniform(-1, 1, size=(b, n))
    sigma = float(rng.uniform(-0.3, 0.9))
    t = float(rng.uniform(0.0, 1.0))
    tau = float(rng.uniform(0.02, 1.0))
    return pos, neg, sigma, t, tau


class TestBatchThreshold:
    def test_mean_minus_margin(self):
        pos = np.array([0.8, 0.6])
        np.testing.assert_allclose(batch_threshold(pos, 0.1), 0.6, atol=1e-15)

    def test_can_be_negative(self):
        assert batch_threshold(np.array([0.0, 0.1]), 0.2) < 0.0

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            batch_threshold(np.array([0.5]), -0.1)


class TestPositiveWeights:
    def test_above_threshold_full_weight(self):
        w = positive_weights(np.array([0.8, 0.61]), 0.6)
        np.testing.assert_allclose(w, [1.0, 1.0])

    def test_below_threshold_proportional(self):
        w = positive_weights(np.array([0.3]), 0.6)
        np.testing.assert_allclose(w, [0.5], atol=1e-15)

    def test_negative_positive_clamped_to_zero(self):
        w = positive_weights(np.array([-0.4]), 0.6)
        np.testing.assert_allclose(w, [0.0])

    def test_nonpositive_threshold_gives_full_weight(self):
        w = positive_weights(np.array([-0.9, 0.2, 0.9]), -0.05)
        np.testing.assert_allclose(w, [1.0, 1.0, 1.0])

    @given(
        p=st.floats(-1.0, 1.0),
        sigma=st.floats(-1.0, 1.0),
    )
    def test_weight_always_in_unit_interval(self, p, sigma):
        w = positive_weights(np.array([p]), sigma)
        assert 0.0 <= w[0] <= 1.0


class TestHyperParams:
    def test_zero_alpha_rejected(self):
        """alpha = 0 would freeze the bias; update_momentum rejects it too."""
        with pytest.raises(ValueError, match="alpha"):
            HyperParams(alpha=0.0)

    def test_alpha_one_allowed(self):
        assert HyperParams(alpha=1.0).alpha == 1.0


class TestNegativeScales:
    """Each row of the scales in progressive_loss's record against the
    scalar oracle."""

    @staticmethod
    def check(pos, neg, sigma, t):
        pos, neg = np.asarray(pos, dtype=float), np.asarray(neg, dtype=float)
        _, record = progressive_loss(pos, neg, sigma, t, 1.0)
        for row, (p, n) in enumerate(zip(pos, neg)):
            np.testing.assert_array_equal(
                record.scales[row], negative_scales(p, n, sigma, t)
            )
        return record.scales

    def test_easy_negative_keeps_unit_scale(self):
        a = self.check([0.8], [[0.5, 0.79]], 0.6, 0.3)
        np.testing.assert_allclose(a[0], [1.0, 1.0])

    def test_hard_negative_scaled_by_bias_plus_positive(self):
        a = self.check([0.8], [[0.85, 0.9]], 0.6, 0.3)
        np.testing.assert_allclose(a[0], [1.1, 1.1], atol=1e-15)

    def test_sub_threshold_query_disables_scaling(self):
        a = self.check([0.5], [[0.9]], 0.6, 0.3)
        np.testing.assert_allclose(a[0], [1.0])

    def test_early_training_scale_can_damp(self):
        """With a cold bias the hard-negative scale sits below 1."""
        a = self.check([0.2], [[0.6]], 0.1, 0.0)
        np.testing.assert_allclose(a[0], [0.2], atol=1e-15)

    def test_random_batches_match_oracle_row_by_row(self):
        rng = np.random.default_rng(105)
        for _ in range(100):
            pos, neg, sigma, t, _ = random_instance(rng)
            self.check(pos, neg, sigma, t)


class TestProgressiveLossValue:
    def test_hand_computed_single_pair(self):
        """One query, one hard negative, all coefficients active."""
        pos = np.array([0.8])
        neg = np.array([[0.85]])
        # sigma below pos keeps w = 1; scale = t + pos = 0.8
        value, record = progressive_loss(pos, neg, 0.7, 0.0, 1.0)
        expected = math.log1p(math.exp(0.8 * 0.85 - 0.8))
        np.testing.assert_allclose(value, expected, atol=1e-14)
        np.testing.assert_allclose(record.weights, [1.0])
        np.testing.assert_allclose(record.scales, [[0.8]], atol=1e-15)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            pos, neg, sigma, t, tau = random_instance(rng)
            value, _ = progressive_loss(pos, neg, sigma, t, tau)
            expected = scalar_progressive(pos, neg, sigma, t, tau)
            np.testing.assert_allclose(value, expected, rtol=0, atol=1e-10)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(103)
        for _ in range(100):
            pos, neg, sigma, t, tau = random_instance(rng)
            value, _ = progressive_loss(pos, neg, sigma, t, tau)
            assert value >= 0.0

    def test_negative_order_irrelevant(self):
        """Permuting a query's negatives leaves the loss unchanged."""
        rng = np.random.default_rng(104)
        pos, neg, sigma, t, tau = random_instance(rng, max_b=4, max_n=6)
        base, _ = progressive_loss(pos, neg, sigma, t, tau)
        shuffled = neg[:, rng.permutation(neg.shape[1])]
        again, _ = progressive_loss(pos, shuffled, sigma, t, tau)
        np.testing.assert_allclose(base, again, rtol=1e-12)

    def test_monotone_in_hard_negative_similarity(self):
        """Within the scaled branch a closer negative costs more."""
        pos = np.array([0.6])
        sigma, t, tau = 0.5, 0.5, 0.1
        values = []
        for s in (0.6, 0.7, 0.8, 0.9):
            v, _ = progressive_loss(pos, np.array([[s]]), sigma, t, tau)
            values.append(v)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_mask_drops_a_negative_exactly(self):
        pos = np.array([0.4])
        neg = np.array([[0.3, 0.9, -0.2]])
        mask = np.array([[True, False, True]])
        masked, record = progressive_loss(pos, neg, 0.1, 0.2, 0.5, neg_mask=mask)
        reduced, _ = progressive_loss(pos, neg[:, [0, 2]], 0.1, 0.2, 0.5)
        np.testing.assert_allclose(masked, reduced, rtol=1e-12)
        assert record.neg_mask is not None

    def test_fully_masked_query_contributes_zero(self):
        """With every negative masked out the softmax has only the positive
        term, so the query's loss is exactly zero."""
        value, _ = progressive_loss(
            np.array([0.5]),
            np.array([[0.2]]),
            0.1,
            0.0,
            1.0,
            neg_mask=np.array([[False]]),
        )
        assert value == 0.0

    def test_invalid_tau_rejected(self):
        with pytest.raises(ValueError):
            progressive_loss(np.array([0.5]), np.array([[0.2]]), 0.1, 0.0, 0.0)


class TestInfoNce:
    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(111)
        for _ in range(200):
            pos, neg, _, _, tau = random_instance(rng)
            np.testing.assert_allclose(
                info_nce(pos, neg, tau)[0],
                scalar_infonce(pos, neg, tau),
                rtol=0,
                atol=1e-10,
            )

    def test_uniform_logits_give_log_n_plus_one(self):
        """Equal positive and negative similarities: softmax is uniform."""
        pos = np.array([0.5])
        neg = np.full((1, 3), 0.5)
        np.testing.assert_allclose(info_nce(pos, neg, 0.7)[0], math.log(4.0), atol=1e-12)

    def test_monotone_in_any_negative(self):
        rng = np.random.default_rng(112)
        pos, neg, _, _, tau = random_instance(rng, max_b=3, max_n=4)
        base, _ = info_nce(pos, neg, tau)
        bumped = neg.copy()
        bumped[0, 0] = min(1.0, bumped[0, 0] + 0.05)
        if bumped[0, 0] > neg[0, 0]:
            assert info_nce(pos, bumped, tau)[0] > base

    def test_memory_is_one_logit_buffer(self):
        """At B = 64 and N = 8,192 the kernel's (B, N + 1) logit buffer is
        4.2 MB; InfoNCE's unit scales are a broadcast, not a (B, N) array
        of ones, so the traced peak is 1.25 buffers, the rest mostly the
        default mask (2.25 with the ones), and the record's scales still
        have the negatives' shape."""
        rng = np.random.default_rng(114)
        pos, neg = rng.uniform(-1, 1, size=64), rng.uniform(-1, 1, size=(64, 8_192))
        tracemalloc.start()
        try:
            _, record = info_nce(pos, neg, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert record.scales.shape == neg.shape and (record.scales == 1.0).all()
        assert peak < 1.5 * 64 * 8_193 * 8

    def test_agrees_with_progressive_when_coefficients_inactive(self):
        """All positives above threshold, all negatives easy: the losses
        coincide because every weight and scale is exactly 1."""
        rng = np.random.default_rng(113)
        for _ in range(100):
            b = int(rng.integers(1, 5))
            n = int(rng.integers(1, 6))
            pos = rng.uniform(0.4, 0.9, size=b)
            neg = pos[:, None] - rng.uniform(0.01, 0.5, size=(b, n))
            sigma = float(pos.min() - 0.05)
            tau = float(rng.uniform(0.05, 1.0))
            t = float(rng.uniform(0.0, 1.0))
            prog, prog_record = progressive_loss(pos, neg, sigma, t, tau)
            plain, plain_record = info_nce(pos, neg, tau)
            assert abs(prog - plain) <= 1e-9
            np.testing.assert_allclose(
                prog_record.grad_pos, plain_record.grad_pos, rtol=1e-12, atol=0
            )
            np.testing.assert_allclose(
                prog_record.grad_neg, plain_record.grad_neg, rtol=1e-12, atol=0
            )


class TestNumericalStability:
    def test_sharp_temperature_large_batch_finite(self):
        rng = np.random.default_rng(121)
        pos = rng.uniform(-1, 1, size=1000)
        neg = rng.uniform(-1, 1, size=(1000, 1000))
        sigma = batch_threshold(pos, 0.1)
        value, record = progressive_loss(pos, neg, sigma, 0.5, 0.01)
        assert math.isfinite(value)
        assert np.all(np.isfinite(record.weights))
        assert np.all(np.isfinite(record.scales))

    def test_infonce_sharp_temperature_finite(self):
        rng = np.random.default_rng(122)
        pos = rng.uniform(-1, 1, size=500)
        neg = rng.uniform(-1, 1, size=(500, 500))
        assert math.isfinite(info_nce(pos, neg, 0.01)[0])


class TestKernelAgainstOracle:
    """The one-buffer kernel against the kernel it replaced, byte for byte:
    the value and every record field, on inputs with ties, fully masked
    rows and no negatives; neither input array is written."""

    @staticmethod
    def instance(rng):
        b, n = int(rng.integers(1, 7)), int(rng.integers(0, 9))
        # a coarse grid makes negatives tie with each other and with the positive
        pos = rng.integers(-4, 5, size=b) / 4.0
        neg = rng.integers(-4, 5, size=(b, n)) / 4.0
        mask = rng.random((b, n)) < 0.7
        mask[rng.random(b) < 0.25] = False
        return pos, neg, mask

    @pytest.mark.parametrize("loss_mode", ["progressive", "infonce"])
    def test_byte_identical_to_oracle(self, loss_mode):
        rng = np.random.default_rng(31)
        cases = {"ties": 0, "masked_rows": 0, "no_negatives": 0}
        for _ in range(150):
            pos, neg, mask = self.instance(rng)
            sigma = float(rng.choice([-0.5, 0.0, 0.25, float(np.mean(pos)) - 0.1]))
            t, tau = float(rng.choice([0.0, 0.5, 1.3])), float(rng.choice([0.01, 0.05, 1.0]))
            neg_before, mask_before = neg.copy(), mask.copy()
            if loss_mode == "progressive":
                value, rec = progressive_loss(pos, neg, sigma, t, tau, mask)
                w, a = positive_weights(pos, sigma), _scale_matrix(pos, neg, sigma, t)
            else:
                value, rec = info_nce(pos, neg, tau, mask)
                w, a = np.ones(pos.shape), np.ones(neg.shape)
            want = oracle_contrastive(pos, neg, mask, w, a, tau)
            assert np.float64(value).tobytes() == np.float64(want[0]).tobytes()
            got = (rec.weights, rec.scales, rec.neg_mask, rec.grad_pos, rec.grad_neg)
            for field, have, expected in zip(
                ("weights", "scales", "neg_mask", "grad_pos", "grad_neg"), got, want[1:]
            ):
                assert have.shape == expected.shape, field
                assert have.tobytes() == np.ascontiguousarray(expected).tobytes(), field
            assert neg.tobytes() == neg_before.tobytes()
            assert mask.tobytes() == mask_before.tobytes()
            cases["ties"] += bool((neg == pos[:, None]).any())
            cases["masked_rows"] += bool(neg.shape[1] and (~mask.any(axis=1)).any())
            cases["no_negatives"] += neg.shape[1] == 0
        assert min(cases.values()) > 0, cases


class TestMomentum:
    def test_single_update_value(self):
        state = update_momentum(MomentumState(), np.array([0.6, 0.8]), 0.5)
        np.testing.assert_allclose(state.t, 0.35, atol=1e-15)
        assert state.step == 1

    def test_two_updates_compound(self):
        state = MomentumState()
        state = update_momentum(state, np.array([0.6]), 0.5)
        state = update_momentum(state, np.array([0.8]), 0.5)
        np.testing.assert_allclose(state.t, 0.55, atol=1e-15)

    def test_input_state_unchanged(self):
        state = MomentumState()
        update_momentum(state, np.array([0.9]), 0.5)
        assert state.t == 0.0 and state.step == 0

    def test_constant_input_geometric_convergence(self):
        """Driving with a constant mean m closes the gap by (1 - alpha)
        per step, starting from t = 0."""
        m = 0.7
        for alpha in (0.1, 0.5, 0.9):
            state = MomentumState()
            for s in range(1, 51):
                state = update_momentum(state, np.full(3, m), alpha)
                expected_gap = (1.0 - alpha) ** s * m
                assert abs(abs(state.t - m) - expected_gap) <= 1e-12

    @given(alpha=st.floats(0.05, 1.0), m=st.floats(0.0, 1.0))
    def test_fixed_point_is_the_mean(self, alpha, m):
        state = MomentumState(t=m, step=5)
        after = update_momentum(state, np.full(2, m), alpha)
        assert abs(after.t - m) <= 1e-12

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            update_momentum(MomentumState(), np.array([0.5]), 0.0)


def unit(v):
    return v / np.linalg.norm(v)


def scalar_cos(a, b):
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def frozen_coefficients(q, p, z, sigma, t):
    """Weights and scales from the unperturbed similarities."""
    b, n, _ = z.shape
    pos = np.array([scalar_cos(q[i], p[i]) for i in range(b)])
    w = np.empty(b)
    a = np.empty((b, n))
    for i in range(b):
        if sigma <= 0.0 or pos[i] >= sigma:
            w[i] = 1.0
        else:
            w[i] = min(max(pos[i] / sigma, 0.0), 1.0)
        for j in range(n):
            s = scalar_cos(q[i], z[i, j])
            a[i, j] = 1.0 if (pos[i] < sigma or s < pos[i]) else t + pos[i]
    return w, a


def frozen_loss(q, p, z, w, a, tau):
    """Progressive loss with coefficients held fixed, for finite differences."""
    b, n, _ = z.shape
    total = []
    for i in range(b):
        pos = scalar_cos(q[i], p[i])
        terms = [
            math.exp((a[i, j] * scalar_cos(q[i], z[i, j]) - pos) / tau)
            for j in range(n)
        ]
        total.append(w[i] * math.log1p(math.fsum(terms)))
    return math.fsum(total)


def finite_difference_gradients(q, p, z, w, a, tau, h=1e-6):
    grads = []
    for arr in (q, p, z):
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = frozen_loss(q, p, z, w, a, tau)
            flat[idx] = orig - h
            down = frozen_loss(q, p, z, w, a, tau)
            flat[idx] = orig
            gflat[idx] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def gradient_instance(rng):
    b = int(rng.integers(1, 5))
    n = int(rng.integers(1, 7))
    d = int(rng.integers(2, 9))
    q = rng.normal(size=(b, d))
    p = rng.normal(size=(b, d))
    z = rng.normal(size=(b, n, d))
    sigma = float(rng.uniform(-0.2, 0.8))
    t = float(rng.uniform(0.0, 1.0))
    return q, p, z, sigma, t


def max_relative_error(analytic, numeric):
    err = 0.0
    for ga, gn in zip(analytic, numeric):
        diff = np.max(np.abs(ga - gn))
        scale = max(1e-6, float(np.max(np.abs(gn))))
        err = max(err, diff / scale)
    return err


class TestLossGradients:
    def test_matches_finite_differences(self):
        """Analytic gradients against central differences with the loss
        coefficients frozen at the evaluation point."""
        rng = np.random.default_rng(131)
        for tau in (1.0, 0.1, 0.01):
            for _ in range(5):
                q, p, z, sigma, t = gradient_instance(rng)
                w, a = frozen_coefficients(q, p, z, sigma, t)
                g = oracle_loss_gradients(q, p, z, sigma, t, HyperParams(tau=tau))
                fd = finite_difference_gradients(q, p, z, w, a, tau)
                assert max_relative_error([g.query, g.positive, g.negative], fd) <= 1e-5

    def test_masked_negatives_get_zero_gradient(self):
        rng = np.random.default_rng(132)
        q = rng.normal(size=(2, 4))
        p = rng.normal(size=(2, 4))
        z = rng.normal(size=(2, 3, 4))
        mask = np.array([[True, False, True], [True, True, False]])
        g = oracle_loss_gradients(q, p, z, 0.1, 0.3, HyperParams(tau=0.5), neg_mask=mask)
        assert np.all(g.negative[0, 1] == 0.0)
        assert np.all(g.negative[1, 2] == 0.0)
        assert np.any(g.negative[0, 0] != 0.0)

    def test_mean_reduction_scales_gradients(self):
        rng = np.random.default_rng(133)
        q = rng.normal(size=(4, 5))
        p = rng.normal(size=(4, 5))
        z = rng.normal(size=(4, 2, 5))
        g_sum = oracle_loss_gradients(q, p, z, 0.2, 0.4, HyperParams(tau=0.2))
        g_mean = oracle_loss_gradients(q, p, z, 0.2, 0.4, HyperParams(tau=0.2), reduction="mean")
        np.testing.assert_allclose(g_mean.query * 4, g_sum.query, rtol=1e-12)

    def test_solved_batch_has_vanishing_gradients(self):
        """Once the positive leads every scaled negative by much more than
        tau, the softmax saturates and gradients go to zero."""
        q = np.array([[1.0, 0.0]])
        p = np.array([[1.0, 0.05]])
        z = np.array([[[-1.0, 0.1]]])
        g = oracle_loss_gradients(q, p, z, -0.5, 0.0, HyperParams(tau=0.01))
        assert np.max(np.abs(g.query)) < 1e-8

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            oracle_loss_gradients(
                np.ones((2, 3)),
                np.ones((2, 3)),
                np.ones((3, 2, 3)),
                0.1,
                0.0,
                HyperParams(),
            )


def frozen_value(pos, neg, w, a, mask, tau):
    """The loss as a plain function of the similarities, with the weights
    and scales held fixed; the finite-difference target."""
    per_query = [
        w[i] * math.log1p(math.fsum(
            math.exp((a[i, j] * neg[i, j] - pos[i]) / tau)
            for j in range(neg.shape[1]) if mask[i, j]
        ))
        for i in range(len(pos))
    ]
    return math.fsum(per_query)


class TestSimilarityGradients:
    """The record's grad_pos and grad_neg: derivatives of the summed loss
    at the similarities, coefficients frozen."""

    @staticmethod
    def instance(rng, tau):
        b, n = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        pos = rng.uniform(-0.5, 0.9, size=b)
        # negatives within a few tau of their positive keep the softmax
        # away from saturation, where differences measure only rounding
        neg = np.clip(pos[:, None] + tau * rng.uniform(-3.0, 2.0, size=(b, n)), -1, 1)
        mask = rng.uniform(size=(b, n)) < 0.8
        sigma = batch_threshold(pos, float(rng.uniform(0.0, 0.3)))
        return pos, neg, mask, sigma, float(rng.uniform(0.0, 1.0))

    def test_match_finite_differences(self):
        rng = np.random.default_rng(141)
        h = 1e-6
        for tau in (1.0, 0.1, 0.01):
            for _ in range(5):
                pos, neg, mask, sigma, t = self.instance(rng, tau)
                _, rec = progressive_loss(pos, neg, sigma, t, tau, neg_mask=mask)

                def f(p, n):
                    return frozen_value(p, n, rec.weights, rec.scales, mask, tau)

                numeric = []
                for arr in (pos, neg):
                    g = np.zeros_like(arr)
                    for idx in np.ndindex(arr.shape):
                        orig = arr[idx]
                        arr[idx] = orig + h
                        up = f(pos, neg)
                        arr[idx] = orig - h
                        down = f(pos, neg)
                        arr[idx] = orig
                        g[idx] = (up - down) / (2.0 * h)
                    numeric.append(g)
                err = max_relative_error([rec.grad_pos, rec.grad_neg], numeric)
                assert err <= 1e-5, (tau, err)
                assert np.all(rec.grad_neg[~mask] == 0.0)

    def test_value_is_the_oracle_formula_exactly(self):
        """One log-sum-exp gives the value and the gradients, and the value
        keeps every bit of the separate value path."""
        rng = np.random.default_rng(142)
        for _ in range(200):
            pos, neg, sigma, t, tau = random_instance(rng)
            mask = rng.uniform(size=neg.shape) < 0.7
            value, rec = progressive_loss(pos, neg, sigma, t, tau, neg_mask=mask)
            assert value == _weighted_loss(pos, neg, mask, rec.weights, rec.scales, tau)
            plain, _ = info_nce(pos, neg, tau, neg_mask=mask)
            assert plain == _weighted_loss(pos, neg, mask, 1.0, 1.0, tau)

    def test_saturated_positive_keeps_its_digits(self):
        """The positive's derivative is minus the negatives' share, not
        pi_0 - 1, so it stays exact when that share is below 1e-16."""
        _, rec = info_nce(np.array([0.9]), np.array([[0.1]]), 0.01)
        share = math.exp(-80.0) / (1.0 + math.exp(-80.0))
        np.testing.assert_allclose(rec.grad_pos, [-share / 0.01], rtol=1e-12)
        np.testing.assert_allclose(rec.grad_neg, [[share / 0.01]], rtol=1e-12)


class TestZeroNormRule:
    """A zero embedding is an error only where some query uses it."""

    def instance(self):
        rng = np.random.default_rng(134)
        q = rng.normal(size=(2, 4))
        p = rng.normal(size=(2, 4))
        z = rng.normal(size=(2, 3, 4))
        mask = np.array([[True, False, True], [True, True, True]])
        return q, p, z, mask

    def test_zero_vector_in_masked_slot_accepted(self):
        q, p, z, mask = self.instance()
        before = oracle_loss_gradients(q, p, z, 0.1, 0.3, HyperParams(tau=0.5), neg_mask=mask)
        z[0, 1] = 0.0
        g = oracle_loss_gradients(q, p, z, 0.1, 0.3, HyperParams(tau=0.5), neg_mask=mask)
        assert np.all(g.negative[0, 1] == 0.0)
        np.testing.assert_allclose(g.query, before.query, rtol=1e-14, atol=0)
        np.testing.assert_allclose(g.positive, before.positive, rtol=1e-14, atol=0)

    def test_zero_vector_in_used_slot_rejected(self):
        q, p, z, mask = self.instance()
        z[1, 2] = 0.0
        # negative (i, n) sits at pool slot B + i * N + n = 2 + 3 + 2
        with pytest.raises(ValueError, match="candidate at index 7"):
            oracle_loss_gradients(q, p, z, 0.1, 0.3, HyperParams(tau=0.5), neg_mask=mask)

    def test_zero_positive_rejected(self):
        q, p, z, mask = self.instance()
        p[1] = 0.0
        with pytest.raises(ValueError, match="candidate at index 1"):
            oracle_loss_gradients(q, p, z, 0.1, 0.3, HyperParams(tau=0.5), neg_mask=mask)

    def test_zero_query_rejected(self):
        q, p, z, mask = self.instance()
        q[0] = 0.0
        with pytest.raises(ValueError, match="query at index 0"):
            oracle_loss_gradients(q, p, z, 0.1, 0.3, HyperParams(tau=0.5), neg_mask=mask)
