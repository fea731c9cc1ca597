"""Tests for the from-scratch optimizers."""

import numpy as np
import pytest
from oracles import OracleAdamW, oracle_descent

from progemb import optim
from progemb.optim import AdamW, GradientDescent, make_optimizer


def params_of(*values):
    return {f"p{i}": np.array(v, dtype=np.float64) for i, v in enumerate(values)}


class TestGradientDescent:
    def test_single_step_hand_value(self):
        opt = GradientDescent(lr=0.1)
        p = {"w": np.array([1.0, 2.0])}
        assert opt.step(p, {"w": np.array([0.5, -1.0])}) is None
        np.testing.assert_allclose(p["w"], [0.95, 2.10], atol=1e-15)

    def test_weight_decay_shrinks_parameters(self):
        opt = GradientDescent(lr=0.1, weight_decay=0.5)
        p = {"w": np.array([2.0])}
        opt.step(p, {"w": np.array([0.0])})
        np.testing.assert_allclose(p["w"], [2.0 - 0.1 * 0.5 * 2.0], atol=1e-15)

    def test_gradients_not_mutated_parameters_updated_in_place(self):
        w = np.array([1.0, -2.0])
        g = {"w": np.array([0.5, 0.25])}
        GradientDescent(lr=0.1, weight_decay=0.1).step({"w": w}, g)
        assert g["w"].tolist() == [0.5, 0.25]
        assert w.tolist() == [1.0 - 0.1 * 0.5 - 0.1 * 0.1 * 1.0,
                              -2.0 - 0.1 * 0.25 - 0.1 * 0.1 * -2.0]

    @pytest.mark.parametrize("block", [optim.ADAMW_BLOCK, 7])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_blocked_update_is_bit_identical_to_formula(self, monkeypatch, block, weight_decay):
        """p - lr * g - lr * weight_decay * p, as whole-array expressions of
        the old p, against the blocked in-place update. A transposed
        parameter is refused before it changes anything: parameters are
        C-ordered."""
        monkeypatch.setattr(optim, "ADAMW_BLOCK", block)
        rng = np.random.default_rng(22)
        params = {"table": rng.normal(size=(301, 17)), "square": rng.normal(size=(9, 9))}
        opt = GradientDescent(lr=0.01, weight_decay=weight_decay)
        with pytest.raises(ValueError, match="in C order"):
            opt.step({"square": params["square"].T}, {"square": np.ones((9, 9))})
        want = {k: p.copy() for k, p in params.items()}
        for _ in range(3):
            grads = {k: rng.normal(size=p.shape) for k, p in params.items()}
            opt.step(params, grads)
            want = oracle_descent(want, grads, 0.01, weight_decay)
            for k in params:
                assert params[k].tobytes() == want[k].tobytes(), k

    def test_deterministic_across_instances(self):
        grads = [{"w": np.array([g])} for g in (0.3, -0.2, 0.7)]
        results = []
        for _ in range(2):
            opt = GradientDescent(lr=0.05)
            p = {"w": np.array([1.0])}
            for g in grads:
                opt.step(p, g)
            results.append(p["w"][0])
        assert results[0] == results[1]


class TestAdamW:
    def test_first_step_hand_value(self):
        """After one step with g=1 the bias-corrected update is lr/(1+eps)."""
        opt = AdamW(lr=0.1)
        p = {"w": np.array([1.0])}
        assert opt.step(p, {"w": np.array([1.0])}) is None
        np.testing.assert_allclose(p["w"], [0.9], atol=1e-8)

    def test_matches_scalar_reference_over_steps(self):
        """Compare against an independent scalar transcription of the
        moment estimates with bias correction and decoupled decay."""
        lr, b1, b2, eps, wd = 0.01, 0.9, 0.999, 1e-8, 0.1
        rng = np.random.default_rng(5)
        grads = rng.normal(size=20)

        p_ref, m, v = 0.7, 0.0, 0.0
        opt = AdamW(lr=lr, betas=(b1, b2), eps=eps, weight_decay=wd)
        p = {"w": np.array([0.7])}
        for step, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**step)
            v_hat = v / (1 - b2**step)
            p_ref = p_ref - lr * m_hat / (np.sqrt(v_hat) + eps) - lr * wd * p_ref
            opt.step(p, {"w": np.array([g])})
        np.testing.assert_allclose(p["w"][0], p_ref, rtol=1e-12)

    def test_decay_applies_even_with_zero_gradient(self):
        opt = AdamW(lr=0.1, weight_decay=0.5)
        p = {"w": np.array([2.0])}
        opt.step(p, {"w": np.array([0.0])})
        np.testing.assert_allclose(p["w"], [2.0 - 0.1 * 0.5 * 2.0], atol=1e-15)

    def test_state_tracked_per_key(self):
        opt = AdamW(lr=0.1)
        p = params_of([1.0], [1.0])
        g1 = {"p0": np.array([1.0]), "p1": np.array([0.0])}
        opt.step(p, g1)
        assert p["p0"][0] != 1.0
        assert p["p1"][0] == 1.0

    def test_step_count_tracked_per_parameter(self):
        """A call may carry any subset of the parameters: each one's bias
        correction counts the calls that carried it, so stepping the
        parameters one call each is the same as one call for all."""
        rng = np.random.default_rng(3)
        shapes = {"a": (5, 3), "b": (4,)}
        together, apart = AdamW(lr=0.01, weight_decay=0.1), AdamW(lr=0.01, weight_decay=0.1)
        p = {k: rng.normal(size=s) for k, s in shapes.items()}
        q = {k: v.copy() for k, v in p.items()}
        for _ in range(3):
            grads = {k: rng.normal(size=s) for k, s in shapes.items()}
            together.step(p, grads)
            for k in ("b", "a"):
                apart.step({k: q[k]}, {k: grads[k]})
        for k in shapes:
            assert p[k].tobytes() == q[k].tobytes()
            assert together._m[k].tobytes() == apart._m[k].tobytes()
        # "a" alone takes a fourth step; "b" keeps its count of 3
        apart.step({"a": q["a"]}, {"a": np.ones(shapes["a"])})
        assert apart._t == {"a": 4, "b": 3}

    @pytest.mark.parametrize("block", [optim.ADAMW_BLOCK, 7])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_blocked_update_is_bit_identical_to_oracle(self, monkeypatch, block, weight_decay):
        """The blocked, in-place update against the whole-array one, over
        several steps, on tables larger than one block and not a multiple
        of it, zero and -0.0 gradients. A transposed parameter is refused
        before it changes anything: parameters are C-ordered."""
        monkeypatch.setattr(optim, "ADAMW_BLOCK", block)
        rng = np.random.default_rng(21)
        params = {
            "table": rng.normal(size=(1201, 17)),
            "square": rng.normal(size=(9, 9)),
            "one": np.array([0.3]),
        }
        opt = AdamW(lr=0.01, weight_decay=weight_decay)
        with pytest.raises(ValueError, match="in C order"):
            opt.step({"square": params["square"].T}, {"square": np.ones((9, 9))})
        ref = OracleAdamW(lr=0.01, weight_decay=weight_decay)
        want = {k: p.copy() for k, p in params.items()}
        for step in range(4):
            grads = {k: rng.normal(size=p.shape) * 10.0 ** rng.integers(-6, 4, size=p.shape)
                     for k, p in params.items()}
            grads["table"][rng.random(grads["table"].shape) < 0.1] = -0.0
            grads["one"][:] = 0.0 if step == 1 else grads["one"]
            opt.step(params, grads)
            want = ref.step(want, grads)
            for name in params:
                assert params[name].tobytes() == want[name].tobytes(), (step, name)
        for name in params:
            assert opt._m[name].tobytes() == ref._m[name].tobytes()
            assert opt._v[name].tobytes() == ref._v[name].tobytes()

    def test_gradients_not_mutated_parameters_updated_in_place(self):
        w = np.array([1.0, -2.0])
        g = {"w": np.array([0.5, 0.25])}
        AdamW(lr=0.1, weight_decay=0.1).step({"w": w}, g)
        assert g["w"].tolist() == [0.5, 0.25]
        np.testing.assert_allclose(w, [1.0 - 0.1 - 0.01, -2.0 - 0.1 + 0.02], rtol=1e-7)

    @pytest.mark.parametrize("make", [
        lambda: np.ones(4)[::2],
        lambda: np.frombuffer(np.ones(4).tobytes()),
    ], ids=["strided", "read_only"])
    def test_parameter_that_cannot_be_written_in_place_rejected(self, make):
        p = make()
        with pytest.raises(ValueError, match="writeable contiguous"):
            AdamW(lr=0.1).step({"w": p}, {"w": np.ones(p.shape)})

    def test_key_mismatch_rejected(self):
        opt = AdamW(lr=0.1)
        with pytest.raises(ValueError):
            opt.step({"a": np.ones(2)}, {"b": np.ones(2)})

    def test_shape_mismatch_rejected(self):
        opt = AdamW(lr=0.1)
        with pytest.raises(ValueError):
            opt.step({"a": np.ones(2)}, {"a": np.ones(3)})

    def test_invalid_lr_rejected(self):
        with pytest.raises(ValueError):
            AdamW(lr=0.0)


class TestNonFiniteUpdate:
    @pytest.mark.parametrize("make", [lambda: AdamW(lr=0.01), lambda: GradientDescent(lr=0.01)],
                             ids=["adamw", "sgd"])
    def test_nan_in_one_block_is_named_after_the_whole_step(self, monkeypatch, make):
        """A NaN gradient in the second of three blocks: every block is still
        updated, then the step names the parameter it left non-finite."""
        monkeypatch.setattr(optim, "ADAMW_BLOCK", 4)
        params = {"a": np.ones(10), "w": np.ones(10), "z": np.ones(3)}
        grads = {name: np.full(p.shape, 0.5) for name, p in params.items()}
        grads["w"][5] = np.nan
        with pytest.raises(ValueError, match=r"^non-finite w after the update$"):
            make().step(params, grads)
        assert np.isnan(params["w"][5])
        for name, p in params.items():
            finite = np.delete(p, 5) if name == "w" else p
            assert (finite < 1.0).all(), name


class TestMakeOptimizer:
    def test_dispatch(self):
        assert isinstance(make_optimizer("adamw", 0.1, 0.0), AdamW)
        assert isinstance(make_optimizer("sgd", 0.1, 0.0), GradientDescent)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="sgd"):
            make_optimizer("momentum", 0.1, 0.0)
