"""Optimizers over named parameter arrays, updated in place.

`step(params, grads)` writes each parameter's update into the array it is
given and returns nothing, then raises a ValueError naming the first
parameter that holds a non-finite value after the update; each block is
checked as it is written. Training passes one name per model ("encoder",
"decoder") with its whole parameter vector. No parameter-sized array is
made beyond the AdamW moments, kept per name with that name's step count,
so a call may carry any subset of the names, as pretraining steps the
decoder and then the encoder. A parameter must be a writeable C-contiguous
array; the update is walked in blocks of ADAMW_BLOCK elements through two
scratch buffers.

AdamW (decoupled weight decay) is the default; plain gradient descent is
kept as a fallback whose update has no internal state, which makes bitwise
reproducibility trivial to reason about.
"""

from __future__ import annotations

import numpy as np

__all__ = ["AdamW", "GradientDescent", "make_optimizer"]

# elements per update block (128 KB of float64 per scratch buffer)
ADAMW_BLOCK = 1 << 14


def _check_keys(params: dict, grads: dict):
    """Refuse a call before any update: keys, shapes, and parameters that
    the blocks cannot write in place."""
    if set(params) != set(grads):
        missing = set(params) ^ set(grads)
        raise ValueError(f"params/grads key mismatch: {sorted(missing)}")
    for name, p in params.items():
        if p.shape != grads[name].shape:
            raise ValueError(f"shape mismatch for {name!r}: {p.shape} vs {grads[name].shape}")
        if not p.flags.c_contiguous or not p.flags.writeable:
            raise ValueError(f"{name!r} must be a writeable contiguous array in C order")


def _check_hyper(lr: float, weight_decay: float):
    if lr <= 0.0:
        raise ValueError(f"lr must be > 0, got {lr}")
    if weight_decay < 0.0:
        raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")


def _raise_non_finite(bad: list[str]):
    if bad:
        raise ValueError(f"non-finite {bad[0]} after the update")


def _blocks(p: np.ndarray, *others: np.ndarray):
    """Matching ADAMW_BLOCK-element blocks of p and others, plus two scratch
    buffers cut to each block's length. p's blocks are views of its
    C-ordered memory, so writing them updates p; others are taken in the
    same element order, and a moment made by np.zeros_like(p) is C-ordered
    too, so its blocks are views that take its in-place update."""
    flat = [a.reshape(-1) for a in (p, *others)]
    scratch = np.empty(min(ADAMW_BLOCK, p.size)), np.empty(min(ADAMW_BLOCK, p.size))
    for lo in range(0, p.size, ADAMW_BLOCK):
        block = [a[lo : lo + ADAMW_BLOCK] for a in flat]
        yield *block, *(buf[: len(block[0])] for buf in scratch)


class GradientDescent:
    """Fallback mode: p <- p - lr*g, with optional decoupled weight decay."""

    def __init__(self, lr: float, weight_decay: float = 0.0):
        _check_hyper(lr, weight_decay)
        self.lr = lr
        self.weight_decay = weight_decay

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        """Update params in place: p - lr * g, then - lr * weight_decay * p
        of the old p."""
        _check_keys(params, grads)
        decay, bad = self.lr * self.weight_decay, []
        for name, p in params.items():
            finite = True
            for p_b, g, tmp, old in _blocks(p, grads[name]):
                np.multiply(g, self.lr, out=tmp)
                if self.weight_decay:
                    np.multiply(p_b, decay, out=old)
                p_b -= tmp
                if self.weight_decay:
                    p_b -= old
                finite = finite and bool(np.isfinite(p_b).all())
            if not finite:
                bad.append(name)
        _raise_non_finite(bad)


class AdamW:
    """Adam with bias-corrected moments and decoupled weight decay."""

    def __init__(
        self,
        lr: float,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        _check_hyper(lr, weight_decay)
        if not (0.0 <= betas[0] < 1.0 and 0.0 <= betas[1] < 1.0):
            raise ValueError(f"betas must lie in [0, 1), got {betas}")
        if eps <= 0.0:
            raise ValueError(f"eps must be > 0, got {eps}")
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._t: dict[str, int] = {}
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        """Update params and their moments in place; return nothing.

        Each parameter counts its own steps, so its bias correction follows
        the calls that carried it. Each block runs the textbook update,
        operation for operation and operand for operand, so the result is
        bit-identical to the whole-array one. The decay term lr *
        weight_decay * p is taken from the old p before p is overwritten.
        """
        _check_keys(params, grads)
        b1, b2 = self.betas
        decay, bad = self.lr * self.weight_decay, []
        for name, p in params.items():
            if name not in self._m:
                self._t[name] = 0
                self._m[name] = np.zeros_like(p)
                self._v[name] = np.zeros_like(p)
            self._t[name] += 1
            c1, c2 = 1.0 - b1 ** self._t[name], 1.0 - b2 ** self._t[name]
            finite = True
            for p_b, g, m, v, tmp, den in _blocks(p, grads[name], self._m[name], self._v[name]):
                # m = b1 * m + (1 - b1) * g
                np.multiply(m, b1, out=m)
                np.multiply(g, 1.0 - b1, out=tmp)
                m += tmp
                # v = b2 * v + (1 - b2) * g * g
                np.multiply(v, b2, out=v)
                np.multiply(g, 1.0 - b2, out=tmp)
                tmp *= g
                v += tmp
                # p = p - lr * (m / c1) / (sqrt(v / c2) + eps) - lr * weight_decay * p
                np.divide(m, c1, out=tmp)
                tmp *= self.lr
                np.divide(v, c2, out=den)
                np.sqrt(den, out=den)
                den += self.eps
                tmp /= den
                if self.weight_decay:
                    np.multiply(p_b, decay, out=den)
                p_b -= tmp
                if self.weight_decay:
                    p_b -= den
                finite = finite and bool(np.isfinite(p_b).all())
            if not finite:
                bad.append(name)
        _raise_non_finite(bad)


def make_optimizer(mode: str, lr: float, weight_decay: float = 0.0):
    if mode == "adamw":
        return AdamW(lr, weight_decay=weight_decay)
    if mode == "sgd":
        return GradientDescent(lr, weight_decay=weight_decay)
    raise ValueError(f"unknown optimizer mode {mode!r}, expected 'adamw' or 'sgd'")
