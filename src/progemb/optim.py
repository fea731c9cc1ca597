"""Optimizers over named parameter dictionaries.

AdamW (decoupled weight decay) is the default; plain gradient descent is
kept as a fallback whose update has no internal state, which makes bitwise
reproducibility trivial to reason about.
"""

from __future__ import annotations

import numpy as np

__all__ = ["AdamW", "GradientDescent", "make_optimizer"]

# elements per AdamW block (128 KB of float64 per scratch buffer)
ADAMW_BLOCK = 1 << 14


def _check_keys(params: dict, grads: dict):
    if set(params) != set(grads):
        missing = set(params) ^ set(grads)
        raise ValueError(f"params/grads key mismatch: {sorted(missing)}")
    for name in params:
        if params[name].shape != grads[name].shape:
            raise ValueError(
                f"shape mismatch for {name!r}: "
                f"{params[name].shape} vs {grads[name].shape}"
            )


def _check_hyper(lr: float, weight_decay: float):
    if lr <= 0.0:
        raise ValueError(f"lr must be > 0, got {lr}")
    if weight_decay < 0.0:
        raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")


class GradientDescent:
    """Fallback mode: p <- p - lr*g, with optional decoupled weight decay."""

    def __init__(self, lr: float, weight_decay: float = 0.0):
        _check_hyper(lr, weight_decay)
        self.lr = lr
        self.weight_decay = weight_decay

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        _check_keys(params, grads)
        out = {}
        for name, p in params.items():
            new = p - self.lr * grads[name]
            if self.weight_decay:
                new = new - self.lr * self.weight_decay * p
            out[name] = new
        return out


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
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        """Return the updated parameters; the moments are updated in place.

        Each block of ADAMW_BLOCK elements runs the textbook update, operation
        for operation and operand for operand, through two scratch buffers,
        so the result is bit-identical to it without its full-size
        temporaries.
        """
        _check_keys(params, grads)
        b1, b2 = self.betas
        self.t += 1
        c1, c2 = 1.0 - b1**self.t, 1.0 - b2**self.t
        decay = self.lr * self.weight_decay
        scratch = np.empty(ADAMW_BLOCK), np.empty(ADAMW_BLOCK)
        out = {}
        for name, p in params.items():
            if name not in self._m:
                self._m[name] = np.zeros(p.shape)
                self._v[name] = np.zeros(p.shape)
            new = np.empty(p.shape)
            flat = (p.reshape(-1), grads[name].reshape(-1), self._m[name].reshape(-1),
                    self._v[name].reshape(-1), new.reshape(-1))
            for lo in range(0, p.size, ADAMW_BLOCK):
                p_b, g, m, v, new_b = (a[lo : lo + ADAMW_BLOCK] for a in flat)
                tmp, den = (buf[: len(g)] for buf in scratch)
                # m = b1 * m + (1 - b1) * g
                np.multiply(m, b1, out=m)
                np.multiply(g, 1.0 - b1, out=tmp)
                m += tmp
                # v = b2 * v + (1 - b2) * g * g
                np.multiply(v, b2, out=v)
                np.multiply(g, 1.0 - b2, out=tmp)
                tmp *= g
                v += tmp
                # new = p - lr * (m / c1) / (sqrt(v / c2) + eps)
                np.divide(m, c1, out=tmp)
                tmp *= self.lr
                np.divide(v, c2, out=den)
                np.sqrt(den, out=den)
                den += self.eps
                tmp /= den
                np.subtract(p_b, tmp, out=new_b)
                if self.weight_decay:
                    # new = new - lr * weight_decay * p
                    np.multiply(p_b, decay, out=tmp)
                    new_b -= tmp
            out[name] = new
        return out


def make_optimizer(mode: str, lr: float, weight_decay: float = 0.0):
    if mode == "adamw":
        return AdamW(lr, weight_decay=weight_decay)
    if mode == "sgd":
        return GradientDescent(lr, weight_decay=weight_decay)
    raise ValueError(f"unknown optimizer mode {mode!r}, expected 'adamw' or 'sgd'")
