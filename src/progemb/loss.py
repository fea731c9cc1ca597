"""Contrastive losses with curriculum-style adaptive weighting.

The progressive variant modulates the plain temperature-scaled softmax loss
(InfoNCE) with three batch-driven coefficients:

* a batch threshold ``sigma = mean(pos) - beta``,
* per-query positive weights ``w`` that damp pairs whose similarity falls
  below sigma (suspected false positives),
* per-negative scales ``a`` that multiply a hard negative's similarity
  (negatives at least as similar as the positive) by ``t + pos``, where
  ``t`` is a momentum-tracked running mean of batch positive similarity.

Early in training ``t`` is near 0, so ``t + pos`` can sit below 1 and
briefly damps hard negatives instead of amplifying them; this literal
behaviour fades as ``t`` grows toward the typical positive similarity.

All coefficients (sigma, w, a, t) are computed from the current batch
before a parameter update and are held fixed for that step: no gradient
flows through them. InfoNCE is the same weighted log-sum-exp with every
weight and scale set to 1.

Both losses run one kernel: a single log-sum-exp per query gives the loss
value, summed over the queries, and, with the coefficients frozen, its
derivatives with respect to the positive and negative similarities. The kernel works in one
(B, N + 1) buffer, in place, and returns the negatives' derivative as a
view of it; it never writes its inputs. The caller turns those
derivatives into embedding gradients; the cosine's chain rule is the
encoder's backward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HyperParams",
    "MomentumState",
    "BatchSimilarities",
    "info_nce",
    "batch_threshold",
    "positive_weights",
    "progressive_loss",
    "update_momentum",
]


@dataclass(frozen=True)
class HyperParams:
    """Loss hyperparameters: momentum coefficient, threshold margin, temperature."""

    alpha: float = 0.5
    beta: float = 0.1
    tau: float = 0.01

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.beta < 0.0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.tau <= 0.0:
            raise ValueError(f"tau must be > 0, got {self.tau}")


@dataclass(frozen=True)
class MomentumState:
    """Momentum-tracked bias t and the number of updates applied to it."""

    t: float = 0.0
    step: int = 0


@dataclass(eq=False)
class BatchSimilarities:
    """One batch's frozen coefficients and the loss's similarity gradients.

    ``neg_mask`` marks which negatives participate; excluded slots arise
    when in-batch sharing would make a query's own positive one of its
    negatives. ``grad_pos`` and ``grad_neg`` are the derivatives of the
    summed loss with respect to ``pos`` and ``neg``, with the weights and
    scales held fixed; a masked negative's is exactly 0.
    """

    weights: np.ndarray      # (B,)
    scales: np.ndarray       # (B, N); InfoNCE's is a read-only broadcast of 1
    neg_mask: np.ndarray     # (B, N) bool
    grad_pos: np.ndarray     # (B,)
    grad_neg: np.ndarray     # (B, N)


def _check_inputs(pos, neg, tau: float, neg_mask):
    p = np.asarray(pos, dtype=np.float64)
    n = np.asarray(neg, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"pos must be a nonempty vector, got shape {p.shape}")
    if n.ndim != 2:
        raise ValueError(f"neg must be a 2-d matrix, got shape {n.shape}")
    if n.shape[0] != p.shape[0]:
        raise ValueError(
            f"shape mismatch: pos has B={p.shape[0]} but neg has {n.shape[0]} rows"
        )
    if tau <= 0.0:
        raise ValueError(f"tau must be > 0, got {tau}")
    if neg_mask is None:
        m = np.ones(n.shape, dtype=bool)
    else:
        m = np.asarray(neg_mask, dtype=bool)
        if m.shape != n.shape:
            raise ValueError(
                f"neg_mask shape {m.shape} does not match neg shape {n.shape}"
            )
    return p, n, m


def _contrastive(p, n, m, w, a, tau: float):
    """The summed ``w * log(1 + sum(exp((a * neg - pos) / tau)))`` and its
    record, from one log-sum-exp per query over one (rows, N + 1) buffer.

    Column 0 of the buffer is the positive's logit: the negatives' logits
    are shifted by the positive one, so the positive sits at 0 and a
    dominant positive does not cancel; masked negatives are -inf and weigh
    nothing. Scale, shift, mask, max subtraction and exp run in place. With
    pi the negatives' softmax shares, d/d neg = w pi a / tau, and d/d pos is
    minus the negatives' total share times w / tau, which keeps its digits
    when the positive dominates; it is taken before pi is scaled in place,
    so grad_neg is a view of the buffer.
    """
    z = np.empty((n.shape[0], n.shape[1] + 1))
    z[:, 0] = 0.0
    pi = z[:, 1:]  # the negatives' logits, then each one's softmax share times total
    np.multiply(a, n, out=pi)
    pi -= p[:, None]
    pi /= tau
    np.copyto(pi, -np.inf, where=~m)
    high = np.max(z, axis=1, keepdims=True)
    z -= high
    np.exp(z, out=z)
    total = np.sum(z, axis=1)
    value = float(np.sum(w * (high[:, 0] + np.log(total))))
    coef = w / tau / total
    grad_pos = -coef * np.sum(pi, axis=1)
    pi *= coef[:, None]
    pi *= a
    return value, BatchSimilarities(w, a, m, grad_pos, pi)


def info_nce(pos, neg, tau: float, neg_mask=None) -> tuple[float, BatchSimilarities]:
    """Temperature-scaled softmax contrastive loss summed over a batch, plus its record.

    Per query q the loss is -log of exp(pos_q/tau) divided by the sum of
    exp(pos_q/tau) and every exp(neg_qn/tau). The result is >= 0 and is
    exactly 0 only when there are no negatives. This is the progressive
    loss with every weight and scale equal to 1.

    Args:
        pos: (B,) positive similarities.
        neg: (B, N) negative similarities; N may be 0.
        tau: temperature, > 0.
        neg_mask: optional (B, N) bool; False entries are ignored.

    Returns:
        (value, BatchSimilarities) with every weight and scale equal to 1.
    """
    p, n, m = _check_inputs(pos, neg, tau, neg_mask)
    return _contrastive(p, n, m, np.ones(p.shape), np.broadcast_to(1.0, n.shape), tau)


def batch_threshold(pos, beta: float) -> float:
    """Batch threshold: mean positive similarity minus the margin beta.

    May be negative when the batch's positives are on average less similar
    than the margin; ``positive_weights`` treats that case specially.
    """
    p = np.asarray(pos, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"pos must be a nonempty vector, got shape {p.shape}")
    if beta < 0.0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    return float(np.mean(p)) - float(beta)


def positive_weights(pos, sigma: float) -> np.ndarray:
    """Per-query positive weights.

    A query at or above the threshold keeps weight 1; below it the weight is
    pos/sigma, clamped to [0, 1] so a negative similarity can never reward
    pushing the pair apart. A non-positive sigma makes the ratio meaningless,
    so every weight is 1 in that case.
    """
    p = np.asarray(pos, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"pos must be a nonempty vector, got shape {p.shape}")
    if sigma <= 0.0:
        return np.ones_like(p)
    return np.where(p >= sigma, 1.0, np.clip(p / sigma, 0.0, 1.0))


def _scale_matrix(pos: np.ndarray, neg: np.ndarray, sigma: float, t: float) -> np.ndarray:
    """Negative scales: 1 while the query's positive sits below the batch
    threshold or for an easy negative (less similar than the positive);
    ``t + pos`` for a hard negative."""
    easy = (pos[:, None] < sigma) | (neg < pos[:, None])
    return np.where(easy, 1.0, t + pos[:, None])


def progressive_loss(
    pos,
    neg,
    sigma: float,
    t: float,
    tau: float,
    neg_mask=None,
) -> tuple[float, BatchSimilarities]:
    """Adaptively weighted contrastive loss summed over a batch, plus its audit record.

    Per query q the loss is ``-w_q * log`` of exp(pos_q/tau) divided by the
    sum of exp(pos_q/tau) and every exp(a_qn * neg_qn / tau); the scale
    multiplies the raw similarity before the division by tau. With all
    weights and scales equal to 1 this reduces exactly to ``info_nce``.

    Returns:
        (value, BatchSimilarities) where the record carries the batch's
        weights and scales and the loss's gradients at pos and neg.
    """
    p, n, m = _check_inputs(pos, neg, tau, neg_mask)
    return _contrastive(
        p, n, m, positive_weights(p, sigma), _scale_matrix(p, n, sigma, t), tau
    )


def update_momentum(state: MomentumState, pos, alpha: float) -> MomentumState:
    """One momentum update of the bias t from a batch's positive similarities.

    Returns a new state; the input state is unchanged.
    """
    p = np.asarray(pos, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"pos must be a nonempty vector, got shape {p.shape}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    new_t = alpha * float(np.mean(p)) + (1.0 - alpha) * state.t
    return MomentumState(t=new_t, step=state.step + 1)
