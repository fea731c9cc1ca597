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

One kernel gives the embedding gradients of both losses, in matmul form
over a shared candidate pool whose first B slots are the positives; the
per-query ``loss_gradients`` lays its negatives out as such a pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "HyperParams",
    "MomentumState",
    "BatchSimilarities",
    "EmbeddingGradients",
    "info_nce",
    "batch_threshold",
    "positive_weights",
    "progressive_loss",
    "update_momentum",
    "loss_gradients",
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


@dataclass
class BatchSimilarities:
    """Similarities and derived coefficients for one batch, kept for audit.

    ``neg_mask`` marks which entries of ``neg`` participate; excluded slots
    arise when in-batch sharing would make a query's own positive one of
    its negatives.
    """

    pos: np.ndarray          # (B,)
    neg: np.ndarray          # (B, N)
    sigma: float
    weights: np.ndarray      # (B,)
    scales: np.ndarray       # (B, N)
    neg_mask: np.ndarray = field(default=None)  # (B, N) bool

    def __post_init__(self):
        if self.neg_mask is None:
            self.neg_mask = np.ones(self.neg.shape, dtype=bool)


@dataclass
class EmbeddingGradients:
    """Loss gradients with respect to query, positive, and negative embeddings."""

    query: np.ndarray      # (B, d)
    positive: np.ndarray   # (B, d)
    negative: np.ndarray   # (B, N, d)


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


def _reduce(per_query: np.ndarray, reduction: str) -> float:
    if reduction == "sum":
        return float(np.sum(per_query))
    if reduction == "mean":
        return float(np.mean(per_query))
    raise ValueError(f"unknown reduction {reduction!r}, expected 'sum' or 'mean'")


def _logits(pos, neg, neg_mask, scales, tau: float) -> np.ndarray:
    """Negative logits shifted by the positive one, (a * neg - pos) / tau;
    masked entries are -inf."""
    return np.where(neg_mask, (scales * neg - pos[:, None]) / tau, -np.inf)


def _row_lse_over_zero(shifted: np.ndarray) -> np.ndarray:
    """Row-wise log(1 + sum(exp(row))) via log-sum-exp over [0, row...].

    Shifting by the positive logit before exponentiation avoids the
    cancellation of computing lse(logits) - pos_logit when the positive
    dominates. -inf entries (masked candidates) contribute nothing.
    """
    z = np.concatenate(
        [np.zeros((shifted.shape[0], 1)), shifted], axis=1
    )
    m = np.max(z, axis=1, keepdims=True)
    return (m[:, 0] + np.log(np.sum(np.exp(z - m), axis=1)))


def _weighted_loss(p, n, m, weights, scales, tau: float, reduction: str) -> float:
    """The reduced per-query ``w * log(1 + sum(exp(logits)))``."""
    return _reduce(weights * _row_lse_over_zero(_logits(p, n, m, scales, tau)), reduction)


def info_nce(pos, neg, tau: float, neg_mask=None, reduction: str = "sum") -> float:
    """Temperature-scaled softmax contrastive loss over a batch.

    Per query q the loss is -log of exp(pos_q/tau) divided by the sum of
    exp(pos_q/tau) and every exp(neg_qn/tau). The result is >= 0 and is
    exactly 0 only when there are no negatives. This is the progressive
    loss with every weight and scale equal to 1.

    Args:
        pos: (B,) positive similarities.
        neg: (B, N) negative similarities; N may be 0.
        tau: temperature, > 0.
        neg_mask: optional (B, N) bool; False entries are ignored.
        reduction: 'sum' (default) or 'mean' over queries.
    """
    p, n, m = _check_inputs(pos, neg, tau, neg_mask)
    return _weighted_loss(p, n, m, 1.0, 1.0, tau, reduction)


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
    reduction: str = "sum",
) -> tuple[float, BatchSimilarities]:
    """Adaptively weighted contrastive loss plus its audit record.

    Per query q the loss is ``-w_q * log`` of exp(pos_q/tau) divided by the
    sum of exp(pos_q/tau) and every exp(a_qn * neg_qn / tau); the scale
    multiplies the raw similarity before the division by tau. With all
    weights and scales equal to 1 this reduces exactly to ``info_nce``.

    Returns:
        (value, BatchSimilarities) where the record carries the inputs and
        the derived sigma, weights, and scales for that batch.
    """
    p, n, m = _check_inputs(pos, neg, tau, neg_mask)
    w = positive_weights(p, sigma)
    a = _scale_matrix(p, n, sigma, t)
    value = _weighted_loss(p, n, m, w, a, tau, reduction)
    record = BatchSimilarities(
        pos=p.copy(), neg=n.copy(), sigma=float(sigma), weights=w, scales=a, neg_mask=m
    )
    return value, record


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


def _unit_rows(x: np.ndarray, used, name: str):
    """Rows scaled to unit norm, and the norms they were divided by.

    A zero row is an error where ``used`` is set; elsewhere it stays zero
    and reads norm 1, so it gets zero gradient.
    """
    norms = np.linalg.norm(x, axis=1)
    bad = np.flatnonzero((norms == 0.0) & used)
    if bad.size:
        raise ValueError(f"zero-norm embedding: {name} at index {int(bad[0])}")
    norms[norms == 0.0] = 1.0
    return x / norms[:, None], norms


def loss_gradients(
    query_embs,
    pos_embs,
    neg_embs,
    sigma: float,
    t: float,
    hyper: HyperParams,
    neg_mask=None,
    reduction: str = "sum",
) -> EmbeddingGradients:
    """Analytic gradients of the progressive loss w.r.t. all embeddings.

    Runs the shared-pool kernel on the pool ``[p; z.reshape(B * N, d)]`` in
    which query i sees only its own N slots, so a zero-norm error names
    slot ``B + i * N + n`` for negative (i, n). The coefficients w and a
    are derived from the cosines and then treated as constants.

    Args:
        query_embs: (B, d).
        pos_embs: (B, d).
        neg_embs: (B, N, d); masked slots may hold arbitrary vectors.
        neg_mask: optional (B, N) bool; False slots get zero gradient.
        reduction: must match the reduction used for the loss value.
    """
    q = np.asarray(query_embs, dtype=np.float64)
    p = np.asarray(pos_embs, dtype=np.float64)
    z = np.asarray(neg_embs, dtype=np.float64)
    if q.ndim != 2 or p.shape != q.shape:
        raise ValueError(
            f"query_embs and pos_embs must both be (B, d), got {q.shape} and {p.shape}"
        )
    if z.ndim != 3 or z.shape[0] != q.shape[0] or z.shape[2] != q.shape[1]:
        raise ValueError(
            f"neg_embs must be (B, N, d) matching queries, got {z.shape}"
        )
    b, n, d = z.shape
    m = np.ones((b, n), dtype=bool) if neg_mask is None else np.asarray(neg_mask, dtype=bool)
    if m.shape != (b, n):
        raise ValueError(f"neg_mask shape {m.shape} does not match neg_embs {(b, n)}")
    pool = np.concatenate([p, z.reshape(b * n, d)])
    mask = np.zeros((b, b + b * n), dtype=bool)
    mask[:, b:] = (np.eye(b, dtype=bool)[:, :, None] & m[:, None, :]).reshape(b, b * n)
    # the kernel applies the zero-norm rule; here a zero row reads cosine 0
    cos = _unit_rows(q, False, "query")[0] @ _unit_rows(pool, False, "candidate")[0].T
    np.clip(cos, -1.0, 1.0, out=cos)
    pos = cos[:, :b].diagonal()
    neg = cos[:, b:].reshape(b, b, n)[np.arange(b), np.arange(b)]
    # off-block scales sit in masked slots, so tiling the blocks is enough
    scales = np.concatenate(
        [np.ones((b, b)), np.tile(_scale_matrix(pos, neg, sigma, t), b)], axis=1
    )
    grad_q, grad_c = _pool_gradients(
        q, pool, mask, positive_weights(pos, sigma), scales, hyper.tau, reduction
    )
    return EmbeddingGradients(
        query=grad_q, positive=grad_c[:b], negative=grad_c[b:].reshape(b, n, d)
    )


def _pool_gradients(query_embs, cand_embs, neg_mask, weights, scales, tau, reduction):
    """Embedding gradients ``(grad_query, grad_cand)`` of the weighted loss
    over a shared candidate pool.

    Slot i is query i's positive; slot j is one of its negatives where
    ``neg_mask[i, j]``. With w (B,) and a (B, M) frozen, the loss moves the
    cosines S = Uq Uc^T through one (B, M) coefficient matrix D: w pi a / tau
    on each negative (pi is the query's softmax) plus w (pi_0 - 1) / tau on
    the positive slot. Through the cosine, grad_q = (D Uc - rowsum(D*S) Uq)
    / |q| and grad_c = (D^T Uq - colsum(D*S) Uc) / |c|, so no (B, M, d)
    array is built. A zero-norm row is an error only if a query uses it.
    """
    b = query_embs.shape[0]
    used = neg_mask.any(axis=0)
    used[:b] = True
    uq, nq = _unit_rows(query_embs, True, "query")
    uc, nc = _unit_rows(cand_embs, used, "candidate")
    s = uq @ uc.T
    np.clip(s, -1.0, 1.0, out=s)
    rows = np.arange(b)
    shifted = _logits(s[rows, rows], s, neg_mask, scales, tau)
    lse = _row_lse_over_zero(shifted)
    pi = np.exp(shifted - lse[:, None])  # the negatives' softmax shares
    coef = weights[:, None] * pi * scales / tau
    # pi_0 - 1 is minus the negatives' total share, which keeps its digits
    # when the positive dominates
    coef[rows, rows] -= weights * pi.sum(axis=1) / tau
    if reduction == "mean":
        coef /= b
    elif reduction != "sum":
        raise ValueError(f"unknown reduction {reduction!r}, expected 'sum' or 'mean'")
    ds = coef * s
    grad_q = (coef @ uc - ds.sum(axis=1)[:, None] * uq) / nq[:, None]
    grad_c = (coef.T @ uq - ds.sum(axis=0)[:, None] * uc) / nc[:, None]
    return grad_q, grad_c
