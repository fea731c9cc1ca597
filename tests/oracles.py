"""Scalar reference implementations that the tests check the kernels against."""

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from progemb.encoder import MASK_ID, Tokens, _encode_backward, _mae_forward_backward, encode_batch
from progemb.loss import HyperParams, _scale_matrix, positive_weights
from progemb.similarity import sim_matrix


def oracle_topk(query_emb, ids, embs, exclude, k):
    """Exhaustive scalar sort of one query: similarity descending, then
    ascending id. Each similarity is a scalar cosine clamped to [-1, 1];
    ids in exclude are skipped. Returns the first k (id, similarity) pairs."""
    qn = np.linalg.norm(query_emb)
    pool = []
    for pid, row in zip(ids, embs):
        if pid in exclude:
            continue
        s = float(np.dot(query_emb, row) / (qn * np.linalg.norm(row)))
        pool.append((pid, min(1.0, max(-1.0, s))))
    pool.sort(key=lambda item: (-item[1], item[0]))
    return pool[:k]


def oracle_blocked_topk(queries, gallery, ids, k, exclude=None, block=1 << 16):
    """The blocked-einsum reference for `similarity.top_k`, with no screen:
    every score is an entry of ``np.einsum("qd,md->qm", ...)`` over the unit
    rows, clipped to [-1, 1], in query blocks of at most ``block`` scores;
    np.partition finds each row's kth score and the columns at or above it
    are ordered by (-score, id rank). Returns one (ids, scores) pair of
    tuples per query."""
    q, g = (np.asarray(x, dtype=np.float64) for x in (queries, gallery))
    q, g = q / np.linalg.norm(q, axis=1)[:, None], g / np.linalg.norm(g, axis=1)[:, None]
    m, kk = len(g), min(k, len(g))
    rank = np.empty(m, dtype=np.intp)
    rank[sorted(range(m), key=ids.__getitem__)] = np.arange(m)
    column = {pid: j for j, pid in enumerate(ids)} if exclude else {}
    out, step = [], max(1, block // m)
    for start in range(0, len(q), step):
        s = np.einsum("qd,md->qm", q[start : start + step], g)
        np.clip(s, -1.0, 1.0, out=s)
        for i, skip in enumerate(exclude[start : start + step] if exclude else ()):
            s[i, [column[p] for p in skip if p in column]] = -np.inf
        for row in s:
            top = np.flatnonzero(row >= np.partition(row, m - kk)[m - kk])
            top = top[np.lexsort((rank[top], -row[top]))][:kk]
            top = top[row[top] > -np.inf]
            out.append((tuple(ids[j] for j in top.tolist()), tuple(row[top].tolist())))
    return out


def oracle_log_sum_exp(values) -> float:
    """Numerically stable log(sum(exp(values))) for a nonempty vector.

    Uses the max-subtraction form so the result is finite whenever the
    inputs are finite. -inf entries contribute zero weight.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"log_sum_exp expects a 1-d vector, got shape {v.shape}")
    if v.size == 0:
        raise ValueError("log_sum_exp of an empty vector is undefined")
    m = float(np.max(v))
    if not np.isfinite(m):
        # all -inf (empty sum) or a +inf entry; either way the limit is m
        return m
    return m + float(np.log(np.sum(np.exp(v - m))))


def _log_softmax_rows(logits):
    m = logits.max(axis=1, keepdims=True)
    shifted = logits - m
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def store(seqs) -> Tokens:
    """The token store of the given id sequences, flattened in order."""
    return Tokens(
        np.array([t for seq in seqs for t in seq], dtype=np.intp),
        np.array([len(seq) for seq in seqs], dtype=np.intp),
    )


def rows_of(tokens: Tokens) -> list[tuple[int, ...]]:
    """Each row of a store as a tuple of ids, by Python slicing."""
    ids, out, start = tokens.ids.tolist(), [], 0
    for length in tokens.lengths.tolist():
        out.append(tuple(ids[start : start + length]))
        start += length
    return out


def oracle_tokenize(tok, text, max_len=0) -> tuple[int, ...]:
    """One text at a time: split on whitespace, truncate, look each word up."""
    words = text.split()
    if not words:
        raise ValueError("cannot tokenize empty text")
    if max_len > 0:
        words = words[:max_len]
    ids = []
    for w in words:
        if w not in tok.id_to_token:
            raise ValueError(f"token not in vocabulary: {w!r}")
        ids.append(tok.id_to_token.index(w))
    return tuple(ids)


def oracle_corrupt(seq, mask_ratio, seed) -> tuple[int, ...]:
    """One sequence at a time: ceil(mask_ratio * len) positions drawn
    without replacement from a generator seeded with seed become MASK_ID."""
    n_mask = math.ceil(mask_ratio * len(seq))
    if n_mask == 0:
        return tuple(seq)
    rng = np.random.default_rng(seed)
    tokens = list(seq)
    for pos in rng.choice(len(seq), size=n_mask, replace=False):
        tokens[int(pos)] = MASK_ID
    return tuple(tokens)


def mae_loss(enc, dec, clean, corrupted) -> float:
    """The MAE kernel's reconstruction loss of a one-row store; its
    gradients are never drawn."""
    losses, _ = _mae_forward_backward(enc, dec, clean, corrupted)
    return losses[0]


def oracle_mae(enc, dec, clean, corrupted):
    """Per-sequence MAE reference: each row builds its own (L, V) log
    softmax. Returns the per-row losses and the gradients of their sum,
    a MaeDecoder and a ToyEncoder over zeroed vectors of their own."""
    fwd = encode_batch(enc, corrupted)
    d_dec, d_enc = zero_grad(dec), zero_grad(enc)
    d_embs = np.empty_like(fwd.embs)
    losses = []
    for i, seq in enumerate(rows_of(clean)):
        length = len(seq)
        rows, tgt = np.arange(length), np.array(seq)
        z = fwd.embs[i] + dec.position_table[:length]
        logp = _log_softmax_rows(z @ dec.output)
        losses.append(-float(logp[rows, tgt].sum()))
        d_logits = np.exp(logp)
        d_logits[rows, tgt] -= 1.0
        d_dec.output[...] += z.T @ d_logits
        dz = d_logits @ dec.output.T
        d_dec.position_table[:length] += dz
        d_embs[i] = dz.sum(axis=0)
    _encode_backward(enc, fwd, d_embs, d_enc)
    return losses, (d_dec, d_enc)


# The progressive loss and its embedding gradients as the package computed
# them before the loss kernel returned similarity gradients: the value from
# its own log-sum-exp, the gradients from a second one over renormalised
# rows, with the cosine's chain rule applied here.

@dataclass
class EmbeddingGradients:
    """Loss gradients with respect to query, positive, and negative embeddings."""

    query: np.ndarray      # (B, d)
    positive: np.ndarray   # (B, d)
    negative: np.ndarray   # (B, N, d)


def oracle_contrastive(p, n, m, w, a, tau: float):
    """Reference loss kernel from whole-array temporaries: a masked copy, a
    concatenated zero column and an out-of-place exp, then the gradients as
    new arrays. Returns (summed value, weights, scales, mask, grad_pos,
    grad_neg)."""
    z = np.where(m, (a * n - p[:, None]) / tau, -np.inf)
    z = np.concatenate([np.zeros((z.shape[0], 1)), z], axis=1)
    high = np.max(z, axis=1, keepdims=True)
    np.exp(z - high, out=z)
    total = np.sum(z, axis=1)
    value = float(np.sum(w * (high[:, 0] + np.log(total))))
    coef = w / tau / total
    pi = z[:, 1:]
    grad_neg = coef[:, None] * pi
    grad_neg *= a
    grad_pos = -coef * np.sum(pi, axis=1)
    return value, w, a, m, grad_pos, grad_neg


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


def _weighted_loss(p, n, m, weights, scales, tau: float) -> float:
    """The summed per-query ``w * log(1 + sum(exp(logits)))``."""
    return float(np.sum(weights * _row_lse_over_zero(_logits(p, n, m, scales, tau))))


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


def oracle_loss_gradients(
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


def _distinct(ids, rows):
    """Exact integer code of each id, by first appearance, and each code's row."""
    codes: dict[str, int] = {}
    distinct: list[int] = []
    for key, row in zip(ids, rows):
        code = codes.setdefault(key, len(codes))
        if code == len(distinct):
            distinct.append(row)
        elif distinct[code] != row:
            raise ValueError(f"id {key!r} maps to two different token sequences")
    return np.array([codes[key] for key in ids]), distinct


def oracle_batch_layout(examples):
    """A batch's layout coded by id, as build_batch made it from per-example
    records: (store rows encoded, forward row of each query then slot,
    exclusions). An exclusion is a (query index, slot index) pair, query
    i's slot j off the diagonal that repeats its positive's id, listed
    query-major, then by slot. Each example is (query id, query row,
    positive id, positive row, negative ids, negative rows)."""
    cand_ids = [ex[2] for ex in examples] + [n for ex in examples for n in ex[4]]
    cand_rows = [ex[3] for ex in examples] + [n for ex in examples for n in ex[5]]
    query_codes, queries = _distinct([ex[0] for ex in examples], [ex[1] for ex in examples])
    cand_codes, cands = _distinct(cand_ids, cand_rows)
    rows = np.concatenate([query_codes, len(queries) + cand_codes])
    slots: dict[int, list[int]] = {}
    for j, code in enumerate(cand_codes.tolist()):
        slots.setdefault(code, []).append(j)
    excluded = [(i, j) for i in range(len(examples)) for j in slots[int(cand_codes[i])] if j != i]
    return queries + cands, rows, excluded


def batch_similarities(batch):
    """A batch's (pos, neg, neg_mask) in one piece: the (B, M) cosines of
    sim_matrix over the whole pool, their diagonal, and the mask that is
    False where a slot's code equals the query's positive's. The queries'
    and slots' embeddings are gathered from the forward rows."""
    queries, slots = _batch_embeddings(batch)
    sims = sim_matrix(queries, slots)
    diag = np.arange(batch.size)
    codes = batch.rows[batch.size:]
    return sims[diag, diag].copy(), sims, codes[:batch.size, None] != codes


def _batch_embeddings(batch):
    """A batch's (B, d) query and (M, d) slot embeddings, by forward row."""
    return batch.forward.embs[batch.rows[:batch.size]], batch.forward.embs[batch.rows[batch.size:]]


def oracle_step_gradients(batch, enc, weights, scales, tau, reduction):
    """A fine-tune step's encoder gradient by the pool kernel: per-slot
    embedding gradients, summed per distinct sequence, then one backward.
    Returns a ToyEncoder over the gradient vector."""
    query_grad, cand_grad = _pool_gradients(
        *_batch_embeddings(batch), batch_similarities(batch)[2],
        weights, scales, tau, reduction,
    )
    d_embs = np.zeros_like(batch.forward.embs)
    np.add.at(d_embs, batch.rows, np.concatenate([query_grad, cand_grad]))
    grad = zero_grad(enc)
    _encode_backward(enc, batch.forward, d_embs, grad)
    return grad


class OracleAdamW:
    """AdamW as the package computed it before its update was blocked and
    in place: whole-array expressions, fresh moment arrays every step."""

    def __init__(self, lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.lr, self.betas, self.eps, self.weight_decay = lr, betas, eps, weight_decay
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params, grads):
        b1, b2 = self.betas
        self.t += 1
        out = {}
        for name, p in params.items():
            g = grads[name]
            m = self._m.get(name)
            v = self._v.get(name)
            if m is None:
                m = np.zeros_like(p)
                v = np.zeros_like(p)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            self._m[name] = m
            self._v[name] = v
            m_hat = m / (1.0 - b1**self.t)
            v_hat = v / (1.0 - b2**self.t)
            new = p - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            if self.weight_decay:
                new = new - self.lr * self.weight_decay * p
            out[name] = new
        return out


def oracle_descent(params, grads, lr, weight_decay=0.0):
    """Gradient descent as whole-array expressions of the old parameters:
    p - lr * g, then - lr * weight_decay * p. Returns fresh arrays."""
    out = {}
    for name, p in params.items():
        new = p - lr * grads[name]
        if weight_decay:
            new = new - lr * weight_decay * p
        out[name] = new
    return out


def zero_grad(model):
    """A gradient of model: the same model type over a zeroed vector."""
    return replace(model, params=np.zeros_like(model.params))


def matrices(*models) -> dict:
    """The named matrices of ToyEncoders and MaeDecoders, by name: the
    views of each model's parameter vector."""
    return {f.name: getattr(model, f.name) for model in models for f in fields(model) if not f.init}
