"""Scalar reference implementations that the tests check the kernels against."""

import numpy as np

from progemb.encoder import _encode_backward, encode_batch


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


def oracle_mae(enc, dec, cleans, corrupteds):
    """Per-sequence MAE reference: each sequence builds its own (L, V) log
    softmax. Returns the per-sequence losses and the gradients of their sum
    for token_table, projection, position_table and output."""
    fwd = encode_batch(enc, corrupteds)
    grads = {name: np.zeros_like(p) for name, p in {**enc.params(), **dec.params()}.items()}
    d_embs = np.empty_like(fwd.embs)
    losses = []
    for i, clean in enumerate(cleans):
        length = len(clean)
        rows, tgt = np.arange(length), np.array(clean.tokens)
        z = fwd.embs[i] + dec.position_table[:length]
        logp = _log_softmax_rows(z @ dec.output)
        losses.append(-float(logp[rows, tgt].sum()))
        d_logits = np.exp(logp)
        d_logits[rows, tgt] -= 1.0
        grads["output"] += z.T @ d_logits
        dz = d_logits @ dec.output.T
        grads["position_table"][:length] += dz
        d_embs[i] = dz.sum(axis=0)
    _encode_backward(enc, fwd, d_embs, grads)
    return losses, grads
