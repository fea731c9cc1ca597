"""Embedding-space primitives: the loss's similarity matrix and `top_k`, the one
retrieval kernel of mining and evaluation. All arithmetic is double precision:
with a temperature of 0.01 the losses scale similarities by 100 before
exponentiation, and float32 loses gradient fidelity at that magnification.
"""

from __future__ import annotations

import numpy as np

__all__ = ["cosine", "sim_matrix", "top_k", "log_sum_exp"]

# scores per top-k query block (512 KB of float64); bounds the block's memory
TOPK_BLOCK = 1 << 16


def _as_vector(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {arr.shape}")
    return arr


def cosine(a, b) -> float:
    """Cosine similarity of two vectors, clamped to [-1, 1].

    The clamp absorbs rounding so downstream formulas can assume the closed
    interval. Zero-norm inputs are rejected rather than mapped to 0: a zero
    vector almost always means an upstream encoder bug and should surface
    loudly.

    Raises:
        ValueError: on dimension mismatch or a zero-norm input.
    """
    va = _as_vector(a, "a")
    vb = _as_vector(b, "b")
    if va.shape != vb.shape:
        raise ValueError(
            f"dimension mismatch: a has {va.shape[0]} components, b has {vb.shape[0]}"
        )
    na = np.linalg.norm(va)
    nb = np.linalg.norm(vb)
    if na == 0.0:
        raise ValueError("zero-norm vector: a")
    if nb == 0.0:
        raise ValueError("zero-norm vector: b")
    value = float(np.dot(va, vb) / (na * nb))
    return min(1.0, max(-1.0, value))


def _unit_rows(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(arr, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"zero-norm vector: {name} row {int(zero[0])}")
    return arr / norms[:, None]


def sim_matrix(queries, candidates) -> np.ndarray:
    """Pairwise cosine similarities between two stacks of vectors.

    Args:
        queries: array-like of shape (B, d).
        candidates: array-like of shape (M, d).

    Returns:
        (B, M) float64 matrix whose (i, j) entry equals
        ``cosine(queries[i], candidates[j])``, clamped to [-1, 1].

    Raises:
        ValueError: on empty inputs, dimension mismatch, or any zero-norm row.
    """
    q = np.asarray(queries, dtype=np.float64)
    c = np.asarray(candidates, dtype=np.float64)
    if q.ndim != 2 or c.ndim != 2:
        raise ValueError(
            f"expected 2-d arrays, got shapes {q.shape} and {c.shape}"
        )
    if q.shape[0] < 1 or c.shape[0] < 1:
        raise ValueError("queries and candidates must each contain at least one vector")
    if q.shape[1] != c.shape[1]:
        raise ValueError(
            f"dimension mismatch: queries have d={q.shape[1]}, candidates d={c.shape[1]}"
        )
    s = _unit_rows(q, "queries") @ _unit_rows(c, "candidates").T
    np.clip(s, -1.0, 1.0, out=s)
    return s


def top_k(queries, gallery, ids, k: int, exclude=None) -> list[tuple]:
    """Exact top-k cosine retrieval: one (ids, scores) pair of tuples per query.

    queries is (Q, d); gallery is (M, d), M >= 1, one row per distinct id;
    k >= 1; exclude holds, per query, ids it must not return. Scores descend,
    exact ties go by ascending id. Queries are scored in blocks of at most
    TOPK_BLOCK scores; np.partition finds each row's kth score and the
    columns at or above it are ordered by (-score, id rank). einsum, unlike a
    BLAS matmul, gives byte-identical rows the same score at any position.
    """
    q, g = _unit_rows(queries, "queries"), _unit_rows(gallery, "gallery")
    m, kk = len(g), min(k, len(g))
    if q.shape[1] != g.shape[1] or len(ids) != m or kk < 1:
        raise ValueError(f"bad top-k input: queries {q.shape}, gallery {g.shape}, "
                         f"{len(ids)} ids, k={k}")
    rank = np.empty(m, dtype=np.intp)
    rank[sorted(range(m), key=ids.__getitem__)] = np.arange(m)
    column = {pid: j for j, pid in enumerate(ids)} if exclude else {}
    out, step = [], max(1, TOPK_BLOCK // m)
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


def log_sum_exp(values) -> float:
    """Numerically stable log(sum(exp(values))) for a nonempty vector.

    Uses the max-subtraction form so the result is finite whenever the
    inputs are finite. -inf entries contribute zero weight, which lets
    callers mask out candidates.
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
