"""Embedding-space primitives: the loss's similarity matrix and `top_k`, the one
retrieval kernel of mining and evaluation. All arithmetic is double precision:
with a temperature of 0.01 the losses scale similarities by 100 before
exponentiation, and float32 loses gradient fidelity at that magnification.

`top_k` is exact and its scores are einsum's, but einsum is slow: a BLAS
product screens every query-passage pair first, and einsum rescores only the
pairs within a proven rounding bound of each query's k-th best.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

__all__ = ["cosine", "sim_matrix", "top_k"]

# entries per top-k tile (512 KB of float64): bounds the screen's memory. The
# entries a query block holds between tiles, and each rescoring gather, stay
# within TOPK_BLOCK // 8.
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


def _unit_rows(x, name: str, finite: bool = False) -> np.ndarray:
    """x's rows scaled to unit norm. A zero row is a ValueError, and so, with
    ``finite``, is a row whose norm is not finite; without it such a row
    gives NaN, which the training step reports as a non-finite loss."""
    arr = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(arr, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"zero-norm vector: {name} row {int(zero[0])}")
    bad = np.flatnonzero(~np.isfinite(norms)) if finite else ()
    if len(bad):
        raise ValueError(f"non-finite vector: {name} row {int(bad[0])}")
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


def _settle(qb, g, held, found, threshold, rank, kk: int):
    """The ``held`` (row, column, score) entries of a query block with the
    ``found`` (row, column, BLAS score) ones that beat their row's
    ``threshold``. Those are rescored with einsum and clipped, gathering at
    most TOPK_BLOCK // 8 entries at a time. All are sorted by (row, -score,
    id rank), and each row is cut to its first kk."""
    r, c, b = (np.concatenate(x) for x in zip(*found))
    keep = b > threshold[r]
    r, c = r[keep], c[keep]
    e, pairs = np.empty(len(r)), max(1, TOPK_BLOCK // (8 * g.shape[1]))
    for lo in range(0, len(r), pairs):
        span = slice(lo, lo + pairs)
        e[span] = np.einsum("nd,nd->n", qb[r[span]], g[c[span]])
    np.clip(e, -1.0, 1.0, out=e)
    r, c, e = (np.concatenate(x) for x in zip(held, (r, c, e)))
    order = np.lexsort((rank[c], -e, r))
    r, c, e = r[order], c[order], e[order]
    n = np.bincount(r, minlength=len(qb))
    keep = np.arange(len(r)) - (np.cumsum(n) - n)[r] < kk
    return r[keep], c[keep], e[keep]


def _raise_best(best, r, b):
    """Each row's kk best of ``best`` (rows, kk) and of the scores ``b`` in the
    ascending rows ``r``, from one partition of kk plus the most scores any
    row has."""
    kk, n = best.shape[1], np.bincount(r, minlength=len(best))
    both = np.full((len(best), kk + n.max()), -np.inf)
    both[:, :kk] = best
    both[r, kk + np.arange(len(r)) - (np.cumsum(n) - n)[r]] = b
    both.partition(n.max(), axis=1)
    return both[:, n.max() :].copy()


def _block(qb, g, skip, rank, kk: int, width: int, slack: float):
    """The top kk (row, column, score) entries of each row of the query block
    ``qb``, sorted by (row, -score, id rank); see `top_k`.

    One BLAS product scores each tile of ``width`` gallery columns, and the
    ``skip`` (row, column) pairs score -inf. A column is found when it scores
    above its row's kk-th best so far less ``slack``: strictly, so that an
    excluded column is never found. Each row's kk best come from a partition
    of the first tile, then only found scores can raise them
    (`_raise_best`). The found entries are settled (`_settle`) at the last
    tile, or once there are more than TOPK_BLOCK // 8 of them: many ties
    could otherwise hold a whole gallery per row.
    """
    skip_row, skip_col = np.array(skip, dtype=np.intp).reshape(-1, 2).T
    held = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0))
    found, pending = [], 0
    for lo in range(0, len(g), width):
        tile, here = g[lo : lo + width].T, (skip_col >= lo) & (skip_col < lo + width)
        skip_here = skip_row[here], skip_col[here] - lo
        s = qb @ tile
        s[skip_here] = -np.inf
        if lo == 0:  # at least kk columns wide, as kk <= len(g)
            # partitioned in place, then scored again: a copy of the tile
            # would raise the call's peak memory
            s.partition(s.shape[1] - kk, axis=1)
            best = s[:, -kk:].copy()
            np.matmul(qb, tile, out=s)
            s[skip_here] = -np.inf
        at = np.flatnonzero(s > best[:, :1] - slack)
        r, b = at // s.shape[1], s.ravel()[at]
        if lo:  # the first tile's scores are in best already
            best = _raise_best(best, r, b)
        found.append((r, at % s.shape[1] + lo, b))
        pending += len(at)
        if pending > TOPK_BLOCK // 8 or lo + width >= len(g):
            held = _settle(qb, g, held, found, best[:, 0] - slack, rank, kk)
            found, pending = [], 0
    return held


def top_k(queries, gallery, ids, k: int, exclude=None) -> list[tuple]:
    """Exact top-k cosine retrieval: one (ids, scores) pair of tuples per query.

    queries is (Q, d); gallery is (M, d), M >= 1; every row is finite and
    nonzero, and ids names each gallery row once; k >= 1; exclude holds, per
    query, ids it must not return. A query with fewer than k eligible rows
    gets all of them. The scores are the entries of ``np.einsum("qd,md->qm",
    ...)`` over the unit rows, clipped to [-1, 1]: einsum, unlike a BLAS
    matmul, gives byte-identical rows the same score at any position. They
    descend, and exact ties go by ascending id.

    Two steps per block of query rows. The screen (`_block`) walks tiles of
    at most TOPK_BLOCK entries, scores each with one BLAS product and keeps
    the columns within ``slack`` of their row's k-th best BLAS score. Only
    those are rescored with einsum, and one lexsort on (row, -score, id rank)
    orders the whole block (`_settle`).

    The screen is exact. Each product of unit rows, BLAS or einsum, is within
    gamma_d = d eps / (1 - d eps) of the exact dot product (Higham, Accuracy
    and Stability of Numerical Algorithms, 3.1), so the two differ by at most
    2 gamma_d. Let T be a row's k-th best BLAS score. The k columns at or above
    it have einsum scores of at least T - 2 gamma_d, so the k-th best clipped
    einsum score is at least the clip of T - 2 gamma_d. A column that reaches
    it has an einsum score of at least T - 2 gamma_d, or ties with it at the
    +1 or -1 clip; either way its BLAS score is at least T - 4 gamma_d. The
    slack adds a few ulps to 4 gamma_d for the unit rows' rounded norms and
    the rounding of T - slack.
    """
    q = _unit_rows(queries, "queries", finite=True)
    g = _unit_rows(gallery, "gallery", finite=True)
    m, d = g.shape
    kk = min(k, m)
    if q.shape[1] != d or len(ids) != m or kk < 1:
        raise ValueError(f"bad top-k input: queries {q.shape}, gallery {g.shape}, "
                         f"{len(ids)} ids, k={k}")
    column = dict(zip(ids, range(m)))
    if len(column) < m:
        repeated = next(pid for j, pid in enumerate(ids) if column[pid] != j)
        raise ValueError(f"repeated gallery id {repeated!r}")
    # Python's order: np.argsort on a numpy string array ignores trailing NULs
    rank = np.empty(m, dtype=np.intp)
    rank[sorted(range(m), key=ids.__getitem__)] = np.arange(m)
    eps = np.finfo(np.float64).eps
    slack = 4 * d * eps / (1 - d * eps) + 8 * eps
    # Square tiles reuse a gallery tile for many queries, but a block holds
    # rows * k entries between tiles, in arrays that fragment the heap: at
    # d = 64, k = 50 over 2,000 passages, 81 rows a block raised `bench`'s
    # peak RSS by 1.2 MB over 20 rows (TOPK_BLOCK // (64 * k)). A tile is at
    # least k columns wide, so that a tiny TOPK_BLOCK stays usable.
    rows = max(1, min(len(q), isqrt(TOPK_BLOCK), TOPK_BLOCK // (64 * kk)))
    width = max(kk, TOPK_BLOCK // rows)
    out = []
    for start in range(0, len(q), rows):
        qb = q[start : start + rows]
        skip = [(i, column[p]) for i, ps in enumerate(exclude[start : start + rows])
                for p in ps if p in column] if exclude else []
        r, c, e = _block(qb, g, skip, rank, kk, width, slack)
        names, scores, at = [ids[j] for j in c.tolist()], e.tolist(), 0
        for size in np.bincount(r, minlength=len(qb)).tolist():
            out.append((tuple(names[at : at + size]), tuple(scores[at : at + size])))
            at += size
    return out
