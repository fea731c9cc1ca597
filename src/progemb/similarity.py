"""Embedding-space primitives: the loss's similarity matrix and `top_k`, the one
retrieval kernel of mining and evaluation. All arithmetic is double precision:
with a temperature of 0.01 the losses scale similarities by 100 before
exponentiation, and float32 loses gradient fidelity at that magnification.

`top_k` is exact and its scores are einsum's, but einsum is slow: a BLAS
product screens every query-passage pair first, and einsum rescores only the
pairs within a proven rounding bound of each query's k-th best. It streams
the gallery: only one tile of it and each query's k best are held.
"""

from __future__ import annotations

import numpy as np

__all__ = ["cosine", "sim_matrix", "top_k"]

# entries per top-k gallery tile and per screening product (512 KB of float64
# each): bounds top_k's memory beyond its (Q, k) state. The first tiles take a
# quarter of it: with whole tiles, `bench` on paper-bench-noisy (2,000
# passages) peaked about 0.9 MB higher; with quarter tiles throughout,
# `evaluate` ranked a 100k gallery about 25 % slower.
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


def _row_norms(arr: np.ndarray, name: str, finite: bool, first: int = 0) -> np.ndarray:
    """The norms of arr's rows. A zero row is a ValueError, and so, with
    ``finite``, is a row whose norm is not finite; either names the row as
    ``first`` plus its index."""
    norms = np.linalg.norm(arr, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"zero-norm vector: {name} row {first + int(zero[0])}")
    bad = np.flatnonzero(~np.isfinite(norms)) if finite else ()
    if len(bad):
        raise ValueError(f"non-finite vector: {name} row {first + int(bad[0])}")
    return norms


def _unit_rows(x, name: str) -> np.ndarray:
    """x's rows scaled to unit norm. A zero row is a ValueError; a row whose
    norm is not finite gives NaN."""
    arr = np.asarray(x, dtype=np.float64)
    return arr / _row_norms(arr, name, False)[:, None]


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


def _tiles(gallery, base: int, width: int, d: int):
    """The rows of the gallery's (ids, embeddings) blocks as (first row, ids,
    rows) tiles, in one buffer that the next tile overwrites: the caller's
    block size does not shape the tiles. The first tiles hold ``base`` rows,
    and a later one an eighth of the rows read before it, up to ``width``:
    a short gallery is screened in small tiles, a long one in few large
    ones. The buffer doubles as rows arrive, so it is never longer than the
    gallery. No id is checked: the caller's ids name each row once."""
    buf, names, fill, first = np.empty((0, d)), np.empty(0, dtype=object), 0, 0
    limit = base
    for ids, embs in gallery:
        embs = np.asarray(embs, dtype=np.float64)
        if embs.ndim != 2 or embs.shape[1] != d or len(ids) != len(embs):
            raise ValueError(f"bad top-k input: a gallery block of shape {embs.shape} "
                             f"with {len(ids)} ids, queries of d={d}")
        at = 0
        while at < len(embs):
            if fill == len(buf):
                size = min(limit, max(2 * fill, fill + len(embs) - at))
                buf = np.concatenate([buf[:fill], np.empty((size - fill, d))])
                names = np.concatenate([names[:fill], np.empty(size - fill, dtype=object)])
            take = min(len(buf) - fill, len(embs) - at)
            buf[fill : fill + take] = embs[at : at + take]
            names[fill : fill + take] = ids[at : at + take]
            fill, at = fill + take, at + take
            if fill == limit:
                yield first, names[:fill], buf[:fill]
                first, fill = first + fill, 0
                limit = min(width, max(limit, first // 8))
    if fill:
        yield first, names[:fill], buf[:fill]


def _ordered(r, ids, e, k: int):
    """The (row, id, score) entries by (row, -score, id), cut to k a row:
    one lexsort on (row, -score), then each run of exact ties put in
    ascending id order, in Python's order (a numpy string sort ignores
    trailing NULs)."""
    order = np.lexsort((-e, r))
    r, ids, e = r[order], ids[order], e[order]
    tie = (r[1:] == r[:-1]) & (e[1:] == e[:-1])
    if tie.any():
        edge = np.diff(np.concatenate([[0], tie, [0]]).astype(np.int8))
        for a, z in zip(np.flatnonzero(edge == 1).tolist(), np.flatnonzero(edge == -1).tolist()):
            run = a + np.array(sorted(range(z + 1 - a), key=ids[a : z + 1].__getitem__))
            ids[a : z + 1], e[a : z + 1] = ids[run], e[run]
    n = np.bincount(r)
    keep = np.arange(len(r)) - (np.cumsum(n) - n)[r] < k
    return r[keep], ids[keep], e[keep]


class _Screen:
    """The state of one `top_k` call, all that outlives a tile. Per query
    row, ``best`` holds its running kk best BLAS scores, the least first,
    for kk = min(k, gallery rows), set by the first tile. Per block of
    ``rows`` query rows, ``found`` holds the exact (row in the block, id,
    score) entries screened in. Once a block holds 6/5 of k entries a row,
    those that no longer beat their row's threshold are dropped, and if
    exact ties keep that many, each row is cut to its k best (`_ordered`):
    the state stays within 6/5 of (Q, k), plus one product's finds. (At
    3/2, `bench` on paper-bench-noisy peaked 0.4 MB higher, at no gain in
    time.) The query rows are scaled to unit norm a product's rows at a
    time, by the norms taken once."""

    def __init__(self, queries, norms, k: int, rows: int):
        d = queries.shape[1]
        eps = np.finfo(np.float64).eps
        self.queries, self.norms, self.k, self.rows = queries, norms, k, rows
        self.slack = 4 * d * eps / (1 - d * eps) + 8 * eps
        self.best = None  # set by the first tile
        blocks = range(0, len(queries), rows)
        self.found, self.count = [[] for _ in blocks], [0] * len(blocks)
        # 6/5 of k entries a row of the block, rounded up
        self.cap = [-(-6 * k * min(rows, len(queries) - lo) // 5) for lo in blocks]

    def tile(self, first: int, names, t):
        """Screen the unit rows t, gallery rows ``first`` on named by
        ``names``, against every query row; see `top_k`.

        One BLAS product of at most TOPK_BLOCK entries scores a span of
        whole query blocks. The first tile sets each row's kk best from a
        partition of its product: it holds k rows or more, or the whole
        gallery. A column is found when it scores above its row's kk-th
        best so far less ``slack``. After the first tile only found scores
        can raise the kk best (`_raise_best`), and the found ones that fall
        below the raised threshold are dropped. The rest are rescored with
        einsum while t is in hand, the two sides' gathered rows holding no
        more than one block's product, and filed by query block.
        """
        n, d = t.shape
        if first == 0:
            self.best = np.empty((len(self.queries), min(self.k, n)))
        kk = self.best.shape[1]
        # query rows per product: whole blocks, at most TOPK_BLOCK entries
        # and TOPK_BLOCK // (16 k) rows. A product's finds hold about k a
        # row: with spans of TOPK_BLOCK // n rows, `bench` on
        # paper-bench-noisy (k = 50) peaked about 1 MB higher.
        span = max(1, min(TOPK_BLOCK // n, TOPK_BLOCK // (16 * self.k)) // self.rows) * self.rows
        for lo in range(0, len(self.queries), span):
            qb = self.queries[lo : lo + span] / self.norms[lo : lo + span, None]
            best, s = self.best[lo : lo + span], qb @ t.T
            if first == 0:
                # partitioned in place, then scored again: a copy of the
                # product would raise the call's peak memory
                s.partition(n - kk, axis=1)
                best[...] = s[:, n - kk :]
                np.matmul(qb, t.T, out=s)
            at = np.flatnonzero(s > best[:, :1] - self.slack)
            r = at // n
            if first > 0 and len(at):
                b = s.ravel()[at]
                best[...] = _raise_best(best, r, b)
                keep = b > best[r, 0] - self.slack
                at, r = at[keep], r[keep]
            if not len(at):
                continue
            c, e, pairs = at % n, np.empty(len(at)), max(1, self.rows * n // (2 * d))
            for p in range(0, len(at), pairs):
                part = slice(p, p + pairs)
                e[part] = np.einsum("nd,nd->n", qb[r[part]], t[c[part]])
            np.clip(e, -1.0, 1.0, out=e)
            # copies: a block's entries must not keep another's alive
            ids = names[c]
            cuts = np.searchsorted(r, np.arange(0, len(qb) + self.rows, self.rows)).tolist()
            for j, (a, z) in enumerate(zip(cuts, cuts[1:])):
                blk = lo // self.rows + j
                if a < z:
                    self.found[blk].append((r[a:z] - j * self.rows, ids[a:z].copy(), e[a:z].copy()))
                    self.count[blk] += z - a
                    if self.count[blk] >= self.cap[blk]:
                        self.compact(blk)

    def compact(self, blk: int):
        """Keep block blk's found entries that still beat their row's
        threshold less ``slack``, cut to k a row if that leaves 6/5 of k.

        Dropping the others is exact by the screen's argument: an entry's
        einsum score is within 2 gamma_d of its BLAS one, and the slack
        exceeds that, so a dropped one scores below the k-th best einsum
        score at the end (see `top_k`)."""
        r, ids, e = (np.concatenate(x) for x in zip(*self.found[blk]))
        keep = e > self.best[blk * self.rows + r, 0] - self.slack
        r, ids, e = r[keep], ids[keep], e[keep]
        if len(r) >= self.cap[blk]:
            r, ids, e = _ordered(r, ids, e, self.k)
        self.found[blk], self.count[blk] = [(r, ids, e)], len(r)

    def lists(self):
        """Each query row's (ids, scores) pair of tuples, in row order."""
        for blk, lo in enumerate(range(0, len(self.queries), self.rows)):
            rows = min(self.rows, len(self.queries) - lo)
            r, ids, e = _ordered(*(np.concatenate(x) for x in zip(*self.found[blk])), self.k)
            self.found[blk] = None
            at = 0
            for size in np.bincount(r, minlength=rows).tolist():
                yield tuple(ids[at : at + size]), tuple(e[at : at + size].tolist())
                at += size


def top_k(queries, gallery, k: int):
    """Exact top-k cosine retrieval: an iterator of one (ids, scores) pair of
    tuples per query, in query order.

    queries is (Q, d). gallery is an iterable of (ids, embeddings) blocks,
    each (n, d), with at least one row in all; a caller with one array
    passes it as one block. Every row is finite and nonzero, ids name each
    gallery row once (unchecked: a repeat is refused where the ids enter the
    program, as in `dataio.iter_corpus`) and k >= 1. A gallery of fewer
    than k rows is listed whole for every query. The scores are the entries
    of ``np.einsum("qd,md->qm", ...)`` over the unit rows, clipped to
    [-1, 1]: einsum, unlike a BLAS matmul, gives byte-identical rows the
    same score at any position. They descend, and exact ties go by
    ascending id in Python's string order. A caller that drops ids, as
    `mining.mine_hard_negatives` drops each query's positives, asks for k
    plus as many: the order is total, so the rest is the top-k without
    them.

    The gallery is read once. Its rows fill tiles of at most
    max(TOPK_BLOCK // d, k) rows (`_tiles`), normalized in place, and each
    tile is screened against blocks of query rows, one BLAS product of at
    most TOPK_BLOCK entries each when TOPK_BLOCK >= k d (`_Screen.tile`).
    Only the columns within ``slack`` of their row's running k-th best
    BLAS score are rescored with einsum, and only a (Q, k) state outlives
    a tile: no unit-norm copy of the gallery, no gallery-long score or rank
    array and no set of ids. All work is done before this returns; the
    lists are made as they are drawn.

    The screen is exact. Each product of unit rows, BLAS or einsum, is within
    gamma_d = d eps / (1 - d eps) of the exact dot product (Higham, Accuracy
    and Stability of Numerical Algorithms, 3.1), so the two differ by at most
    2 gamma_d. Every score is finite, as the rows are. Let T be a row's k-th
    best BLAS score over the whole gallery. The k columns at or above it
    have einsum scores of at least T - 2 gamma_d, so the k-th best clipped
    einsum score is at least the clip of T - 2 gamma_d. A column that
    reaches it has an einsum score of at least T - 2 gamma_d, or ties with
    it at the +1 or -1 clip; either way its BLAS score is at least
    T - 4 gamma_d. The first tile, of k rows or more or the whole gallery,
    sets the running k-th best, and later tiles only raise it, so it never
    exceeds T: a column screened out at any tile, at or below it less the
    slack, scores below T - 4 gamma_d. The slack adds a few ulps to
    4 gamma_d for the unit rows' rounded norms and the rounding of the
    threshold minus the slack.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or k < 1:
        raise ValueError(f"bad top-k input: queries {queries.shape}, k={k}")
    norms = _row_norms(queries, "queries", True)
    d = queries.shape[1]
    width = max(1, TOPK_BLOCK // d, k)
    screen, m = _Screen(queries, norms, k, max(1, TOPK_BLOCK // width)), 0
    for first, names, t in _tiles(gallery, min(width, max(k, width // 4)), width, d):
        t /= _row_norms(t, "gallery", True, first)[:, None]
        screen.tile(first, names, t)
        m = first + len(t)
    if not m:
        raise ValueError("bad top-k input: an empty gallery")
    return screen.lists()
