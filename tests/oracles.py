"""Scalar reference implementations that the tests check the kernels against."""

import numpy as np


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
