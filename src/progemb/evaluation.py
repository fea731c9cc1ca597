"""Ranking over a gallery and the standard retrieval metrics.

Metric conventions: NDCG uses gain 2^grade - 1 with a log2(rank+1) discount
and an ideal DCG over all judged docs, so 1.0 needs a perfect ranking. MAP
divides by the total relevant count, not just the retrieved ones. Queries
with no relevant docs are excluded from macro averages by default and listed
in the report; include_zero_relevant=True scores them 0 for NDCG and MRR
only. A run ranks all its queries in one call into `similarity.top_k`, which
streams the gallery as (ids, embeddings) blocks.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .dataio import METRICS, MetricReport
# sim_matrix is not called here; benchmarks/tracer.py still wraps it in this module
from .similarity import sim_matrix, top_k  # noqa: F401

__all__ = [
    "Qrels",
    "RankedList",
    "rank_gallery",
    "ndcg_at_k",
    "mrr_at_k",
    "recall_at_k",
    "average_precision",
    "evaluate_run",
]

logger = logging.getLogger(__name__)

Qrels = Mapping[str, Mapping[str, int]]


@dataclass(frozen=True)
class RankedList:
    query_id: str
    doc_ids: tuple[str, ...]
    scores: tuple[float, ...]

    def __post_init__(self):
        if len(self.doc_ids) != len(self.scores):
            raise ValueError(f"{self.query_id}: ids and scores differ in length")
        if len(set(self.doc_ids)) != len(self.doc_ids):
            raise ValueError(f"{self.query_id}: duplicate doc ids in ranking")
        for a, b in zip(self.scores, self.scores[1:]):
            if b > a:
                raise ValueError(f"{self.query_id}: scores increase in ranking")


def _relevant_ids(rels: Mapping[str, int]) -> set[str]:
    return {doc for doc, grade in rels.items() if grade >= 1}


def rank_gallery(
    query_ids: Sequence[str],
    query_embs: np.ndarray,
    gallery: Iterable[tuple[Sequence[str], np.ndarray]],
    depth: int,
) -> Iterator[RankedList]:
    """Exact top-`depth` retrieval per query row, ties by ascending doc id,
    over the gallery's (ids, embeddings) blocks. The ranking is done on
    return; each query's list is made as it is drawn."""
    hits = top_k(query_embs, gallery, depth)
    return (RankedList(qid, *hit) for qid, hit in zip(query_ids, hits, strict=True))


def ndcg_at_k(ranked: RankedList, qrels: Qrels, k: int = 10) -> float:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rels = qrels.get(ranked.query_id, {})
    ideal = sorted((g for g in rels.values() if g >= 1), reverse=True)[:k]
    if not ideal:
        logger.debug("query %s has no relevant docs; ndcg = 0", ranked.query_id)
        return 0.0
    dcg = 0.0
    for rank, doc in enumerate(ranked.doc_ids[:k], start=1):
        grade = rels.get(doc, 0)
        if grade >= 1:
            dcg += (2.0**grade - 1.0) / math.log2(rank + 1)
    idcg = sum(
        (2.0**g - 1.0) / math.log2(rank + 1) for rank, g in enumerate(ideal, start=1)
    )
    return dcg / idcg


def mrr_at_k(ranked: RankedList, qrels: Qrels, k: int = 10) -> float:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rels = qrels.get(ranked.query_id, {})
    for rank, doc in enumerate(ranked.doc_ids[:k], start=1):
        if rels.get(doc, 0) >= 1:
            return 1.0 / rank
    return 0.0


def recall_at_k(ranked: RankedList, qrels: Qrels, k: int) -> float:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    relevant = _relevant_ids(qrels.get(ranked.query_id, {}))
    if not relevant:
        raise ValueError(f"query {ranked.query_id} has no relevant docs")
    hits = sum(1 for doc in ranked.doc_ids[:k] if doc in relevant)
    return hits / len(relevant)


def average_precision(ranked: RankedList, qrels: Qrels) -> float:
    relevant = _relevant_ids(qrels.get(ranked.query_id, {}))
    if not relevant:
        raise ValueError(f"query {ranked.query_id} has no relevant docs")
    hits = 0
    total = 0.0
    for rank, doc in enumerate(ranked.doc_ids, start=1):
        if doc in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


def _query_row(ranked: RankedList, qrels: Qrels, has_relevant: bool) -> dict[str, float]:
    row = {
        "ndcg@10": ndcg_at_k(ranked, qrels, 10),
        "mrr@10": mrr_at_k(ranked, qrels, 10),
    }
    if has_relevant:
        row["map"] = average_precision(ranked, qrels)
        for k in (1, 10, 50):
            row[f"recall@{k}"] = recall_at_k(ranked, qrels, k)
    return row


def evaluate_run(
    queries,
    gallery: Iterable[tuple[Sequence[str], np.ndarray]],
    qrels: Qrels,
    *,
    depth: int = 50,
    include_zero_relevant: bool = False,
) -> MetricReport:
    """Rank every query and report per-query plus macro metrics.

    queries is (query_id, embedding-or-None) pairs and gallery an iterable
    of (ids, embeddings) blocks, read once as they are ranked; a None,
    zero-norm or wrongly sized embedding becomes a per-query error entry and
    the run continues. Cutoffs larger than depth are effectively capped by
    the ranked list length. Rows are ordered by query id, and each query's
    row is scored as its list is drawn.
    """
    blocks = iter(gallery)
    head = next(blocks, None)
    if head is None:
        raise ValueError("cannot evaluate against an empty gallery")
    per_query: dict[str, dict[str, float]] = {}
    errors: dict[str, str] = {}
    excluded: list[str] = []
    dim, valid = np.shape(head[1])[1], {}
    for query_id, emb in sorted(queries, key=lambda item: item[0]):
        if emb is None:
            errors[query_id] = "missing embedding"
            continue
        emb = np.asarray(emb, dtype=np.float64)
        if emb.shape != (dim,):
            errors[query_id] = f"query embedding has shape {emb.shape}, gallery d={dim}"
        elif not np.linalg.norm(emb):
            errors[query_id] = "zero-norm query embedding"
        else:
            valid[query_id] = emb
    rows = np.reshape(list(valid.values()), (len(valid), dim))
    gallery = itertools.chain([head], blocks)
    for ranked in rank_gallery(list(valid), rows, gallery, depth):
        query_id = ranked.query_id
        has_relevant = bool(_relevant_ids(qrels.get(query_id, {})))
        if not has_relevant:
            excluded.append(query_id)
            logger.debug("query %s has no relevant docs", query_id)
            if not include_zero_relevant:
                continue
        per_query[query_id] = _query_row(ranked, qrels, has_relevant)
    macro = {}
    for name in METRICS:
        values = [row[name] for row in per_query.values() if name in row]
        macro[name] = float(np.mean(values)) if values else 0.0
    return MetricReport(
        per_query=per_query,
        macro=macro,
        excluded=tuple(excluded),
        errors=errors,
    )
