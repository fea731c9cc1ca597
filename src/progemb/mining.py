"""Offline mining pipeline: split, generate, mine, filter, assemble.

A mined candidate is top-k's (passage_id, similarity) pair from mining
through filtering into the dataset. The pluggable pieces are functions: the
query generator, called on a Passage, and the relevance judge, called as
judge(query, candidate_text, similarity) -> bool, True when the candidate
answers the query; `judge_for` builds the config's three.
Judges that raise are treated fail-open: the candidate stays in the pool and
the failure is logged, so a broken judge can never silently shrink the
training data. This module writes no file: `assemble_dataset` returns the
dataset's `dataio.DatasetRow`s, which the caller writes.
"""

from __future__ import annotations

import logging
import re
from typing import Callable, Collection, Mapping, Sequence

import numpy as np

from .dataio import MAX_NEGATIVES, DatasetRow, Passage
# sim_matrix is not called here; benchmarks/tracer.py still wraps it in this module
from .similarity import sim_matrix, top_k  # noqa: F401

__all__ = [
    "judge_for",
    "split_passages",
    "first_sentence_query",
    "generate_queries",
    "mine_hard_negatives",
    "filter_false_negatives",
    "assemble_dataset",
]

logger = logging.getLogger(__name__)

_SENTENCE_END = re.compile(r"[.!?]+(?=\s)")
_BLANK_LINE = re.compile(r"\n[ \t]*\n")


def judge_for(name: str, threshold: float) -> Callable[[str, str, float], bool]:
    """The config's judge `name` as a function of (query, candidate text,
    mined similarity): `always_irrelevant` keeps every candidate,
    `always_relevant` removes every one, and `similarity` removes those
    whose mined similarity exceeds threshold."""
    if name == "always_irrelevant":
        return lambda query, candidate, similarity: False
    if name == "always_relevant":
        return lambda query, candidate, similarity: True
    if name == "similarity":
        return lambda query, candidate, similarity: similarity > threshold
    raise ValueError(f"unknown judge {name!r}")


def _unit_spans(raw: str, max_chars: int) -> list[tuple[int, int]]:
    """Indivisible spans: paragraphs, split further only when over the limit."""
    units: list[tuple[int, int]] = []
    para_edges: list[int] = [0]
    for m in _BLANK_LINE.finditer(raw):
        para_edges.extend((m.start(), m.end()))
    para_edges.append(len(raw))
    for start, end in zip(para_edges[::2], para_edges[1::2]):
        if not raw[start:end].strip():
            continue
        if len(raw[start:end].strip()) <= max_chars:
            units.append((start, end))
            continue
        sent_edges = [start]
        for m in _SENTENCE_END.finditer(raw, start, end):
            sent_edges.append(m.end())
        sent_edges.append(end)
        for s, e in zip(sent_edges[:-1], sent_edges[1:]):
            if not raw[s:e].strip():
                continue
            if len(raw[s:e].strip()) <= max_chars:
                units.append((s, e))
            else:
                # a single run-on sentence: fall back to hard chunks
                for c in range(s, e, max_chars):
                    if raw[c : min(c + max_chars, e)].strip():
                        units.append((c, min(c + max_chars, e)))
    return units


def split_passages(raw: str, max_chars: int, *, source_doc: str = "doc") -> list[Passage]:
    """Split text into passages of at most max_chars visible characters.

    Paragraph boundaries (blank lines) are preferred cut points, then
    sentence ends, then hard character chunks for a single run-on sentence.
    Adjacent units are packed greedily while the combined stripped span still
    fits. Concatenating the passage texts reproduces the input up to
    whitespace at the cut points.
    """
    if max_chars < 1:
        raise ValueError(f"max_chars must be >= 1, got {max_chars}")
    units = _unit_spans(raw, max_chars)
    merged: list[tuple[int, int]] = []
    for span in units:
        if merged and len(raw[merged[-1][0] : span[1]].strip()) <= max_chars:
            merged[-1] = (merged[-1][0], span[1])
        else:
            merged.append(span)
    return [
        Passage(
            passage_id=f"{source_doc}-p{i:04d}",
            text=raw[start:end].strip(),
            source_doc=source_doc,
        )
        for i, (start, end) in enumerate(merged)
    ]


def first_sentence_query(passage: Passage) -> list[str]:
    """Deterministic stand-in for a real query generator."""
    text = passage.text.strip()
    m = _SENTENCE_END.search(text + " ")
    sentence = text[: m.end()] if m else text
    return [sentence.strip()] if sentence.strip() else []


def generate_queries(
    passage: Passage, generator: Callable[[Passage], Sequence[str]]
) -> list[str]:
    """Run the pluggable generator; its failures carry the passage id."""
    try:
        queries = list(generator(passage))
    except Exception as exc:
        raise RuntimeError(
            f"query generation failed for passage {passage.passage_id}: {exc}"
        ) from exc
    return [q for q in queries if q.strip()]


def mine_hard_negatives(
    query_embs: np.ndarray,
    passage_ids: Sequence[str],
    passage_embs: np.ndarray,
    positive_ids: Sequence[Collection[str]],
    k: int = MAX_NEGATIVES,
) -> list[list[tuple[str, float]]]:
    """Exact top-k cosine retrieval (`similarity.top_k`) of each query row,
    less its positives: one list of (passage_id, similarity) pairs per query.

    positive_ids holds the ids to exclude, one collection per query, or it
    is a ValueError. top_k is asked for k plus the largest collection, and
    each query's own are dropped from its list: what is left is its top-k
    without them, shorter when fewer passages are left. Order is
    similarity descending with ties broken by ascending passage id. A
    similarity is the clipped einsum product of the unit rows, so a
    passage's bytes do not depend on its position; a BLAS product only
    screens the candidates. Non-finite embeddings are a ValueError;
    passage_ids name each row once.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    extra = max(map(len, positive_ids), default=0)
    hits = top_k(query_embs, [(passage_ids, passage_embs)], k + extra)
    return [[pair for pair in zip(*hit) if pair[0] not in own][:k]
            for hit, own in zip(hits, positive_ids, strict=True)]


def filter_false_negatives(
    query: str,
    candidates: Sequence[tuple[str, float]],
    judge: Callable[[str, str, float], bool],
    passage_texts: Mapping[str, str],
) -> tuple[list[tuple[str, float]], list[tuple[str, str]]]:
    """The candidates the judge does not mark relevant, in mining order, and
    one (candidate_id, reason) audit pair per candidate removed
    ("judged_relevant") or failed on ("judge_error: ..."), in candidate order.

    A judge exception keeps the candidate (fail-open), so the candidates
    removed are those mined but not kept.
    """
    kept, audit = [], []
    for pid, similarity in candidates:
        text = passage_texts.get(pid)
        if text is None:
            raise ValueError(f"no text for mined candidate {pid}")
        try:
            relevant = bool(judge(query, text, similarity))
        except Exception as exc:
            logger.warning("judge failed on candidate %s: %s (kept)", pid, exc)
            kept.append((pid, similarity))
            audit.append((pid, f"judge_error: {exc}"))
            continue
        if relevant:
            audit.append((pid, "judged_relevant"))
        else:
            kept.append((pid, similarity))
    return kept, audit


def assemble_dataset(
    queries: Sequence[tuple[str, str]],
    positives: Mapping[str, str],
    mined: Mapping[str, Sequence[tuple[str, float]]],
    *,
    dropped: Mapping[str, int] | None = None,
) -> list[DatasetRow]:
    """The training dataset's rows, in query order.

    queries is (query_id, query_text) pairs; positives and mined map query
    ids to the positive passage id and the surviving (passage_id, similarity)
    pairs, of which each row keeps the first MAX_NEGATIVES. Queries with
    zero surviving negatives are still kept: in-batch negatives supervise
    them during fine-tuning. dropped carries per-query filtered-out counts,
    which each row's provenance records.
    """
    seen: set[str] = set()
    rows = []
    for query_id, text in queries:
        if query_id in seen:
            raise ValueError(f"duplicate query id {query_id}")
        seen.add(query_id)
        if query_id not in positives:
            raise ValueError(f"query {query_id} has no positive passage")
        cands = list(mined.get(query_id, ()))[:MAX_NEGATIVES]
        rows.append(
            DatasetRow(
                query_id=query_id,
                query=text,
                positive_id=positives[query_id],
                negative_ids=tuple(pid for pid, _ in cands),
                provenance={
                    "similarities": [similarity for _, similarity in cands],
                    "filtered_out": int(dropped.get(query_id, 0)) if dropped else 0,
                },
            )
        )
    return rows
