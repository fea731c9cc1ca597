"""Offline mining pipeline: split, generate, mine, filter, assemble.

The pluggable pieces are the query generator (callable on a Passage) and the
relevance judge (called on query text, candidate text and mined similarity).
Judges that raise are treated fail-open: the candidate stays in the pool and
the failure is logged, so a broken judge can never silently shrink the
training data.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, replace
from typing import Callable, Collection, Mapping, Protocol, Sequence

import numpy as np

# sim_matrix is not called here; benchmarks/tracer.py still wraps it in this module
from .similarity import sim_matrix, top_k  # noqa: F401

__all__ = [
    "Passage",
    "MinedCandidate",
    "RelevanceJudge",
    "RemovalRecord",
    "DatasetStats",
    "AlwaysIrrelevantJudge",
    "AlwaysRelevantJudge",
    "split_passages",
    "first_sentence_query",
    "generate_queries",
    "mine_hard_negatives",
    "filter_false_negatives",
    "assemble_dataset",
]

logger = logging.getLogger(__name__)

MAX_MINED_NEGATIVES = 5

_SENTENCE_END = re.compile(r"[.!?]+(?=\s)")
_BLANK_LINE = re.compile(r"\n[ \t]*\n")


@dataclass(frozen=True)
class Passage:
    passage_id: str
    text: str
    source_doc: str

    def __post_init__(self):
        if not self.passage_id:
            raise ValueError("passage id must be nonempty")
        if not self.text:
            raise ValueError(f"passage {self.passage_id}: text must be nonempty")


@dataclass(frozen=True)
class MinedCandidate:
    """A retrieved negative; judged_relevant stays None until a judge ran."""

    passage_id: str
    similarity: float
    judged_relevant: bool | None = None

    def __post_init__(self):
        if not -1.0 <= self.similarity <= 1.0:
            raise ValueError(
                f"candidate {self.passage_id}: similarity {self.similarity} "
                "outside [-1, 1]"
            )


class RelevanceJudge(Protocol):
    def judge(self, query: str, candidate: str, similarity: float) -> bool:
        """True means the candidate, at its mined similarity, answers the query."""
        ...


class AlwaysIrrelevantJudge:
    def judge(self, query: str, candidate: str, similarity: float) -> bool:
        return False


class AlwaysRelevantJudge:
    def judge(self, query: str, candidate: str, similarity: float) -> bool:
        return True


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
    k: int = MAX_MINED_NEGATIVES,
) -> list[list[MinedCandidate]]:
    """Exact top-k cosine retrieval (`similarity.top_k`) of each query row.

    positive_ids holds the ids to exclude, one collection per query. A list
    is shorter than k when the corpus is small. Order is similarity
    descending with ties broken by ascending passage id.
    """
    hits = top_k(query_embs, passage_embs, passage_ids, k, exclude=positive_ids)
    return [[MinedCandidate(pid, s) for pid, s in zip(*hit)] for hit in hits]


@dataclass(frozen=True)
class RemovalRecord:
    """One filter event; removed is False for fail-open judge errors."""

    candidate_id: str
    reason: str
    removed: bool


def filter_false_negatives(
    query: str,
    candidates: Sequence[MinedCandidate],
    judge: RelevanceJudge,
    passage_texts: Mapping[str, str],
) -> tuple[list[MinedCandidate], list[RemovalRecord]]:
    """Drop candidates the judge marks relevant; keep order; log everything.

    A judge exception keeps the candidate with judged_relevant=None and an
    audit record, so the caller can re-run the filter later.
    """
    kept: list[MinedCandidate] = []
    events: list[RemovalRecord] = []
    for cand in candidates:
        text = passage_texts.get(cand.passage_id)
        if text is None:
            raise ValueError(f"no text for mined candidate {cand.passage_id}")
        try:
            relevant = bool(judge.judge(query, text, cand.similarity))
        except Exception as exc:
            logger.warning(
                "judge failed on candidate %s: %s (kept)", cand.passage_id, exc
            )
            kept.append(replace(cand, judged_relevant=None))
            events.append(
                RemovalRecord(cand.passage_id, f"judge_error: {exc}", removed=False)
            )
            continue
        if relevant:
            events.append(
                RemovalRecord(cand.passage_id, "judged_relevant", removed=True)
            )
        else:
            kept.append(replace(cand, judged_relevant=False))
    return kept, events


@dataclass(frozen=True)
class DatasetStats:
    examples_written: int
    negatives_written: int
    negatives_dropped: int
    zero_negative_queries: int


def assemble_dataset(
    queries: Sequence[tuple[str, str]],
    positives: Mapping[str, str],
    mined: Mapping[str, Sequence[MinedCandidate]],
    output_path,
    *,
    dropped: Mapping[str, int] | None = None,
) -> DatasetStats:
    """Write the training dataset file and return its counts.

    queries is (query_id, query_text) pairs; positives and mined map query
    ids to the positive passage id and the surviving candidates. Queries with
    zero surviving negatives are still written: in-batch negatives supervise
    them during fine-tuning. dropped carries per-query filtered-out counts
    for the statistics only.
    """
    from .dataio import write_dataset

    seen: set[str] = set()
    rows = []
    negatives_written = 0
    zero_negative = 0
    for query_id, text in queries:
        if query_id in seen:
            raise ValueError(f"duplicate query id {query_id}")
        seen.add(query_id)
        if query_id not in positives:
            raise ValueError(f"query {query_id} has no positive passage")
        cands = list(mined.get(query_id, ()))[:MAX_MINED_NEGATIVES]
        if not cands:
            zero_negative += 1
        negatives_written += len(cands)
        rows.append(
            {
                "query_id": query_id,
                "query": text,
                "positive_id": positives[query_id],
                "negative_ids": [c.passage_id for c in cands],
                "provenance": {
                    "similarities": [c.similarity for c in cands],
                    "filtered_out": int(dropped.get(query_id, 0)) if dropped else 0,
                },
            }
        )
    write_dataset(output_path, rows)
    return DatasetStats(
        examples_written=len(rows),
        negatives_written=negatives_written,
        negatives_dropped=sum(dropped.values()) if dropped else 0,
        zero_negative_queries=zero_negative,
    )
