"""Versioned on-disk formats and the records they hold.

Every artifact record (`Passage`, `DatasetRow`, `StepAudit`, `MetricReport`
with its `METRICS`) is defined here, beside its format's writer and reader;
the stages import them from here, and this module imports nothing from
progemb but `progemb._files`. `progemb.cli` writes every artifact: the
checkpoint through `encoder.save_checkpoint`, every other file through
this module. Every file is framed by `_files`: a header line {"format":
..., "version": 1}, checked by its one `check_header`, which rejects a
wrong format name, an unknown version, or a missing or mistyped header
key outright. Rows are serialized with sorted keys so identical runs
produce byte-identical files, and every row key a reader needs is checked
for its exact JSON type. Embeddings are a binary file of that framing: the
header line, then a raw little-endian float64 block. Every writer replaces
its file atomically: a write that fails leaves the previous file as it was.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ._files import NUMBER, atomic_open, check_header, dump, need, parse_line
from ._files import read_binary, write_binary

__all__ = [
    "FORMAT_VERSION",
    "MAX_NEGATIVES",
    "Passage",
    "DatasetRow",
    "StepAudit",
    "MetricReport",
    "METRICS",
    "write_corpus",
    "iter_corpus",
    "read_corpus",
    "write_dataset",
    "read_dataset",
    "write_qrels",
    "read_qrels",
    "write_queries",
    "read_queries",
    "write_mining_audit",
    "read_mining_audit",
    "write_finetune_audit",
    "read_finetune_audit",
    "write_loss_curve",
    "read_loss_curve",
    "write_metrics_report",
    "read_metrics_report",
    "write_bench_report",
    "read_bench_report",
    "write_embeddings",
    "read_embeddings",
]

FORMAT_VERSION = 1
# hard negatives per dataset row, as the paper extracts per query
MAX_NEGATIVES = 5


def _write_rows(path, fmt: str, rows: Iterable[Mapping], extra_header: Mapping = {}) -> None:
    with atomic_open(path, "w") as fh:
        fh.write(dump({"format": fmt, "version": FORMAT_VERSION, **extra_header}) + "\n")
        for row in rows:
            fh.write(dump(row) + "\n")


def _read_rows(path, fmt: str, types: Mapping = {}, header: dict | None = None
               ) -> Iterator[dict]:
    """Check the header line and its keys of ``types``, then yield each row.

    The open file is read one line at a time, so neither its text nor its
    rows are held at once. Iterating a text file splits at newlines only,
    not at the other separators ``str.splitlines`` knows, which JSON strings
    may hold raw. ``header``, when given, receives the header's keys. The
    file is closed when the stream ends, fails or is abandoned.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = enumerate(fh, start=1)
        first = next(lines, None)
        if first is None:
            raise ValueError(f"{path}: empty file, expected a {fmt} header")
        head = check_header(path, parse_line(path, 1, first[1].rstrip("\n")), fmt,
                            FORMAT_VERSION, types)
        if header is not None:
            header.update(head)
        for lineno, line in lines:
            yield parse_line(path, lineno, line.rstrip("\n"))


# --- corpus ---------------------------------------------------------------

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


def write_corpus(path, passages: Iterable[Passage]) -> None:
    _write_rows(
        path,
        "corpus",
        (
            {"id": p.passage_id, "text": p.text, "source_doc": p.source_doc}
            for p in passages
        ),
    )


def iter_corpus(path) -> Iterator[Passage]:
    """The corpus file's passages in file order, read one line at a time and
    checked as they are read: string fields and no repeated id."""
    seen = set()
    for row in _read_rows(path, "corpus"):
        pid, text, doc = need(path, row, {"id": str, "text": str, "source_doc": str})
        if pid in seen:
            raise ValueError(f"{path}: duplicate passage id {pid!r}")
        seen.add(pid)
        yield Passage(passage_id=pid, text=text, source_doc=doc)


def read_corpus(path) -> list[Passage]:
    return list(iter_corpus(path))


# --- training dataset -----------------------------------------------------

@dataclass(frozen=True)
class DatasetRow:
    query_id: str
    query: str
    positive_id: str
    negative_ids: tuple[str, ...]
    provenance: dict


def write_dataset(path, rows: Iterable[DatasetRow]) -> None:
    _write_rows(
        path,
        "dataset",
        (
            {"query_id": r.query_id, "query": r.query, "positive_id": r.positive_id,
             "negative_ids": list(r.negative_ids), "provenance": r.provenance}
            for r in rows
        ),
    )


def read_dataset(path) -> list[DatasetRow]:
    """The dataset's rows in file order, each checked as it is read: no
    repeated query id, at most MAX_NEGATIVES negatives, the positive not
    among them and no negative twice, and a provenance, when present, that
    is a JSON object. The first fault in file order is the ValueError."""
    out = []
    seen = set()
    for row in _read_rows(path, "dataset"):
        row.setdefault("provenance", {})
        qid, query, pid, negs, provenance = need(path, row, {
            "query_id": str, "query": str, "positive_id": str, "negative_ids": list[str],
            "provenance": dict})
        if qid in seen:
            raise ValueError(f"{path}: duplicate query id {qid!r}")
        seen.add(qid)
        if len(negs) > MAX_NEGATIVES:
            raise ValueError(f"{path}: {qid}: at most {MAX_NEGATIVES} hard negatives allowed")
        if pid in negs:
            raise ValueError(f"{path}: {qid}: positive {pid} appears among negatives")
        for k, key in enumerate(negs):
            if key in negs[:k]:
                raise ValueError(f"{path}: {qid}: negative {key} appears twice")
        out.append(DatasetRow(qid, query, pid, tuple(negs), provenance))
    return out


# --- qrels and queries ----------------------------------------------------

def _grade(path, qid: str, doc: str, grade) -> int:
    """A qrels row's grade, which must be an int >= 1 when written and read."""
    # type() rather than isinstance: a JSON true is not grade 1
    if type(grade) is not int or grade < 1:
        raise ValueError(f"{path}: grade for ({qid}, {doc}) must be an int >= 1")
    return grade


def write_qrels(path, qrels: Mapping[str, Mapping[str, int]]) -> None:
    rows = (
        {"query_id": qid, "doc_id": doc, "grade": _grade(path, qid, doc, int(grade))}
        for qid in sorted(qrels)
        for doc, grade in sorted(qrels[qid].items())
    )
    _write_rows(path, "qrels", rows)


def read_qrels(path) -> dict[str, dict[str, int]]:
    """Each query's graded docs; a (query, doc) pair given twice is a ValueError."""
    out: dict[str, dict[str, int]] = {}
    for row in _read_rows(path, "qrels"):
        qid, doc = need(path, row, {"query_id": str, "doc_id": str})
        rels = out.setdefault(qid, {})
        if doc in rels:
            raise ValueError(f"{path}: duplicate qrels pair ({qid}, {doc})")
        rels[doc] = _grade(path, qid, doc, row.get("grade"))
    return out


def write_queries(path, pairs: Iterable[tuple[str, str]]) -> None:
    _write_rows(path, "queries", ({"query_id": q, "text": t} for q, t in pairs))


def read_queries(path) -> list[tuple[str, str]]:
    out = []
    seen = set()
    for row in _read_rows(path, "queries"):
        qid, text = need(path, row, {"query_id": str, "text": str})
        if qid in seen:
            raise ValueError(f"{path}: duplicate query id {qid!r}")
        seen.add(qid)
        out.append((qid, text))
    return out


# --- audit logs and curves ------------------------------------------------

def write_mining_audit(path, rows: Iterable[Mapping]) -> None:
    _write_rows(
        path,
        "mining-audit",
        (
            {
                "query_id": r["query_id"],
                "candidate_id": r["candidate_id"],
                "reason": r["reason"],
            }
            for r in rows
        ),
    )


def read_mining_audit(path) -> list[dict]:
    rows = list(_read_rows(path, "mining-audit"))
    for row in rows:
        need(path, row, {"query_id": str, "candidate_id": str, "reason": str})
    return rows


@dataclass(frozen=True)
class StepAudit:
    """Per-step training record; t is the bias after that step's update."""

    step: int
    epoch: int
    sigma: float
    mean_weight: float
    t: float
    loss: float


# a row's keys, in the order of StepAudit's fields, and their JSON types
_STEP_AUDIT = {"step": int, "epoch": int, "sigma": NUMBER, "mean_weight": NUMBER,
               "t": NUMBER, "loss": NUMBER}


def write_finetune_audit(path, loss_mode: str, audit: Iterable[StepAudit]) -> None:
    rows = ({key: getattr(a, key) for key in _STEP_AUDIT} for a in audit)
    _write_rows(path, "finetune-audit", rows, extra_header={"loss_mode": loss_mode})


def read_finetune_audit(path) -> tuple[str, list[StepAudit]]:
    header: dict = {}
    audit = []
    for row in _read_rows(path, "finetune-audit", {"loss_mode": str}, header):
        step, epoch, *values = need(path, row, _STEP_AUDIT)
        audit.append(StepAudit(step, epoch, *map(float, values)))
    return header["loss_mode"], audit


def write_loss_curve(path, losses: Sequence[float]) -> None:
    _write_rows(
        path,
        "loss-curve",
        ({"epoch": i + 1, "loss": float(v)} for i, v in enumerate(losses)),
    )


def read_loss_curve(path) -> list[float]:
    out = []
    for i, row in enumerate(_read_rows(path, "loss-curve"), start=1):
        epoch, loss = need(path, row, {"epoch": int, "loss": NUMBER})
        if epoch != i:
            raise ValueError(f"{path}: epochs out of order at row {i}")
        out.append(float(loss))
    return out


# --- metric reports -------------------------------------------------------

METRICS = ("ndcg@10", "map", "mrr@10", "recall@1", "recall@10", "recall@50")


@dataclass(frozen=True)
class MetricReport:
    """Per-query metric rows plus macro averages over the included queries."""

    per_query: dict[str, dict[str, float]]
    macro: dict[str, float]
    excluded: tuple[str, ...] = ()
    errors: dict[str, str] = field(default_factory=dict)


def write_metrics_report(path, report: MetricReport) -> None:
    rows: list[dict] = []
    for qid, metrics in report.per_query.items():
        rows.append({"kind": "query", "query_id": qid, **metrics})
    for qid in report.excluded:
        rows.append({"kind": "excluded", "query_id": qid, "reason": "no relevant docs"})
    for qid, message in report.errors.items():
        rows.append({"kind": "error", "query_id": qid, "message": message})
    rows.append(
        {
            "kind": "macro",
            **report.macro,
            "evaluated": len(report.per_query),
            "excluded": len(report.excluded),
            "errors": len(report.errors),
        }
    )
    _write_rows(path, "metrics", rows)


def read_metrics_report(path) -> MetricReport:
    per_query: dict[str, dict[str, float]] = {}
    excluded: list[str] = []
    errors: dict[str, str] = {}
    macro: dict[str, float] = {}
    for row in _read_rows(path, "metrics"):
        kind = row.get("kind")
        present = {m: NUMBER for m in METRICS if m in row}
        if kind == "query":
            qid, *values = need(path, row, {"query_id": str, **present})
            per_query[qid] = dict(zip(present, values))
        elif kind == "excluded":
            excluded += need(path, row, {"query_id": str})
        elif kind == "error":
            qid, message = need(path, row, {"query_id": str, "message": str})
            errors[qid] = message
        elif kind == "macro":
            macro = dict(zip(present, need(path, row, present)))
        else:
            raise ValueError(f"{path}: unknown row kind {kind!r}")
    return MetricReport(
        per_query=per_query, macro=macro, excluded=tuple(excluded), errors=errors
    )


def write_bench_report(path, run_rows: Iterable[Mapping], summary: Mapping) -> None:
    rows = [{"kind": "run", **r} for r in run_rows]
    rows.append({"kind": "summary", **summary})
    _write_rows(path, "bench", rows)


def read_bench_report(path) -> tuple[list[dict], dict]:
    rows = list(_read_rows(path, "bench"))
    runs = [r for r in rows if r.get("kind") == "run"]
    summaries = [r for r in rows if r.get("kind") == "summary"]
    if len(summaries) != 1:
        raise ValueError(f"{path}: expected exactly one summary row")
    return runs, summaries[0]


# --- binary embeddings ----------------------------------------------------

def write_embeddings(path, ids: Sequence[str], matrix: np.ndarray) -> None:
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError(f"embedding matrix must be 2-d, got shape {matrix.shape}")
    if len(ids) != matrix.shape[0]:
        raise ValueError(f"{len(ids)} ids for {matrix.shape[0]} embedding rows")
    fields = {"count": matrix.shape[0], "dim": matrix.shape[1], "itemsize": 8, "ids": list(ids)}
    write_binary(path, "embeddings", FORMAT_VERSION, fields, [matrix])


def read_embeddings(path) -> tuple[list[str], np.ndarray]:
    types = {"count": int, "dim": int, "itemsize": int, "ids": list[str]}
    head, (matrix,) = read_binary(path, "embeddings", FORMAT_VERSION, types,
                                  lambda head: [(head["count"], head["dim"])])
    if len(head["ids"]) != len(matrix):
        raise ValueError(f"{path}: header lists {len(head['ids'])} ids for {len(matrix)} rows")
    return head["ids"], matrix
