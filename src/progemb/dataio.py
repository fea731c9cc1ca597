"""Versioned on-disk formats: line-delimited JSON plus one binary block.

Every text file starts with a header line {"format": ..., "version": 1};
readers reject a wrong format name or an unknown version outright. Rows are
serialized with sorted keys so identical runs produce byte-identical files.
Embeddings live in a binary file with the same JSON header line followed by
a raw little-endian float64 block. Every writer replaces its file
atomically: a write that fails leaves the previous file as it was.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .encoder import _atomic_open
from .evaluation import METRICS, MetricReport
from .mining import Passage
from .training import StepAudit

__all__ = [
    "FORMAT_VERSION",
    "DatasetRow",
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


def _dump(row: Mapping) -> str:
    # bare NaN / Infinity is not JSON; refuse it rather than write it
    return json.dumps(row, sort_keys=True, allow_nan=False)


def _write_rows(path, fmt: str, rows: Iterable[Mapping], extra_header=None) -> None:
    header = {"format": fmt, "version": FORMAT_VERSION}
    if extra_header:
        header.update(extra_header)
    with _atomic_open(path, "w") as fh:
        fh.write(_dump(header) + "\n")
        for row in rows:
            fh.write(_dump(row) + "\n")


def _read_rows(path, fmt: str, header: dict | None = None) -> Iterator[tuple[int, dict]]:
    """Check the header line, then yield (line number, row) for each row.

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
        head = _parse_line(path, 1, first[1].rstrip("\n"))
        if head.get("format") != fmt:
            raise ValueError(
                f"{path}: expected format {fmt!r}, found {head.get('format')!r}"
            )
        if head.get("version") != FORMAT_VERSION:
            raise ValueError(
                f"{path}: unsupported {fmt} version {head.get('version')!r}, "
                f"this reader handles version {FORMAT_VERSION}"
            )
        if header is not None:
            header.update(head)
        for lineno, line in lines:
            yield lineno, _parse_line(path, lineno, line.rstrip("\n"))


def _parse_line(path, lineno: int, line: str) -> dict:
    try:
        row = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
    if not isinstance(row, dict):
        raise ValueError(f"{path}:{lineno}: expected an object, got {type(row).__name__}")
    return row


def _need(path, row: Mapping, *keys: str):
    for key in keys:
        if key not in row:
            raise ValueError(f"{path}: row missing key {key!r}: {dict(row)}")
    return [row[k] for k in keys]


def _need_strings(path, row: Mapping, *keys: str):
    values = _need(path, row, *keys)
    for key, value in zip(keys, values):
        if not isinstance(value, str):
            raise ValueError(f"{path}: row key {key!r} must be a string, got {value!r}")
    return values


# --- corpus ---------------------------------------------------------------

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
    for _, row in _read_rows(path, "corpus"):
        pid, text, doc = _need_strings(path, row, "id", "text", "source_doc")
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


def write_dataset(path, rows: Iterable[Mapping]) -> None:
    _write_rows(path, "dataset", rows)


def read_dataset(path) -> list[DatasetRow]:
    out = []
    seen = set()
    for _, row in _read_rows(path, "dataset"):
        qid, query, pid = _need_strings(path, row, "query_id", "query", "positive_id")
        (negs,) = _need(path, row, "negative_ids")
        if not isinstance(negs, list) or not all(isinstance(n, str) for n in negs):
            raise ValueError(
                f"{path}: row key 'negative_ids' must be a list of strings, got {negs!r}"
            )
        if qid in seen:
            raise ValueError(f"{path}: duplicate query id {qid!r}")
        seen.add(qid)
        out.append(
            DatasetRow(
                query_id=qid,
                query=query,
                positive_id=pid,
                negative_ids=tuple(negs),
                provenance=row.get("provenance", {}),
            )
        )
    return out


# --- qrels and queries ----------------------------------------------------

def write_qrels(path, qrels: Mapping[str, Mapping[str, int]]) -> None:
    rows = (
        {"query_id": qid, "doc_id": doc, "grade": int(grade)}
        for qid in sorted(qrels)
        for doc, grade in sorted(qrels[qid].items())
    )
    _write_rows(path, "qrels", rows)


def read_qrels(path) -> dict[str, dict[str, int]]:
    out: dict[str, dict[str, int]] = {}
    for _, row in _read_rows(path, "qrels"):
        qid, doc = _need_strings(path, row, "query_id", "doc_id")
        (grade,) = _need(path, row, "grade")
        # type() rather than isinstance: a JSON true is not grade 1
        if type(grade) is not int or grade < 1:
            raise ValueError(f"{path}: grade for ({qid}, {doc}) must be an int >= 1")
        out.setdefault(qid, {})[doc] = grade
    return out


def write_queries(path, pairs: Iterable[tuple[str, str]]) -> None:
    _write_rows(path, "queries", ({"query_id": q, "text": t} for q, t in pairs))


def read_queries(path) -> list[tuple[str, str]]:
    out = []
    seen = set()
    for _, row in _read_rows(path, "queries"):
        qid, text = _need_strings(path, row, "query_id", "text")
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
    rows = [row for _, row in _read_rows(path, "mining-audit")]
    for row in rows:
        _need(path, row, "query_id", "candidate_id", "reason")
    return rows


def write_finetune_audit(path, loss_mode: str, audit: Iterable[StepAudit]) -> None:
    _write_rows(
        path,
        "finetune-audit",
        (
            {
                "step": a.step,
                "epoch": a.epoch,
                "sigma": a.sigma,
                "mean_weight": a.mean_weight,
                "t": a.t,
                "loss": a.loss,
            }
            for a in audit
        ),
        extra_header={"loss_mode": loss_mode},
    )


def read_finetune_audit(path) -> tuple[str, list[StepAudit]]:
    header: dict = {}
    audit = []
    for _, row in _read_rows(path, "finetune-audit", header):
        step, epoch, sigma, mean_w, t, loss = _need(
            path, row, "step", "epoch", "sigma", "mean_weight", "t", "loss"
        )
        audit.append(
            StepAudit(
                step=int(step),
                epoch=int(epoch),
                sigma=float(sigma),
                mean_weight=float(mean_w),
                t=float(t),
                loss=float(loss),
            )
        )
    return header.get("loss_mode", "progressive"), audit


def write_loss_curve(path, losses: Sequence[float]) -> None:
    _write_rows(
        path,
        "loss-curve",
        ({"epoch": i + 1, "loss": float(v)} for i, v in enumerate(losses)),
    )


def read_loss_curve(path) -> list[float]:
    out = []
    for i, (_, row) in enumerate(_read_rows(path, "loss-curve"), start=1):
        epoch, loss = _need(path, row, "epoch", "loss")
        if epoch != i:
            raise ValueError(f"{path}: epochs out of order at row {i}")
        out.append(float(loss))
    return out


# --- metric reports -------------------------------------------------------

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
    for _, row in _read_rows(path, "metrics"):
        kind = row.get("kind")
        if kind == "query":
            qid = row["query_id"]
            per_query[qid] = {m: row[m] for m in METRICS if m in row}
        elif kind == "excluded":
            excluded.append(row["query_id"])
        elif kind == "error":
            errors[row["query_id"]] = row.get("message", "")
        elif kind == "macro":
            macro = {m: row[m] for m in METRICS if m in row}
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
    rows = [row for _, row in _read_rows(path, "bench")]
    runs = [r for r in rows if r.get("kind") == "run"]
    summaries = [r for r in rows if r.get("kind") == "summary"]
    if len(summaries) != 1:
        raise ValueError(f"{path}: expected exactly one summary row")
    return runs, summaries[0]


# --- binary embeddings ----------------------------------------------------

def write_embeddings(path, ids: Sequence[str], matrix: np.ndarray) -> None:
    matrix = np.ascontiguousarray(matrix, dtype="<f8")
    if matrix.ndim != 2:
        raise ValueError(f"embedding matrix must be 2-d, got shape {matrix.shape}")
    if len(ids) != matrix.shape[0]:
        raise ValueError(f"{len(ids)} ids for {matrix.shape[0]} embedding rows")
    header = {
        "format": "embeddings",
        "version": FORMAT_VERSION,
        "count": matrix.shape[0],
        "dim": matrix.shape[1],
        "itemsize": 8,
        "ids": list(ids),
    }
    with _atomic_open(path, "wb") as fh:
        fh.write(_dump(header).encode("utf-8") + b"\n")
        fh.write(matrix.tobytes(order="C"))


def read_embeddings(path) -> tuple[list[str], np.ndarray]:
    with open(path, "rb") as fh:
        raw = fh.read()
    newline = raw.find(b"\n")
    if newline < 0:
        raise ValueError(f"{path}: missing embeddings header line")
    header = _parse_line(path, 1, raw[:newline].decode("utf-8"))
    if header.get("format") != "embeddings":
        raise ValueError(f"{path}: not an embeddings file")
    if header.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported embeddings version {header.get('version')!r}"
        )
    count, dim = int(header["count"]), int(header["dim"])
    body = raw[newline + 1 :]
    expected = count * dim * 8
    if len(body) != expected:
        raise ValueError(
            f"{path}: embedding block is {len(body)} bytes, expected {expected}"
        )
    matrix = np.frombuffer(body, dtype="<f8").reshape(count, dim).copy()
    ids = [str(i) for i in header["ids"]]
    if len(ids) != count:
        raise ValueError(f"{path}: header lists {len(ids)} ids for {count} rows")
    return ids, matrix
