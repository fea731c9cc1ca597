"""Output checks on the artifacts of one pipeline run.

Every artifact must read back through ``progemb.dataio`` or
``load_checkpoint``; losses must be finite; metrics must lie in [0, 1] and
cover every held-out query; and an exactness oracle re-ranks a sample of
mined queries with a plain numpy sort over ``passage_embeddings.bin``.
Each failed check, and each query the metrics report lists as an error, is
one failed operation.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

import numpy as np

ORACLE_QUERIES = 24
SIM_TOLERANCE = 1e-9


def _in_unit(value) -> bool:
    return isinstance(value, (int, float)) and 0.0 <= value <= 1.0


def check_pipeline(run_dir: Path, workload, seed: int):
    """Return (quality, evaluated query count, failure messages)."""
    from progemb import dataio
    from progemb.encoder import load_checkpoint

    failures: list[str] = []

    def attempt(what, fn):
        try:
            return fn()
        except (OSError, ValueError, KeyError, TypeError) as exc:
            failures.append(f"{what}: {type(exc).__name__}: {exc}")
            return None

    for name in ("pretrain", "finetune"):
        attempt(f"{name} checkpoint",
                lambda: load_checkpoint(run_dir / name / "checkpoint.bin"))
    curve = attempt("loss curve",
                    lambda: dataio.read_loss_curve(run_dir / "pretrain/loss_curve.jsonl"))
    if curve is not None and not all(math.isfinite(v) for v in curve):
        failures.append("loss_curve.jsonl: non-finite loss")
    audit = attempt("finetune audit", lambda: dataio.read_finetune_audit(
        run_dir / "finetune/finetune_audit.jsonl"))
    if audit is not None and not all(math.isfinite(a.loss) for a in audit[1]):
        failures.append("finetune_audit.jsonl: non-finite loss")
    attempt("mined passages", lambda: dataio.read_corpus(run_dir / "mine/passages.jsonl"))
    failures += attempt("mining oracle", lambda: oracle_check(run_dir, seed)) or []

    evaluated = 0
    quality: dict[str, float] = {}
    report = attempt("metrics report", lambda: dataio.read_metrics_report(
        run_dir / "evaluate/metrics.jsonl"))
    queries = attempt("held-out queries",
                      lambda: dataio.read_queries(run_dir / "queries.jsonl"))
    if report is not None and queries is not None:
        evaluated = len(queries)
        failures += [f"metrics.jsonl: query {q} failed: {e}"
                     for q, e in sorted(report.errors.items())]
        if set(report.per_query) | set(report.errors) != {q for q, _ in queries}:
            failures.append("metrics.jsonl does not cover every held-out query")
        values = list(report.macro.values())
        values += [v for row in report.per_query.values() for v in row.values()]
        if not all(_in_unit(v) for v in values):
            failures.append("metrics.jsonl: a metric lies outside [0, 1]")
        if workload.quality_from == "evaluate":
            quality = {"recall_at_1": report.macro["recall@1"],
                       "ndcg_at_10": report.macro["ndcg@10"]}

    bench = attempt("bench report",
                    lambda: dataio.read_bench_report(run_dir / "bench/bench.jsonl"))
    if bench is not None:
        runs = bench[0]
        metrics = [v for row in runs for k, v in row.items()
                   if k not in ("kind", "seed", "loss_mode")]
        progressive = [r for r in runs if r.get("loss_mode") == "progressive"]
        if not progressive or not all(_in_unit(v) for v in metrics):
            failures.append("bench.jsonl: no progressive run or a metric outside [0, 1]")
        elif workload.quality_from == "bench":
            quality = {"recall_at_1": progressive[0]["recall@1"],
                       "ndcg_at_10": progressive[0]["ndcg@10"]}
    return quality, evaluated, failures


def _embed(ckpt, cfg, text: str) -> np.ndarray:
    """The toy encoder's query forward pass, written out with plain numpy."""
    if cfg.query_prefix:
        text = f"{cfg.query_prefix} {text}"
    vocab = {tok: i for i, tok in enumerate(ckpt.tokenizer.id_to_token)}
    ids = [vocab[w] for w in text.split()[:cfg.max_query_len]]
    u = ckpt.encoder.token_table[ids].mean(axis=0) @ ckpt.encoder.projection
    return u / np.linalg.norm(u)


def oracle_check(run_dir: Path, seed: int) -> list[str]:
    """Re-rank sampled mined queries by exhaustive sort and compare.

    The checkpoint, k, query prefix and query length come from the mine
    command's own config. For each sampled query the mined candidates
    (kept ones from ``dataset.jsonl`` plus the ones the judge removed, from
    ``mining_audit.jsonl``) must be exactly the top k of the oracle up to
    ties within SIM_TOLERANCE; every recorded similarity must match the
    oracle's; and the kept list must be in descending similarity with ties
    in ascending id.
    """
    from progemb import dataio
    from progemb.config import load_config
    from progemb.encoder import load_checkpoint

    cfg = load_config(run_dir / "mine.cfg")
    k, out = cfg.mining_k, run_dir / cfg.out_dir
    ckpt = load_checkpoint(run_dir / cfg.checkpoint_path)
    ids, embs = dataio.read_embeddings(out / "passage_embeddings.bin")
    rows = dataio.read_dataset(out / "dataset.jsonl")
    removed: dict[str, set[str]] = {}
    for r in dataio.read_mining_audit(out / "mining_audit.jsonl"):
        if r["reason"] == "judged_relevant":
            removed.setdefault(r["query_id"], set()).add(r["candidate_id"])
    gallery = embs / np.linalg.norm(embs, axis=1, keepdims=True)
    id_array = np.array(ids)
    index = {pid: i for i, pid in enumerate(ids)}
    failures = []
    for row in random.Random(seed).sample(rows, min(ORACLE_QUERIES, len(rows))):
        sims = gallery @ _embed(ckpt, cfg, row.query)
        keep = id_array != row.positive_id
        order = np.lexsort((id_array[keep], -sims[keep]))
        expected = id_array[keep][order][:k]
        kth = sims[index[expected[-1]]]
        mined = set(row.negative_ids) | removed.get(row.query_id, set())
        for pid in mined.symmetric_difference(expected):
            if abs(sims[index[pid]] - kth) > SIM_TOLERANCE:
                failures.append(f"oracle: {row.query_id} top-{k} differs at {pid}")
        recorded = row.provenance.get("similarities", [])
        if len(recorded) != len(row.negative_ids):
            failures.append(f"oracle: {row.query_id} similarities missing")
            continue
        for pid, sim in zip(row.negative_ids, recorded):
            if abs(sims[index[pid]] - sim) > SIM_TOLERANCE:
                failures.append(f"oracle: {row.query_id} similarity of {pid} is {sim}, "
                                f"oracle {sims[index[pid]]}")
        pairs = list(zip(recorded, row.negative_ids))
        for (s_a, a), (s_b, b) in zip(pairs, pairs[1:]):
            if not (s_a > s_b or (s_a == s_b and a < b)):
                failures.append(f"oracle: {row.query_id} order of {a}, {b}")
    return failures
