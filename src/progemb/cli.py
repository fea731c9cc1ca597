"""Command-line pipeline driver.

Subcommands: pretrain, mine, finetune, evaluate, bench. Every command takes
--config (required) plus optional --seed, --loss-mode, and --out overrides,
reads its inputs from the paths named in the config, and writes fixed file
names under the output directory.

Exit codes: 0 success, 1 validation failure, 2 I/O failure, 3 anything else.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import dataio
from .config import RunConfig, load_config
from .encoder import (
    MaeDecoder,
    Tokenizer,
    ToyEncoder,
    encode,
    encode_batch,
    load_checkpoint,
    save_checkpoint,
)
from .evaluation import METRICS, MetricReport, evaluate_run
from .loss import HyperParams
from .mining import (
    AlwaysIrrelevantJudge,
    AlwaysRelevantJudge,
    assemble_dataset,
    filter_false_negatives,
    first_sentence_query,
    generate_queries,
    mine_hard_negatives,
    split_passages,
)
from .similarity import cosine
from .synthetic import make_clustered_corpus
from .training import TrainingExample, finetune, pretrain

__all__ = ["main"]

# passages tokenized and encoded per kernel call; bounds the flat token block
EMBED_BLOCK = 128


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the run config file")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument(
        "--loss-mode",
        choices=("progressive", "infonce"),
        default=None,
        help="override the config loss mode",
    )
    common.add_argument("--out", default=None, help="override the output directory")
    parser = argparse.ArgumentParser(
        prog="progemb",
        description="progressive contrastive training pipeline for text retrieval",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("pretrain", parents=[common], help="masked-reconstruction pretraining")
    sub.add_parser("mine", parents=[common], help="split, generate, mine, filter, assemble")
    sub.add_parser("finetune", parents=[common], help="contrastive fine-tuning")
    sub.add_parser("evaluate", parents=[common], help="rank a gallery and report metrics")
    sub.add_parser("bench", parents=[common], help="progressive vs InfoNCE on synthetic data")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.loss_mode is not None:
            overrides["loss_mode"] = args.loss_mode
        if args.out is not None:
            overrides["out_dir"] = args.out
        if overrides:
            cfg = dataclasses.replace(cfg, **overrides).validate()
        _COMMANDS[args.command](cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require(path: str, what: str) -> str:
    if not path:
        raise ValueError(f"config: {what} is required for this command")
    return path


def _query_text(cfg: RunConfig, text: str) -> str:
    return f"{cfg.query_prefix} {text}" if cfg.query_prefix else text


def _query_tokens(tok: Tokenizer, cfg: RunConfig, text: str):
    return tok.encode_text(_query_text(cfg, text), cfg.max_query_len)


def _encode_query(enc, tok: Tokenizer, cfg: RunConfig, text: str) -> np.ndarray:
    return encode(enc, _query_tokens(tok, cfg, text))


def _embed_passages(enc, tok: Tokenizer, cfg: RunConfig, passages):
    """Passage ids and embeddings, one kernel call per EMBED_BLOCK passages."""
    embs = np.empty((len(passages), enc.dim))
    for start in range(0, len(passages), EMBED_BLOCK):
        block = passages[start : start + EMBED_BLOCK]
        seqs = [tok.encode_text(p.text, cfg.max_passage_len) for p in block]
        embs[start : start + len(block)] = encode_batch(enc, seqs).embs
    return [p.passage_id for p in passages], embs


def cmd_pretrain(cfg: RunConfig) -> None:
    corpus = dataio.read_corpus(_require(cfg.corpus_path, "corpus_path"))
    if not corpus:
        raise ValueError(f"{cfg.corpus_path}: corpus has no records")
    extra = (cfg.query_prefix,) if cfg.query_prefix else ()
    tok = Tokenizer.from_texts(
        (p.text for p in corpus), extra_texts=extra, limit=cfg.vocab_limit
    )
    enc = ToyEncoder.create(len(tok.id_to_token), cfg.embed_dim, seed=cfg.seed)
    dec = MaeDecoder.create(
        cfg.max_passage_len, cfg.embed_dim, len(tok.id_to_token), seed=cfg.seed
    )
    sequences = [tok.encode_text(p.text, cfg.max_passage_len) for p in corpus]
    result = pretrain(
        sequences,
        enc,
        dec,
        cfg.pretrain_epochs,
        mask_ratio=cfg.mask_ratio,
        batch_size=cfg.pretrain_batch_size,
        lr=cfg.pretrain_lr,
        weight_decay=cfg.weight_decay,
        optimizer=cfg.optimizer,
        seed=cfg.seed,
    )
    out = _out_dir(cfg)
    save_checkpoint(out / "checkpoint.bin", result.encoder, tok, result.decoder)
    dataio.write_loss_curve(out / "loss_curve.jsonl", result.epoch_losses)
    print(f"pretrained {cfg.pretrain_epochs} epochs on {len(sequences)} sequences")
    if result.epoch_losses:
        print(f"loss {result.epoch_losses[0]:.4f} -> {result.epoch_losses[-1]:.4f}")
    print(f"wrote {out / 'checkpoint.bin'}")
    print(f"wrote {out / 'loss_curve.jsonl'}")


class _SimilarityJudge:
    """Marks a candidate relevant when its embedding is too close to the query.

    Encodes nothing: looks up by text the embeddings `mine` already computed.
    """

    def __init__(self, query_embs: dict, passage_embs: dict, threshold: float):
        self._queries, self._passages, self._threshold = query_embs, passage_embs, threshold

    def judge(self, query: str, candidate: str) -> bool:
        return cosine(self._queries[query], self._passages[candidate]) > self._threshold


def _make_judge(cfg: RunConfig, query_embs: dict, passage_embs: dict):
    if cfg.judge == "always_irrelevant":
        return AlwaysIrrelevantJudge()
    if cfg.judge == "always_relevant":
        return AlwaysRelevantJudge()
    return _SimilarityJudge(query_embs, passage_embs, cfg.judge_threshold)


def cmd_mine(cfg: RunConfig) -> None:
    docs = dataio.read_corpus(_require(cfg.corpus_path, "corpus_path"))
    ckpt = load_checkpoint(_require(cfg.checkpoint_path, "checkpoint_path"))
    enc, tok = ckpt.encoder, ckpt.tokenizer

    passages = []
    for doc in docs:
        passages.extend(
            split_passages(doc.text, cfg.passage_max_chars, source_doc=doc.passage_id)
        )
    if not passages:
        raise ValueError(f"{cfg.corpus_path}: no passages after splitting")
    texts = {p.passage_id: p.text for p in passages}
    ids, embs = _embed_passages(enc, tok, cfg, passages)

    queries: list[tuple[str, str]] = []
    positives: dict[str, str] = {}
    for p in passages:
        for j, q in enumerate(generate_queries(p, first_sentence_query)):
            qid = f"{p.passage_id}-q{j}"
            queries.append((qid, q))
            positives[qid] = p.passage_id

    query_embs = encode_batch(enc, [_query_tokens(tok, cfg, q) for _, q in queries]).embs
    judge = _make_judge(
        cfg,
        {qtext: q_emb for (_, qtext), q_emb in zip(queries, query_embs)},
        {p.text: p_emb for p, p_emb in zip(passages, embs)},
    )
    mined: dict[str, list] = {}
    dropped: dict[str, int] = {}
    audit_rows: list[dict] = []
    for (qid, qtext), q_emb in zip(queries, query_embs):
        candidates = mine_hard_negatives(
            q_emb, ids, embs, {positives[qid]}, k=cfg.mining_k
        )
        kept, events = filter_false_negatives(qtext, candidates, judge, texts)
        mined[qid] = kept
        dropped[qid] = sum(1 for e in events if e.removed)
        audit_rows.extend(
            {"query_id": qid, "candidate_id": e.candidate_id, "reason": e.reason}
            for e in events
        )

    out = _out_dir(cfg)
    dataio.write_corpus(out / "passages.jsonl", passages)
    dataio.write_embeddings(out / "passage_embeddings.bin", ids, embs)
    stats = assemble_dataset(
        queries, positives, mined, out / "dataset.jsonl", dropped=dropped
    )
    dataio.write_mining_audit(out / "mining_audit.jsonl", audit_rows)
    print(
        f"mined {stats.examples_written} queries over {len(passages)} passages: "
        f"{stats.negatives_written} negatives kept, {stats.negatives_dropped} dropped, "
        f"{stats.zero_negative_queries} queries with no negatives"
    )
    for name in ("passages.jsonl", "dataset.jsonl", "mining_audit.jsonl",
                 "passage_embeddings.bin"):
        print(f"wrote {out / name}")


def _examples_from_rows(rows, texts, tok: Tokenizer, cfg: RunConfig):
    examples = []
    for row in rows:
        if row.positive_id not in texts:
            raise ValueError(f"dataset: unknown positive id {row.positive_id!r}")
        negatives = []
        for nid in row.negative_ids:
            if nid not in texts:
                raise ValueError(f"dataset: unknown negative id {nid!r}")
            negatives.append(tok.encode_text(texts[nid], cfg.max_passage_len))
        examples.append(
            TrainingExample(
                query_id=row.query_id,
                query=_query_tokens(tok, cfg, row.query),
                positive_id=row.positive_id,
                positive=tok.encode_text(texts[row.positive_id], cfg.max_passage_len),
                negative_ids=tuple(row.negative_ids),
                hard_negatives=tuple(negatives),
            )
        )
    return examples


def cmd_finetune(cfg: RunConfig) -> None:
    ckpt = load_checkpoint(_require(cfg.checkpoint_path, "checkpoint_path"))
    rows = dataio.read_dataset(_require(cfg.dataset_path, "dataset_path"))
    passages = dataio.read_corpus(_require(cfg.passages_path, "passages_path"))
    texts = {p.passage_id: p.text for p in passages}
    examples = _examples_from_rows(rows, texts, ckpt.tokenizer, cfg)
    result = finetune(
        examples,
        ckpt.encoder,
        HyperParams(alpha=cfg.alpha, beta=cfg.beta, tau=cfg.tau),
        cfg.finetune_epochs,
        batch_size=cfg.finetune_batch_size,
        lr=cfg.finetune_lr,
        weight_decay=cfg.weight_decay,
        optimizer=cfg.optimizer,
        loss_mode=cfg.loss_mode,
        seed=cfg.seed,
    )
    out = _out_dir(cfg)
    save_checkpoint(out / "checkpoint.bin", result.encoder, ckpt.tokenizer, ckpt.decoder)
    dataio.write_finetune_audit(out / "finetune_audit.jsonl", cfg.loss_mode, result.audit)
    print(
        f"fine-tuned {len(examples)} examples for {cfg.finetune_epochs} epochs "
        f"({len(result.audit)} steps, loss_mode={cfg.loss_mode})"
    )
    if result.audit:
        print(f"final step loss {result.audit[-1].loss:.4f}, t {result.audit[-1].t:.4f}")
    print(f"wrote {out / 'checkpoint.bin'}")
    print(f"wrote {out / 'finetune_audit.jsonl'}")


def _print_report(report: MetricReport) -> None:
    print(f"{'metric':<10} {'macro':>8}")
    for name in METRICS:
        print(f"{name:<10} {report.macro.get(name, 0.0):>8.4f}")
    print(
        f"queries evaluated {len(report.per_query)}, "
        f"excluded {len(report.excluded)}, errors {len(report.errors)}"
    )


def cmd_evaluate(cfg: RunConfig) -> None:
    ckpt = load_checkpoint(_require(cfg.checkpoint_path, "checkpoint_path"))
    gallery = dataio.read_corpus(_require(cfg.gallery_path, "gallery_path"))
    if not gallery:
        raise ValueError(f"{cfg.gallery_path}: gallery has no records")
    query_rows = dataio.read_queries(_require(cfg.queries_path, "queries_path"))
    qrels = dataio.read_qrels(_require(cfg.qrels_path, "qrels_path"))
    gallery_ids, gallery_embs = _embed_passages(ckpt.encoder, ckpt.tokenizer, cfg, gallery)
    queries = []
    for qid, text in query_rows:
        try:
            queries.append((qid, _encode_query(ckpt.encoder, ckpt.tokenizer, cfg, text)))
        except ValueError:
            # evaluation carries on; the report records the failed query
            queries.append((qid, None))
    report = evaluate_run(
        queries,
        gallery_ids,
        gallery_embs,
        qrels,
        depth=cfg.eval_depth,
        include_zero_relevant=cfg.include_zero_relevant,
    )
    out = _out_dir(cfg)
    dataio.write_metrics_report(out / "metrics.jsonl", report)
    _print_report(report)
    print(f"wrote {out / 'metrics.jsonl'}")


def _bench_examples(data, tok: Tokenizer, cfg: RunConfig):
    texts = {p.passage_id: p.text for p in data.passages}
    return [
        TrainingExample(
            query_id=q.query_id,
            query=_query_tokens(tok, cfg, q.text),
            positive_id=q.positive_id,
            positive=tok.encode_text(texts[q.positive_id], cfg.max_passage_len),
        )
        for q in data.train
    ]


def cmd_bench(cfg: RunConfig) -> None:
    run_rows = []
    per_mode: dict[str, list[dict]] = {"progressive": [], "infonce": []}
    for r in range(cfg.bench_seeds):
        seed = cfg.seed + r
        data = make_clustered_corpus(
            n_clusters=cfg.bench_clusters,
            gallery_size=cfg.bench_gallery,
            n_train=cfg.bench_train,
            n_heldout=cfg.bench_heldout,
            noise_rate=cfg.bench_noise_rate,
            seed=seed,
        )
        extra = (cfg.query_prefix,) if cfg.query_prefix else ()
        tok = Tokenizer.from_texts(
            (p.text for p in data.passages), extra_texts=extra, limit=cfg.vocab_limit
        )
        examples = _bench_examples(data, tok, cfg)
        init = ToyEncoder.create(len(tok.id_to_token), cfg.embed_dim, seed=seed)
        for mode in ("progressive", "infonce"):
            enc = ToyEncoder(
                token_table=init.token_table.copy(),
                projection=init.projection.copy(),
            )
            finetune(
                examples,
                enc,
                HyperParams(alpha=cfg.alpha, beta=cfg.beta, tau=cfg.tau),
                cfg.bench_epochs,
                batch_size=cfg.finetune_batch_size,
                lr=cfg.finetune_lr,
                weight_decay=cfg.weight_decay,
                optimizer=cfg.optimizer,
                loss_mode=mode,
                seed=seed,
            )
            gallery_ids, gallery_embs = _embed_passages(enc, tok, cfg, data.passages)
            queries = [
                (q.query_id, _encode_query(enc, tok, cfg, q.text)) for q in data.heldout
            ]
            report = evaluate_run(
                queries, gallery_ids, gallery_embs, data.qrels(), depth=cfg.eval_depth
            )
            row = {"seed": seed, "loss_mode": mode, **report.macro}
            run_rows.append(row)
            per_mode[mode].append(report.macro)
            print(
                f"seed {seed} {mode:<12} recall@1 {report.macro['recall@1']:.4f} "
                f"ndcg@10 {report.macro['ndcg@10']:.4f}"
            )
    means = {
        mode: {m: float(np.mean([row[m] for row in rows])) for m in METRICS}
        for mode, rows in per_mode.items()
    }
    summary = {
        "seeds": cfg.bench_seeds,
        "noise_rate": cfg.bench_noise_rate,
        "progressive": means["progressive"],
        "infonce": means["infonce"],
        "delta": {
            m: means["progressive"][m] - means["infonce"][m] for m in METRICS
        },
    }
    out = _out_dir(cfg)
    dataio.write_bench_report(out / "bench.jsonl", run_rows, summary)
    print(
        f"mean recall@1: progressive {means['progressive']['recall@1']:.4f}, "
        f"infonce {means['infonce']['recall@1']:.4f}, "
        f"delta {summary['delta']['recall@1']:+.4f}"
    )
    print(f"wrote {out / 'bench.jsonl'}")


_COMMANDS = {
    "pretrain": cmd_pretrain,
    "mine": cmd_mine,
    "finetune": cmd_finetune,
    "evaluate": cmd_evaluate,
    "bench": cmd_bench,
}
