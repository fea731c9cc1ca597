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
import itertools
import sys
from pathlib import Path

import numpy as np

from . import dataio
from .config import RunConfig, load_config
from .encoder import (
    MaeDecoder,
    Tokenizer,
    Tokens,
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
# cosine is not called here; benchmarks/tracer.py still wraps it in this module
from .similarity import cosine  # noqa: F401
from .synthetic import make_clustered_corpus
from .training import TrainingExample, finetune, pretrain

__all__ = ["main"]

# passages per encoder kernel call
EMBED_BLOCK = 128
# gallery passages evaluate reads, tokenizes and embeds at a time; only ids and
# embedding rows outlive a block. 128-passage blocks, which interleave JSON
# parsing with the kernels more finely, made evaluate about 7 % slower
GALLERY_BLOCK = 1024


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


def _encode_query(enc, tok: Tokenizer, cfg: RunConfig, text: str) -> np.ndarray:
    return encode(enc, tok.encode_text(_query_text(cfg, text), cfg.max_query_len))


def _passage_tokens(tok: Tokenizer, cfg: RunConfig, passages) -> Tokens:
    return tok.encode_texts([p.text for p in passages], cfg.max_passage_len)


def _embed_passages(enc, tokens: Tokens, passages):
    """Passage ids and embeddings from the passages' token store (row k is
    passage k), one kernel call per EMBED_BLOCK passages."""
    embs = np.empty((len(passages), enc.dim))
    for start in range(0, len(passages), EMBED_BLOCK):
        rows = np.arange(start, min(start + EMBED_BLOCK, len(passages)))
        embs[rows] = encode_batch(enc, tokens.take(rows)).embs
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
    sequences = tok.encode_texts([p.text for p in corpus], cfg.max_passage_len)
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
    """Marks a candidate relevant when its mined similarity exceeds the threshold."""

    def __init__(self, threshold: float):
        self._threshold = threshold

    def judge(self, query: str, candidate: str, similarity: float) -> bool:
        return similarity > self._threshold


def _make_judge(cfg: RunConfig):
    if cfg.judge == "always_irrelevant":
        return AlwaysIrrelevantJudge()
    if cfg.judge == "always_relevant":
        return AlwaysRelevantJudge()
    return _SimilarityJudge(cfg.judge_threshold)


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
    ids, embs = _embed_passages(enc, _passage_tokens(tok, cfg, passages), passages)

    queries: list[tuple[str, str]] = []
    positives: dict[str, str] = {}
    for p in passages:
        for j, q in enumerate(generate_queries(p, first_sentence_query)):
            qid = f"{p.passage_id}-q{j}"
            queries.append((qid, q))
            positives[qid] = p.passage_id

    query_texts = [_query_text(cfg, q) for _, q in queries]
    query_embs = encode_batch(enc, tok.encode_texts(query_texts, cfg.max_query_len)).embs
    judge = _make_judge(cfg)
    mined: dict[str, list] = {}
    dropped: dict[str, int] = {}
    audit_rows: list[dict] = []
    all_candidates = mine_hard_negatives(
        query_embs, ids, embs, [{positives[qid]} for qid, _ in queries], k=cfg.mining_k
    )
    for (qid, qtext), candidates in zip(queries, all_candidates):
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


def _training_set(rows, passages, tok: Tokenizer, cfg: RunConfig):
    """Examples of dataset rows over one token store: each referenced passage
    is tokenized once, in first-reference order, then each query."""
    texts = {p.passage_id: p.text for p in passages}
    row_of: dict[str, int] = {}
    for row in rows:
        for key in (row.positive_id, *row.negative_ids):
            if key not in texts:
                kind = "positive" if key == row.positive_id else "negative"
                raise ValueError(f"dataset: unknown {kind} id {key!r}")
            row_of.setdefault(key, len(row_of))
    tokens = Tokens.concat([
        tok.encode_texts([texts[key] for key in row_of], cfg.max_passage_len),
        tok.encode_texts([_query_text(cfg, r.query) for r in rows], cfg.max_query_len),
    ])
    examples = [
        TrainingExample(
            query_id=row.query_id,
            query=len(row_of) + i,
            positive_id=row.positive_id,
            positive=row_of[row.positive_id],
            negative_ids=tuple(row.negative_ids),
            hard_negatives=tuple(row_of[n] for n in row.negative_ids),
        )
        for i, row in enumerate(rows)
    ]
    return examples, tokens


def cmd_finetune(cfg: RunConfig) -> None:
    ckpt = load_checkpoint(_require(cfg.checkpoint_path, "checkpoint_path"))
    rows = dataio.read_dataset(_require(cfg.dataset_path, "dataset_path"))
    passages = dataio.read_corpus(_require(cfg.passages_path, "passages_path"))
    examples, tokens = _training_set(rows, passages, ckpt.tokenizer, cfg)
    result = finetune(
        examples,
        tokens,
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


def _embed_gallery(enc, tok: Tokenizer, cfg: RunConfig, path):
    """Ids and embeddings of a gallery file's passages. The file is read,
    tokenized and embedded GALLERY_BLOCK passages at a time; only the ids
    and the embedding rows outlive a block."""
    ids, blocks = [], []
    passages = dataio.iter_corpus(path)
    while block := list(itertools.islice(passages, GALLERY_BLOCK)):
        block_ids, embs = _embed_passages(enc, _passage_tokens(tok, cfg, block), block)
        ids += block_ids
        blocks.append(embs)
    if not blocks:
        raise ValueError(f"{path}: gallery has no records")
    return ids, np.concatenate(blocks)


def cmd_evaluate(cfg: RunConfig) -> None:
    ckpt = load_checkpoint(_require(cfg.checkpoint_path, "checkpoint_path"))
    gallery_path = _require(cfg.gallery_path, "gallery_path")
    # queries and qrels are checked before the gallery's expensive pass
    query_rows = dataio.read_queries(_require(cfg.queries_path, "queries_path"))
    qrels = dataio.read_qrels(_require(cfg.qrels_path, "qrels_path"))
    gallery_ids, gallery_embs = _embed_gallery(
        ckpt.encoder, ckpt.tokenizer, cfg, gallery_path
    )
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
        rows = [dataio.DatasetRow(q.query_id, q.text, q.positive_id, (), {}) for q in data.train]
        examples, tokens = _training_set(rows, data.passages, tok, cfg)
        init = ToyEncoder.create(len(tok.id_to_token), cfg.embed_dim, seed=seed)
        gallery = _passage_tokens(tok, cfg, data.passages)
        for mode in ("progressive", "infonce"):
            enc = ToyEncoder(
                token_table=init.token_table.copy(),
                projection=init.projection.copy(),
            )
            finetune(
                examples,
                tokens,
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
            gallery_ids, gallery_embs = _embed_passages(enc, gallery, data.passages)
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
