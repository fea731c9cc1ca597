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
import json
import os
import signal
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
    encode,  # noqa: F401 - not called here; benchmarks/tracer.py wraps it in this module
    encode_batch,
    load_checkpoint,
    save_checkpoint,
)
from .evaluation import evaluate_run
from .loss import HyperParams
from .mining import (
    assemble_dataset,
    filter_false_negatives,
    first_sentence_query,
    generate_queries,
    judge_for,
    mine_hard_negatives,
    split_passages,
)
# cosine is not called here; benchmarks/tracer.py still wraps it in this module
from .similarity import cosine  # noqa: F401
from .synthetic import make_clustered_corpus
from .training import TrainingSet, finetune, pretrain

__all__ = ["main", "run"]

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
        what = exc if isinstance(exc, _ChildError) else f"{type(exc).__name__}: {exc}"
        print(f"internal error: {what}", file=sys.stderr)
        return 3
    return 0


def run() -> None:
    """The `progemb` program: main()'s exit code, without interpreter
    teardown. Every artifact is closed before main returns, and the package
    registers no atexit hook or logging handler, so after stdout and stderr
    are flushed nothing is left that teardown would finish; a caller's
    atexit handlers do not run. A flush that fails leaves through
    SystemExit, which reports it as an ordinary exit does. argparse's own
    exits (--help, a usage error) leave the same way, with its code."""
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        raise SystemExit(code)
    os._exit(code)


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


def _tokenizer(cfg: RunConfig, passages) -> Tokenizer:
    """The vocabulary of every token of the passages and the query prefix."""
    return Tokenizer.from_texts(itertools.chain((p.text for p in passages), [cfg.query_prefix]))


def _passage_tokens(tok: Tokenizer, cfg: RunConfig, passages) -> Tokens:
    return tok.encode_texts([p.text for p in passages], cfg.max_passage_len)


def _query_tokens(tok: Tokenizer, cfg: RunConfig, texts) -> Tokens:
    return tok.encode_texts([_query_text(cfg, t) for t in texts], cfg.max_query_len)


def _embed_passages(enc, tokens: Tokens, passages):
    """(ids, embeddings) blocks of the passages from their token store (row
    k is passage k), one kernel call per EMBED_BLOCK passages."""
    for start in range(0, len(passages), EMBED_BLOCK):
        block = passages[start : start + EMBED_BLOCK]
        rows = np.arange(start, start + len(block))
        yield [p.passage_id for p in block], encode_batch(enc, tokens.take(rows)).embs


def cmd_pretrain(cfg: RunConfig) -> None:
    corpus = dataio.read_corpus(_require(cfg.corpus_path, "corpus_path"))
    if not corpus:
        raise ValueError(f"{cfg.corpus_path}: corpus has no records")
    tok = _tokenizer(cfg, corpus)
    enc = ToyEncoder.create(tok.vocab_size, cfg.embed_dim, seed=cfg.seed)
    dec = MaeDecoder.create(cfg.max_passage_len, cfg.embed_dim, tok.vocab_size, seed=cfg.seed)
    sequences = _passage_tokens(tok, cfg, corpus)
    losses = pretrain(
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
    save_checkpoint(out / "checkpoint.bin", enc, tok, dec)
    dataio.write_loss_curve(out / "loss_curve.jsonl", losses)
    print(f"pretrained {cfg.pretrain_epochs} epochs on {len(sequences)} sequences")
    if losses:
        print(f"loss {losses[0]:.4f} -> {losses[-1]:.4f}")
    print(f"wrote {out / 'checkpoint.bin'}")
    print(f"wrote {out / 'loss_curve.jsonl'}")


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
    ids, embs = [p.passage_id for p in passages], np.empty((len(passages), enc.dim))
    blocks = _embed_passages(enc, _passage_tokens(tok, cfg, passages), passages)
    for start, (_, block) in zip(range(0, len(passages), EMBED_BLOCK), blocks):
        embs[start : start + len(block)] = block

    queries: list[tuple[str, str]] = []
    positives: dict[str, str] = {}
    for p in passages:
        for j, q in enumerate(generate_queries(p, first_sentence_query)):
            qid = f"{p.passage_id}-q{j}"
            queries.append((qid, q))
            positives[qid] = p.passage_id

    query_embs = encode_batch(enc, _query_tokens(tok, cfg, (q for _, q in queries))).embs
    judge = judge_for(cfg.judge, cfg.judge_threshold)
    mined: dict[str, list] = {}
    dropped: dict[str, int] = {}
    audit_rows: list[dict] = []
    all_candidates = mine_hard_negatives(
        query_embs, ids, embs, [{positives[qid]} for qid, _ in queries], k=cfg.mining_k
    )
    for (qid, qtext), candidates in zip(queries, all_candidates):
        kept, audit = filter_false_negatives(qtext, candidates, judge, texts)
        mined[qid] = kept
        dropped[qid] = len(candidates) - len(kept)
        audit_rows += ({"query_id": qid, "candidate_id": cid, "reason": reason}
                       for cid, reason in audit)

    out = _out_dir(cfg)
    dataio.write_corpus(out / "passages.jsonl", passages)
    dataio.write_embeddings(out / "passage_embeddings.bin", ids, embs)
    rows = assemble_dataset(queries, positives, mined, dropped=dropped)
    dataio.write_dataset(out / "dataset.jsonl", rows)
    dataio.write_mining_audit(out / "mining_audit.jsonl", audit_rows)
    print(
        f"mined {len(rows)} queries over {len(passages)} passages: "
        f"{sum(len(r.negative_ids) for r in rows)} negatives kept, "
        f"{sum(dropped.values())} dropped, "
        f"{sum(not r.negative_ids for r in rows)} queries with no negatives"
    )
    for name in ("passages.jsonl", "dataset.jsonl", "mining_audit.jsonl",
                 "passage_embeddings.bin"):
        print(f"wrote {out / name}")


def _training_set(rows, passages, tok: Tokenizer, cfg: RunConfig):
    """The training set of dataset rows, as `dataio.read_dataset` checks
    them, over one token store: each referenced passage is tokenized once,
    in first-reference order, then each query. An id with no passage is a
    ValueError."""
    texts = {p.passage_id: p.text for p in passages}
    row_of: dict[str, int] = {}
    candidates = np.full((len(rows), 1 + dataio.MAX_NEGATIVES), -1, dtype=np.intp)
    for i, row in enumerate(rows):
        for j, key in enumerate((row.positive_id, *row.negative_ids)):
            if key not in texts:
                kind = "positive" if j == 0 else "negative"
                raise ValueError(f"dataset: unknown {kind} id {key!r}")
            candidates[i, j] = row_of.setdefault(key, len(row_of))
    tokens = Tokens.concat([
        tok.encode_texts([texts[key] for key in row_of], cfg.max_passage_len),
        _query_tokens(tok, cfg, (r.query for r in rows)),
    ])
    return TrainingSet(len(row_of) + np.arange(len(rows)), candidates), tokens


def _finetune(cfg: RunConfig, data: TrainingSet, tokens: Tokens, enc):
    """Fine-tune enc in place with the config's hyperparameters, epochs,
    loss mode and seed."""
    return finetune(
        data, tokens, enc, HyperParams(alpha=cfg.alpha, beta=cfg.beta, tau=cfg.tau),
        cfg.finetune_epochs, batch_size=cfg.finetune_batch_size, lr=cfg.finetune_lr,
        weight_decay=cfg.weight_decay, optimizer=cfg.optimizer,
        loss_mode=cfg.loss_mode, seed=cfg.seed,
    )


def cmd_finetune(cfg: RunConfig) -> None:
    ckpt = load_checkpoint(_require(cfg.checkpoint_path, "checkpoint_path"))
    # the dataset's rows and the passages' texts live only while the set is built
    data, tokens = _training_set(
        dataio.read_dataset(_require(cfg.dataset_path, "dataset_path")),
        dataio.iter_corpus(_require(cfg.passages_path, "passages_path")),
        ckpt.tokenizer, cfg,
    )
    result = _finetune(cfg, data, tokens, ckpt.encoder)
    out = _out_dir(cfg)
    save_checkpoint(out / "checkpoint.bin", ckpt.encoder, ckpt.tokenizer, ckpt.decoder)
    dataio.write_finetune_audit(out / "finetune_audit.jsonl", cfg.loss_mode, result.audit)
    print(
        f"fine-tuned {len(data)} examples for {cfg.finetune_epochs} epochs "
        f"({len(result.audit)} steps, loss_mode={cfg.loss_mode})"
    )
    if result.audit:
        print(f"final step loss {result.audit[-1].loss:.4f}, t {result.audit[-1].t:.4f}")
    print(f"wrote {out / 'checkpoint.bin'}")
    print(f"wrote {out / 'finetune_audit.jsonl'}")


def _print_report(report: dataio.MetricReport) -> None:
    print(f"{'metric':<10} {'macro':>8}")
    for name in dataio.METRICS:
        print(f"{name:<10} {report.macro.get(name, 0.0):>8.4f}")
    print(
        f"queries evaluated {len(report.per_query)}, "
        f"excluded {len(report.excluded)}, errors {len(report.errors)}"
    )


def _embed_gallery(enc, tok: Tokenizer, cfg: RunConfig, path):
    """(ids, embeddings) blocks of a gallery file's passages, made as they
    are drawn. The file is read and tokenized GALLERY_BLOCK passages at a
    time, so nothing outlives a block but what the consumer keeps."""
    passages = dataio.iter_corpus(path)
    block = list(itertools.islice(passages, GALLERY_BLOCK))
    if not block:
        raise ValueError(f"{path}: gallery has no records")
    while block:
        yield from _embed_passages(enc, _passage_tokens(tok, cfg, block), block)
        block = list(itertools.islice(passages, GALLERY_BLOCK))


def cmd_evaluate(cfg: RunConfig) -> None:
    ckpt = load_checkpoint(_require(cfg.checkpoint_path, "checkpoint_path"))
    gallery_path = _require(cfg.gallery_path, "gallery_path")
    # queries and qrels are checked before the gallery's expensive pass
    query_rows = dataio.read_queries(_require(cfg.queries_path, "queries_path"))
    qrels = dataio.read_qrels(_require(cfg.qrels_path, "qrels_path"))
    tok, stores, failed = ckpt.tokenizer, {}, []
    for qid, text in query_rows:
        try:
            stores[qid] = tok.encode_text(_query_text(cfg, text), cfg.max_query_len)
        except ValueError:
            # evaluation carries on; the report records the failed query
            failed.append((qid, None))
    tokens = Tokens.concat(stores.values()) if stores else tok.encode_texts(())
    # the gallery is read, embedded and ranked a block at a time
    report = evaluate_run(
        [*zip(stores, encode_batch(ckpt.encoder, tokens).embs), *failed],
        _embed_gallery(ckpt.encoder, tok, cfg, gallery_path),
        qrels,
        depth=cfg.eval_depth,
        include_zero_relevant=cfg.include_zero_relevant,
    )
    out = _out_dir(cfg)
    dataio.write_metrics_report(out / "metrics.jsonl", report)
    _print_report(report)
    print(f"wrote {out / 'metrics.jsonl'}")


class _ChildError(RuntimeError):
    """An exception other than ValueError or OSError in bench's forked
    InfoNCE run, carried as its `Type: message` text, which main prints as
    it prints the same exception raised in this process."""


def _modes_in_process(run):
    """run(mode)'s results for the progressive, then the InfoNCE mode, one
    after the other in this process."""
    return run("progressive"), run("infonce")


def _modes(run):
    """_modes_in_process's results, with the InfoNCE run in a forked child
    where os.fork exists. The child inherits run's inputs, prints nothing
    and sends its JSON result back through a pipe, while the progressive
    run stays in this process. The child's ValueError or OSError is raised
    here with its message, any other exception as a _ChildError with its
    type and message, and a child that ends without a result is a
    RuntimeError. The child is reaped on every path."""
    if not hasattr(os, "fork"):
        return _modes_in_process(run)
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        code = 3
        try:
            os.close(read)
            try:
                reply = {"result": run("infonce")}
            except ValueError as exc:
                reply = {"error": "value", "message": str(exc)}
            except OSError as exc:
                reply = {"error": "os", "message": str(exc)}
            except Exception as exc:
                reply = {"error": "other", "message": f"{type(exc).__name__}: {exc}"}
            with open(write, "w", encoding="utf-8") as pipe:
                json.dump(reply, pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    try:
        with open(read, encoding="utf-8") as pipe:
            progressive = run("progressive")
            text = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    exit_code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if exit_code != 0:
        raise RuntimeError(f"the infonce run ended without a result (exit {exit_code})")
    reply = json.loads(text)
    if "error" in reply:
        kind = {"value": ValueError, "os": OSError, "other": _ChildError}[reply["error"]]
        raise kind(reply["message"])
    return progressive, reply["result"]


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
        tok = _tokenizer(cfg, data.passages)
        rows = [dataio.DatasetRow(q.query_id, q.text, q.positive_id, (), {}) for q in data.train]
        train, tokens = _training_set(rows, data.passages, tok, cfg)
        gallery = _passage_tokens(tok, cfg, data.passages)
        held = _query_tokens(tok, cfg, (q.text for q in data.heldout))

        def run(mode):
            """The macro metrics of one loss mode's fine-tune from the
            seed's initial encoder."""
            enc = ToyEncoder.create(tok.vocab_size, cfg.embed_dim, seed=seed)
            _finetune(dataclasses.replace(cfg, finetune_epochs=cfg.bench_epochs,
                                          loss_mode=mode, seed=seed), train, tokens, enc)
            queries = zip((q.query_id for q in data.heldout), encode_batch(enc, held).embs)
            return evaluate_run(
                queries, _embed_passages(enc, gallery, data.passages), data.qrels(),
                depth=cfg.eval_depth,
            ).macro

        for mode, macro in zip(("progressive", "infonce"), _modes(run)):
            run_rows.append({"seed": seed, "loss_mode": mode, **macro})
            per_mode[mode].append(macro)
            print(
                f"seed {seed} {mode:<12} recall@1 {macro['recall@1']:.4f} "
                f"ndcg@10 {macro['ndcg@10']:.4f}"
            )
    means = {
        mode: {m: float(np.mean([row[m] for row in rows])) for m in dataio.METRICS}
        for mode, rows in per_mode.items()
    }
    summary = {
        "seeds": cfg.bench_seeds,
        "noise_rate": cfg.bench_noise_rate,
        "progressive": means["progressive"],
        "infonce": means["infonce"],
        "delta": {
            m: means["progressive"][m] - means["infonce"][m] for m in dataio.METRICS
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
