"""Workload definitions and the benchmark's own input generator.

Every input file a workload feeds to ``progemb`` is written here from the
workload seed, with Python's ``random.Random`` and the on-disk formats
spelled out by hand, so that no change to the program can alter the load.
``input_digest`` hashes the files of one seed; ``digests.json`` records the
digest of the default seed, and a run whose default-seed inputs no longer
hash to it fails.

Documents are two sentences of words drawn from one cluster's word pool.
``mine`` derives each passage's query from its first sentence, so a query
is a strict part of its positive. A small share of documents is repeated
verbatim under a second id; those copies tie exactly with the original,
which exercises the miner's tie order and gives the judge something to
drop.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
COMMANDS = ("pretrain", "mine", "finetune", "evaluate", "bench")
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"
SENTENCE_WORDS = 6        # words in each of a document's two sentences

# The bench command's synthetic corpus at the sizes used by every workload
# that is not the paper experiment: small, so it adds little besides the
# per-command throughput it reports.
SMALL_BENCH = {
    "bench_gallery": 200,
    "bench_train": 160,
    "bench_heldout": 40,
    "bench_epochs": 2,
}


@dataclass(frozen=True)
class Corpus:
    """Shape of a clustered two-sentence corpus."""

    docs: int
    clusters: int
    words_per_cluster: int
    duplicate_share: float = 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: Corpus            # pretrain and mine read it
    gallery_docs: int         # evaluate ranks these, fresh documents
    heldout_queries: int      # first sentences of sampled gallery documents
    config: dict              # shared config keys of the four-command chain
    bench: dict               # config keys of the bench command
    quality_from: str         # "evaluate" (metrics.jsonl) or "bench"
    expects: tuple = ()       # per-layer metrics a traced run must see above 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-large-batch",
            corpus=Corpus(docs=1024, clusters=16, words_per_cluster=64,
                          duplicate_share=0.03),
            gallery_docs=1000,
            heldout_queries=500,
            config={
                "pretrain_epochs": 1,
                "finetune_epochs": 3,
                "finetune_batch_size": 256,
                "embed_dim": 32,
                "mining_k": 5,
                "judge": "always_irrelevant",
            },
            bench=SMALL_BENCH,
            quality_from="evaluate",
            expects=("loss.finetune.negatives_amplified_share",),
        ),
        Workload(
            name="retrieve-large-gallery",
            corpus=Corpus(docs=3000, clusters=60, words_per_cluster=40,
                          duplicate_share=0.05),
            gallery_docs=20000,
            heldout_queries=300,
            config={
                "pretrain_epochs": 1,
                "finetune_epochs": 1,
                "mining_k": 5,
                "embed_dim": 32,
                "judge": "similarity",
                "judge_threshold": 0.985,
            },
            bench=SMALL_BENCH,
            quality_from="evaluate",
        ),
        Workload(
            name="pretrain-large-vocab",
            corpus=Corpus(docs=1600, clusters=1600, words_per_cluster=12),
            gallery_docs=1600,
            heldout_queries=800,
            config={
                "pretrain_epochs": 1,
                "finetune_epochs": 3,
                "mining_k": 5,
                "judge": "always_irrelevant",
            },
            bench=SMALL_BENCH,
            quality_from="evaluate",
        ),
        Workload(
            name="paper-bench-noisy",
            corpus=Corpus(docs=200, clusters=8, words_per_cluster=24),
            gallery_docs=200,
            heldout_queries=50,
            config={
                "pretrain_epochs": 1,
                "finetune_epochs": 1,
                "mining_k": 5,
                "judge": "always_irrelevant",
            },
            bench={
                "bench_noise_rate": 0.2,
                "bench_gallery": 2000,
                "bench_train": 1600,
                "bench_heldout": 400,
                "bench_epochs": 8,
                "embed_dim": 64,
                "finetune_batch_size": 32,
                "finetune_lr": 0.01,
            },
            quality_from="bench",
            expects=("loss.bench.positives_downweighted_share",),
        ),
    )
}


def _sentence(words) -> str:
    return " ".join(words) + " ."


def _documents(rng: random.Random, prefix: str, count: int, pools):
    """``count`` documents as (id, text) pairs, document i in cluster i mod C."""
    width = len(str(max(count - 1, 1)))
    length = 2 * SENTENCE_WORDS
    docs = []
    for i in range(count):
        pool = pools[i % len(pools)]
        words = rng.sample(pool, min(length, len(pool)))
        while len(words) < length:
            words.append(rng.choice(pool))
        text = (_sentence(words[:SENTENCE_WORDS]) + " "
                + _sentence(words[SENTENCE_WORDS:]))
        docs.append((f"{prefix}{i:0{width}d}", text))
    return docs


def generate(workload: Workload, seed: int) -> dict[str, bytes]:
    """Every input file of one workload and seed, by file name."""
    spec = workload.corpus
    rng = random.Random(f"{workload.name}/{seed}")
    pools = [
        [f"k{k}w{j}" for j in range(spec.words_per_cluster)]
        for k in range(spec.clusters)
    ]
    corpus = _documents(rng, "d", spec.docs, pools)
    copies = round(spec.duplicate_share * spec.docs)
    for n, (doc_id, text) in enumerate(rng.sample(corpus, copies)):
        corpus.append((f"{doc_id}x{n}", text))

    # the gallery may only use words the pretrain vocabulary has seen
    seen = {w for _, text in corpus for w in text.split()}
    gallery_pools = [[w for w in pool if w in seen] for pool in pools]
    gallery = _documents(rng, "g", workload.gallery_docs,
                         [p for p in gallery_pools if p])
    sampled = sorted(rng.sample(range(len(gallery)), workload.heldout_queries))
    queries = [(f"h{n:04d}", gallery[i][1].split(" . ")[0] + " .", gallery[i][0])
               for n, i in enumerate(sampled)]

    files = {
        "corpus.jsonl": _rows("corpus", ({"id": i, "text": t, "source_doc": "gen"}
                                         for i, t in corpus)),
        "gallery.jsonl": _rows("corpus", ({"id": i, "text": t, "source_doc": "gen"}
                                          for i, t in gallery)),
        "queries.jsonl": _rows("queries", ({"query_id": q, "text": t}
                                           for q, t, _ in queries)),
        "qrels.jsonl": _rows("qrels", ({"query_id": q, "doc_id": d, "grade": 1}
                                       for q, _, d in queries)),
    }
    for command in COMMANDS:
        files[f"{command}.cfg"] = config_text(workload, command, seed).encode()
    return files


def _rows(fmt: str, rows) -> bytes:
    lines = [json.dumps({"format": fmt, "version": 1}, sort_keys=True)]
    lines += [json.dumps(r, sort_keys=True) for r in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def config_text(workload: Workload, command: str, seed: int) -> str:
    """The config file of one command; paths are relative to the run directory."""
    if command == "bench":
        keys = dict(workload.bench)
    else:
        keys = dict(workload.config)
        keys.update({
            "pretrain": {"corpus_path": "corpus.jsonl"},
            "mine": {"corpus_path": "corpus.jsonl",
                     "checkpoint_path": "pretrain/checkpoint.bin"},
            "finetune": {"checkpoint_path": "pretrain/checkpoint.bin",
                         "dataset_path": "mine/dataset.jsonl",
                         "passages_path": "mine/passages.jsonl"},
            "evaluate": {"checkpoint_path": "finetune/checkpoint.bin",
                         "gallery_path": "gallery.jsonl",
                         "queries_path": "queries.jsonl",
                         "qrels_path": "qrels.jsonl"},
        }[command])
    keys["out_dir"] = command
    keys["seed"] = seed
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def input_digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name] + b"\0")
    return h.hexdigest()


def check_default_digest(workload: Workload, extra: bytes = b"") -> None:
    """Raise ValueError unless the default-seed inputs hash to the recorded digest.

    ``extra`` carries bytes outside the generator that also define the load,
    such as the bench command's synthetic corpus.
    """
    files = generate(workload, DEFAULT_SEED)
    files["bench-corpus"] = extra
    actual = input_digest(files)
    recorded = json.loads(DIGESTS_PATH.read_text()).get(workload.name)
    if recorded != actual:
        raise ValueError(
            f"{workload.name}: default-seed inputs hash to {actual}, but "
            f"{DIGESTS_PATH.name} records {recorded}"
        )
