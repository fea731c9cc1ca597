"""Layer cases for progemb's kernels, each run in a fresh child process.

    python perf/layers.py [--out BENCH_4.json] [--repeats 5] [--compare OLD.json]

Cases:

- ``topk/g<M>/k<k>``: ``similarity.top_k`` of Q seeded queries (d = 32)
  against an M-row gallery fed in 1,024-row blocks. Each block is made as
  it is fed, from a fixed 4,096-row pool, its columns rolled and its sign
  flipped by the block's number, so that the child never holds the
  gallery; the time includes making the blocks and their ids.
- ``mine/q<Q>/g<M>/k<k>``: ``mining.mine_hard_negatives``, the call
  ``mine`` makes, by default at its shape on the retrieve-large-gallery
  workload: 3,150 queries over 3,150 passages at k = 5. The gallery is the
  top-k case's, made into one array before the clock starts, as ``mine``
  holds it, and query i's one positive is gallery row i (mod M).
- ``evaluate/g<M>``: the ``progemb evaluate`` command on a generated
  M-passage gallery, its Q queries and qrels, and a seeded d = 32
  checkpoint. Every repeat is its own child process, timed by its wall
  time.
- ``step/b<B>/<loss mode>``: one fine-tune step, ``training.build_batch``
  plus ``training._step_loss_and_gradients``, over B queries (d = 32) with
  a distinct positive and 5 distinct negatives each, so M = 6B, in both
  loss modes. The child builds its set through ``cli._training_set`` from
  in-memory dataset rows and passages; the time excludes that. Shapes of
  B >= 8,192 take at most 3 repeats: one step there takes seconds.

Each case reports the median and IQR of its repeats' seconds, the first
repeat's seconds on its own (``first_s``: a first run in a fresh process
can differ from the later ones), and the child's own peak RSS, read from
``wait4``. This launcher imports neither numpy nor progemb: a child's
``ru_maxrss`` starts from the RSS of the process that started it. The file is stamped with nproc, the Python and
numpy versions, the BLAS thread count and CPU kernel (``blas_core``, which
``OPENBLAS_CORETYPE`` can override) read inside a child, and the commit
(``-dirty`` when the tree differs from it).
``--compare OLD.json`` prints each case's ratio, new over old, after the
run. Run it from a checkout; it imports progemb from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIM = 32
FEED_BLOCK = 1024
POOL_ROWS = 4096
STEP_NEGATIVES = 5
LARGE_STEP = 8_192  # a step case from this many queries on takes at most 3 repeats


def _run(argv, cwd=None):
    """Run a child to its end; return (stdout, wall seconds, its own peak RSS in MB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        if proc.returncode != 0:
            raise RuntimeError(f"{argv[1:]} exited {proc.returncode}: "
                               f"{err.read().decode()[-2000:]}")
        return out.read().decode(), wall, usage.ru_maxrss / 1024.0


def _summary(seconds, rss_mb):
    q1, median, q3 = (statistics.quantiles(seconds, n=4, method="inclusive")
                      if len(seconds) > 1 else seconds * 3)
    return {"repeats": len(seconds), "median_s": median, "iqr_s": q3 - q1,
            "first_s": seconds[0], "seconds": seconds, "peak_rss_mb": rss_mb}


# --- children ---------------------------------------------------------------

def _openblas(name: str, restype):
    """``openblas_<name>`` called in the library numpy loaded, under any of
    its symbol prefixes, or None when no such library or symbol is found."""
    import ctypes
    import glob

    import numpy as np

    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], restype
                return fn()
    return None


def child_stamp() -> dict:
    import ctypes

    import progemb  # noqa: F401 - sets the BLAS thread count before numpy loads
    import numpy as np

    threads = _openblas("get_num_threads", ctypes.c_int)
    if threads is None:
        threads = os.environ.get("OPENBLAS_NUM_THREADS", "unknown")
    core = _openblas("get_corename", ctypes.c_char_p)
    return {"numpy": np.__version__, "blas_threads": threads,
            "blas_core": "unknown" if core is None else core.decode()}


def _topk_inputs(gallery: int, queries: int):
    """The seeded queries, and a function that makes the gallery's blocks."""
    import numpy as np

    rng = np.random.default_rng(7)
    pool, q = rng.normal(size=(POOL_ROWS, DIM)), rng.normal(size=(queries, DIM))
    per_pool = POOL_ROWS // FEED_BLOCK

    def blocks():
        for b, lo in enumerate(range(0, gallery, FEED_BLOCK)):
            n = min(FEED_BLOCK, gallery - lo)
            at = (b % per_pool) * FEED_BLOCK
            rows = np.roll(pool[at : at + n], b // per_pool % DIM, axis=1)
            if b // (per_pool * DIM) % 2:
                rows = -rows
            yield [f"p{i:07d}" for i in range(lo, lo + n)], rows

    return q, blocks


def child_topk(gallery: int, k: int, queries: int, repeats: int) -> dict:
    """Seconds of each top_k call over a streamed gallery."""
    from progemb.similarity import top_k

    q, blocks = _topk_inputs(gallery, queries)
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        list(top_k(q, blocks(), k))
        seconds.append(time.perf_counter() - start)
    return {"seconds": seconds}


def child_mine(gallery: int, k: int, queries: int, repeats: int) -> dict:
    """Seconds of each mine_hard_negatives call over a gallery in hand."""
    from progemb.mining import mine_hard_negatives
    import numpy as np

    q, blocks = _topk_inputs(gallery, queries)
    ids, embs = [], []
    for names, rows in blocks():
        ids += names
        embs.append(rows)
    embs = np.concatenate(embs)
    positives = [{ids[i % gallery]} for i in range(queries)]
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        mine_hard_negatives(q, ids, embs, positives, k)
        seconds.append(time.perf_counter() - start)
    return {"seconds": seconds}


def child_prepare(directory: str, gallery: int, queries: int) -> dict:
    """Write an evaluate case's checkpoint, gallery, queries, qrels and config."""
    from progemb import dataio
    from progemb.encoder import Tokenizer, ToyEncoder, save_checkpoint
    import numpy as np

    rng = np.random.default_rng(11)
    words = [f"w{i}" for i in range(2000)]
    out = Path(directory)
    picks = rng.integers(0, len(words), size=(gallery, 12)).tolist()
    texts = [" ".join(words[j] for j in row) for row in picks]
    passages = [dataio.Passage(f"g{i:07d}", text, "gen") for i, text in enumerate(texts)]
    dataio.write_corpus(out / "gallery.jsonl", passages)
    sampled = sorted(rng.choice(gallery, size=min(queries, gallery), replace=False).tolist())
    dataio.write_queries(out / "queries.jsonl",
                         [(f"q{n:05d}", " ".join(texts[i].split()[:6])) for n, i in enumerate(sampled)])
    dataio.write_qrels(out / "qrels.jsonl",
                       {f"q{n:05d}": {passages[i].passage_id: 1} for n, i in enumerate(sampled)})
    tok = Tokenizer.from_texts(words)
    save_checkpoint(out / "checkpoint.bin", ToyEncoder.create(tok.vocab_size, DIM, seed=3), tok)
    (out / "evaluate.cfg").write_text(
        "checkpoint_path = checkpoint.bin\ngallery_path = gallery.jsonl\n"
        "queries_path = queries.jsonl\nqrels_path = qrels.jsonl\nout_dir = out\n"
    )
    return {}


def child_step(queries: int, loss_mode: str, repeats: int) -> dict:
    """Seconds of each fine-tune step over one batch of all the queries."""
    from dataclasses import replace

    from progemb.cli import _training_set
    from progemb.config import RunConfig
    from progemb.dataio import DatasetRow, Passage
    from progemb.encoder import Tokenizer, ToyEncoder
    from progemb.loss import HyperParams, MomentumState
    from progemb.training import _step_loss_and_gradients, build_batch
    import numpy as np

    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(2000)]
    picks = rng.integers(0, len(words), size=(queries, 18)).tolist()
    texts = [" ".join(words[j] for j in row) for row in picks]
    passages = [Passage(f"p{i:06d}", text, "gen") for i, text in enumerate(texts)]
    rows = []
    for i, text in enumerate(texts):
        # query i's positive is passage i; its negatives are 5 other passages
        others = (i + 1 + rng.choice(queries - 1, size=STEP_NEGATIVES, replace=False)) % queries
        rows.append(DatasetRow(f"q{i:06d}", " ".join(text.split()[:6]), passages[i].passage_id,
                               tuple(passages[k].passage_id for k in others.tolist()), {}))
    tok = Tokenizer.from_texts(words)
    data, tokens = _training_set(rows, passages, tok, RunConfig())
    enc = ToyEncoder.create(tok.vocab_size, DIM, seed=3)
    grad = replace(enc, params=np.zeros_like(enc.params))
    index = np.arange(queries)
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        batch = build_batch(data, index, tokens, enc)
        _step_loss_and_gradients(batch, enc, MomentumState(), HyperParams(), loss_mode, grad)
        seconds.append(time.perf_counter() - start)
    return {"seconds": seconds}


CHILDREN = {"stamp": child_stamp, "topk": child_topk, "mine": child_mine,
            "prepare": child_prepare, "step": child_step}


# --- launcher ---------------------------------------------------------------

def _child(name: str, **kwargs):
    """A child's JSON result and its own peak RSS in MB."""
    out, _, rss = _run([sys.executable, str(Path(__file__).resolve()), "--child",
                        json.dumps({"name": name, "kwargs": kwargs})])
    return json.loads(out.strip().splitlines()[-1]), rss


def _commit() -> str:
    """The checked-out commit, suffixed ``-dirty`` when tracked files differ
    from it, or ``unknown`` outside a git clone."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                             cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(args) -> dict:
    stamp, _ = _child("stamp")
    stamp.update(nproc=os.cpu_count(), python=platform.python_version(), commit=_commit())
    cases = {}
    for gallery in args.galleries:
        for k in args.ks:
            result, rss = _child("topk", gallery=gallery, k=k, queries=args.queries,
                                    repeats=args.repeats)
            cases[f"topk/g{gallery}/k{k}"] = _summary(result["seconds"], rss)
    if args.mine_topk:
        queries, gallery, k = args.mine_topk
        result, rss = _child("mine", gallery=gallery, k=k, queries=queries,
                             repeats=args.repeats)
        cases[f"mine/q{queries}/g{gallery}/k{k}"] = _summary(result["seconds"], rss)
    for gallery in args.eval_galleries:
        with tempfile.TemporaryDirectory() as work:
            _child("prepare", directory=work, gallery=gallery, queries=args.queries)
            seconds, peaks = [], []
            for _ in range(args.repeats):
                _, wall, rss = _run([sys.executable, "-m", "progemb", "evaluate",
                                     "--config", "evaluate.cfg"], cwd=work)
                seconds.append(wall)
                peaks.append(rss)
            cases[f"evaluate/g{gallery}"] = _summary(seconds, max(peaks))
    for queries in args.steps:
        repeats = min(args.repeats, 3) if queries >= LARGE_STEP else args.repeats
        for loss_mode in ("progressive", "infonce"):
            result, rss = _child("step", queries=queries, loss_mode=loss_mode, repeats=repeats)
            cases[f"step/b{queries}/{loss_mode}"] = _summary(result["seconds"], rss)
    return {"stamp": stamp, "queries": args.queries, "dim": DIM, "cases": cases}


def compare(new: dict, old: dict) -> list[str]:
    lines = []
    for name, case in new["cases"].items():
        was = old["cases"].get(name)
        if was is None:
            lines.append(f"{name:<24} new")
            continue
        lines.append(f"{name:<24} time x{case['median_s'] / was['median_s']:.3f}  "
                     f"rss x{case['peak_rss_mb'] / was['peak_rss_mb']:.3f}")
    return lines


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="BENCH_4.json")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--queries", type=int, default=300)
    parser.add_argument("--galleries", type=_ints, default=[2_000, 20_000, 200_000])
    parser.add_argument("--ks", type=_ints, default=[10, 50])
    parser.add_argument("--mine-topk", type=_ints, default=[3_150, 3_150, 5],
                        help="queries,gallery,k of the mine case; empty for none")
    parser.add_argument("--eval-galleries", type=_ints, default=[20_000, 100_000])
    parser.add_argument("--steps", type=_ints, default=[32, 2_048, 8_192, 13_334],
                        help="fine-tune step batch sizes B, each with M = 6B slots")
    parser.add_argument("--compare", default=None, help="a previous BENCH file")
    parser.add_argument("--child", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        spec = json.loads(args.child)
        print(json.dumps(CHILDREN[spec["name"]](**spec["kwargs"])))
        return 0
    result = run(args)
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    for name, case in result["cases"].items():
        print(f"{name:<24} median {case['median_s']:.4f} s  iqr {case['iqr_s']:.4f} s  "
              f"peak {case['peak_rss_mb']:.1f} MB")
    if args.compare:
        print("\n".join(compare(result, json.loads(Path(args.compare).read_text()))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
