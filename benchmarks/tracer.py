"""Span tracing of one ``progemb`` command, from outside the program.

Run as ``python tracer.py SPANS.json <progemb arguments...>``: it imports
``progemb``, replaces each layer's public entry points with timing wrappers
where their callers look them up, runs ``progemb.cli.main`` under a root
span, puts the originals back and writes the spans and counters to
SPANS.json. The exit code is the command's.

Private helpers (``_encode_parts``, ``_encode_backward``,
``_gradients_with_coefficients``, ``_mae_forward_backward``) are not
wrapped: their time is the self time of ``finetune`` and ``pretrain``.
An entry point that no longer exists is listed as missing.

The import of this module starts nothing; the functions that aggregate
spans into per-layer metrics live here too so that tests can call them.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "config", "dataio", "encoder", "training", "loss", "optim",
          "mining", "evaluation", "similarity", "synthetic")

_DATAIO = ("corpus", "dataset", "qrels", "queries", "mining_audit",
           "finetune_audit", "loss_curve", "metrics_report", "bench_report",
           "embeddings")

# (span name, module, attribute path where the caller looks the name up)
TARGETS = (
    [
        ("config.load_config", "progemb.cli", "load_config"),
        ("encoder.encode", "progemb.cli", "encode"),
        ("encoder.tokenize", "progemb.encoder", "Tokenizer.encode_text"),
        ("encoder.build_vocab", "progemb.encoder", "Tokenizer.from_texts"),
        ("encoder.checkpoint_io", "progemb.cli", "load_checkpoint"),
        ("encoder.checkpoint_io", "progemb.cli", "save_checkpoint"),
        ("encoder.corrupt", "progemb.training", "corrupt"),
        ("training.pretrain", "progemb.cli", "pretrain"),
        ("training.finetune", "progemb.cli", "finetune"),
        ("training.build_batch", "progemb.training", "build_batch"),
        ("loss.progressive_loss", "progemb.training", "progressive_loss"),
        ("loss.info_nce", "progemb.training", "info_nce"),
        ("loss.batch_threshold", "progemb.training", "batch_threshold"),
        ("loss.update_momentum", "progemb.training", "update_momentum"),
        ("optim.step", "progemb.optim", "AdamW.step"),
        ("optim.step", "progemb.optim", "GradientDescent.step"),
        ("mining.split", "progemb.cli", "split_passages"),
        ("mining.topk", "progemb.cli", "mine_hard_negatives"),
        ("mining.judge", "progemb.cli", "filter_false_negatives"),
        ("mining.assemble", "progemb.cli", "assemble_dataset"),
        ("evaluation.evaluate_run", "progemb.cli", "evaluate_run"),
        ("evaluation.rank", "progemb.evaluation", "rank_gallery"),
        ("similarity.sim_matrix", "progemb.mining", "sim_matrix"),
        ("similarity.sim_matrix", "progemb.evaluation", "sim_matrix"),
        ("similarity.sim_matrix", "progemb.training", "sim_matrix"),
        ("similarity.cosine", "progemb.cli", "cosine"),
        ("synthetic.generate", "progemb.cli", "make_clustered_corpus"),
    ]
    + [("dataio.read", "progemb.dataio", f"read_{n}") for n in _DATAIO]
    + [("dataio.write", "progemb.dataio", f"write_{n}") for n in _DATAIO]
)


class Recorder:
    """Spans as [name, start, end, parent index] plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        span = [name, 0.0, 0.0, parent]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)


def _wrapper(rec: Recorder, name: str, fn, observe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = rec.call(name, fn, *args, **kwargs)
        if observe is not None:
            observe(rec, args, kwargs, result)
        return result

    return wrapper


def _observe_bytes(rec, args, kwargs, result):
    rec.count("dataio.bytes_written", os.path.getsize(args[0]))


def _observe_batch(rec, args, kwargs, result):
    b, (m, d) = result.size, result.cand_embs.shape
    rec.peak("training.pool_mb_per_step", b * m * d * 8 / 1e6)


def _observe_finetune(rec, args, kwargs, result):
    rec.count("training.steps", len(result.audit))


def _observe_progressive(rec, args, kwargs, result):
    record = result[1]
    rec.count("loss.positives", record.weights.size)
    rec.count("loss.positives_downweighted", int((record.weights < 1.0).sum()))
    rec.count("loss.negatives", int(record.neg_mask.sum()))
    rec.count("loss.negatives_amplified",
              int(((record.scales != 1.0) & record.neg_mask).sum()))


def _observe_step(rec, args, kwargs, result):
    params = args[1]
    rec.peak("optim.params_mb", sum(p.nbytes for p in params.values()) / 1e6)


def _observe_judge(rec, args, kwargs, result):
    rec.count("mining.candidates_mined", len(args[1]))
    rec.count("mining.candidates_kept", len(result[0]))


OBSERVERS = {
    "dataio.write": _observe_bytes,
    "training.build_batch": _observe_batch,
    "training.finetune": _observe_finetune,
    "loss.progressive_loss": _observe_progressive,
    "optim.step": _observe_step,
    "mining.judge": _observe_judge,
}


def install(rec: Recorder, targets=TARGETS):
    """Wrap every target; return (patches to undo, missing target names)."""
    patches, missing = [], []
    for name, module_name, path in targets:
        try:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{module_name}.{path}")
            continue
        observe = OBSERVERS.get(name)
        if isinstance(raw, classmethod):
            new = classmethod(_wrapper(rec, name, raw.__func__, observe))
        else:
            new = _wrapper(rec, name, raw, observe)
        setattr(owner, attr, new)
        patches.append((owner, attr, raw))
    return patches, missing


def restore(patches) -> None:
    for owner, attr, raw in reversed(patches):
        setattr(owner, attr, raw)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


# (share, counter over, counter under), read from progressive_loss's record
MECHANISM_SHARES = (
    ("positives_downweighted_share", "loss.positives_downweighted", "loss.positives"),
    ("negatives_amplified_share", "loss.negatives_amplified", "loss.negatives"),
)


def layer_metrics(commands) -> dict[str, float]:
    """Per-layer metrics from the traced commands of one pipeline.

    ``commands`` holds one dict per command with its ``name``, ``spans``,
    ``counters``, ``missing`` targets and the ``wall_s`` the parent measured
    for the process. The loss mechanism shares are kept per command, as
    ``loss.<command>.<share>``, since each command trains its own model. A
    metric whose entry points are all missing, or whose share has nothing to
    divide by, is left out rather than reported as 0.
    """
    total = defaultdict(float)     # inclusive seconds per span name
    own = defaultdict(float)       # self seconds per span name
    calls = defaultdict(int)
    c = defaultdict(float)         # counters
    root_s = wall_s = 0.0
    missing = set()
    mechanism = {}
    for cmd in commands:
        spans = cmd["spans"]
        for (name, start, end, parent), s in zip(spans, self_times(spans)):
            total[name] += end - start
            own[name] += s
            calls[name] += 1
            if parent < 0:
                root_s += end - start
        wall_s += cmd["wall_s"]
        missing.update(cmd["missing"])
        k = cmd["counters"]
        for share_name, num, den in MECHANISM_SHARES:
            if k.get(den):
                mechanism[f"loss.{cmd['name']}.{share_name}"] = k[num] / k[den]
        for key, value in k.items():
            if key in ("training.pool_mb_per_step", "optim.params_mb"):
                c[key] = max(c[key], value)
            else:
                c[key] += value
    installed = {name for name, module, path in TARGETS
                 if f"{module}.{path}" not in missing}

    def share(num, den):
        return c[num] / c[den] if c[den] else math.nan

    # metric: (value, span names it is measured at)
    table = {
        "training.finetune_self_s": (own["training.finetune"], ["training.finetune"]),
        "training.pretrain_self_s": (own["training.pretrain"], ["training.pretrain"]),
        "training.build_batch_s": (total["training.build_batch"], ["training.build_batch"]),
        "training.build_batch_calls": (calls["training.build_batch"], ["training.build_batch"]),
        "training.steps": (c["training.steps"], ["training.finetune"]),
        "training.pool_mb_per_step": (c["training.pool_mb_per_step"], ["training.build_batch"]),
        "loss.forward_s": (total["loss.progressive_loss"] + total["loss.info_nce"],
                           ["loss.progressive_loss", "loss.info_nce"]),
        "loss.calls": (calls["loss.progressive_loss"] + calls["loss.info_nce"],
                       ["loss.progressive_loss", "loss.info_nce"]),
        "optim.step_s": (total["optim.step"], ["optim.step"]),
        "optim.steps": (calls["optim.step"], ["optim.step"]),
        "optim.params_mb": (c["optim.params_mb"], ["optim.step"]),
        "mining.topk_s": (total["mining.topk"], ["mining.topk"]),
        "mining.topk_calls": (calls["mining.topk"], ["mining.topk"]),
        "mining.judge_s": (total["mining.judge"], ["mining.judge"]),
        "mining.candidates_kept_share": (
            share("mining.candidates_kept", "mining.candidates_mined"),
            ["mining.judge"]),
        "mining.split_s": (total["mining.split"], ["mining.split"]),
        "evaluation.rank_s": (total["evaluation.rank"], ["evaluation.rank"]),
        "evaluation.rank_calls": (calls["evaluation.rank"], ["evaluation.rank"]),
        "evaluation.metrics_s": (own["evaluation.evaluate_run"],
                                 ["evaluation.evaluate_run"]),
        "similarity.sim_matrix_s": (total["similarity.sim_matrix"],
                                    ["similarity.sim_matrix"]),
        "similarity.sim_matrix_calls": (calls["similarity.sim_matrix"],
                                        ["similarity.sim_matrix"]),
        "encoder.encode_s": (total["encoder.encode"], ["encoder.encode"]),
        "encoder.encode_calls": (calls["encoder.encode"], ["encoder.encode"]),
        "encoder.tokenize_s": (total["encoder.tokenize"], ["encoder.tokenize"]),
        "encoder.tokenize_calls": (calls["encoder.tokenize"], ["encoder.tokenize"]),
        "encoder.checkpoint_io_s": (total["encoder.checkpoint_io"],
                                    ["encoder.checkpoint_io"]),
        "dataio.read_s": (total["dataio.read"], ["dataio.read"]),
        "dataio.write_s": (total["dataio.write"], ["dataio.write"]),
        "dataio.bytes_written": (c["dataio.bytes_written"], ["dataio.write"]),
        "synthetic.generate_s": (total["synthetic.generate"], ["synthetic.generate"]),
    }
    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for name, s in own.items():
        m[f"{name.split('.')[0]}.self_s"] += s
    for metric, (value, sources) in table.items():
        if any(s in installed for s in sources) and not math.isnan(value):
            m[metric] = value
    m.update(mechanism)
    m["trace.pipeline_s"] = wall_s
    m["trace.unattributed_s"] = wall_s - root_s
    return m


def main(argv) -> int:
    out_path, args = argv[0], argv[1:]
    rec = Recorder()
    patches, missing = install(rec)
    import progemb.cli

    try:
        rc = rec.call("cli.main", progemb.cli.main, args)
    finally:
        restore(patches)
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rec.spans, "counters": rec.counters,
                       "missing": missing}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
