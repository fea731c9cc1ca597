"""Flat key = value run configuration.

One option per line, full-line # comments, blank lines ignored. Unknown keys
are rejected so typos fail fast. Values are coerced by the declared field
type; parse(serialize(config)) always reproduces the config exactly, which
is why string values may not carry surrounding whitespace (query_prefix is
joined to the query with a space at use time, so no trailing space is
needed).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import get_type_hints

__all__ = ["RunConfig", "parse_config", "load_config", "serialize_config"]

_OPTIMIZERS = ("adamw", "sgd")
_LOSS_MODES = ("progressive", "infonce")
_JUDGES = ("always_irrelevant", "always_relevant", "similarity")


@dataclass(frozen=True)
class RunConfig:
    # input and output locations; commands write fixed names under out_dir
    corpus_path: str = ""
    checkpoint_path: str = ""
    passages_path: str = ""
    dataset_path: str = ""
    gallery_path: str = ""
    queries_path: str = ""
    qrels_path: str = ""
    out_dir: str = "out"

    # encoder shape and tokenization
    embed_dim: int = 16
    max_query_len: int = 16
    max_passage_len: int = 64
    query_prefix: str = ""

    # masked-reconstruction pretraining
    mask_ratio: float = 0.3
    pretrain_epochs: int = 10
    pretrain_batch_size: int = 32
    pretrain_lr: float = 0.01

    # contrastive fine-tuning
    finetune_epochs: int = 10
    finetune_batch_size: int = 32
    finetune_lr: float = 0.002
    weight_decay: float = 0.0
    optimizer: str = "adamw"      # "sgd" is the deterministic fallback
    loss_mode: str = "progressive"
    alpha: float = 0.5
    beta: float = 0.1
    tau: float = 0.01

    # mining
    mining_k: int = 5
    passage_max_chars: int = 200
    judge: str = "always_irrelevant"
    judge_threshold: float = 0.95

    # evaluation
    eval_depth: int = 50
    include_zero_relevant: bool = False

    # synthetic benchmark
    bench_seeds: int = 1
    bench_noise_rate: float = 0.0
    bench_clusters: int = 8
    bench_gallery: int = 200
    bench_train: int = 160
    bench_heldout: int = 40
    bench_epochs: int = 10

    seed: int = 0

    def validate(self) -> "RunConfig":
        def positive(name, value):
            if value <= 0:
                raise ValueError(f"config: {name} must be > 0, got {value}")

        def nonneg(name, value):
            if value < 0:
                raise ValueError(f"config: {name} must be >= 0, got {value}")

        # NaN passes the > 0 and >= 0 checks below, no float key allows an
        # infinity, and JSON holds neither
        for name, value in _fields(self, float):
            if not math.isfinite(value):
                raise ValueError(f"config: {name} must be finite, got {value}")
        for name in ("embed_dim", "max_query_len", "max_passage_len",
                     "pretrain_batch_size", "finetune_batch_size",
                     "pretrain_lr", "finetune_lr", "tau", "passage_max_chars",
                     "mining_k", "eval_depth", "bench_seeds", "bench_clusters",
                     "bench_gallery", "bench_train", "bench_heldout"):
            positive(name, getattr(self, name))
        for name in ("pretrain_epochs", "finetune_epochs",
                     "weight_decay", "beta", "bench_epochs", "seed"):
            nonneg(name, getattr(self, name))
        if not -1.0 <= self.judge_threshold <= 1.0:
            raise ValueError(
                f"config: judge_threshold must be in [-1, 1], got {self.judge_threshold}"
            )
        if not 0.0 <= self.mask_ratio < 1.0:
            raise ValueError(f"config: mask_ratio must be in [0, 1), got {self.mask_ratio}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"config: alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 <= self.bench_noise_rate <= 1.0:
            raise ValueError(
                f"config: bench_noise_rate must be in [0, 1], got {self.bench_noise_rate}"
            )
        if self.optimizer not in _OPTIMIZERS:
            raise ValueError(
                f"config: optimizer must be one of {_OPTIMIZERS}, got {self.optimizer!r}"
            )
        if self.loss_mode not in _LOSS_MODES:
            raise ValueError(
                f"config: loss_mode must be one of {_LOSS_MODES}, got {self.loss_mode!r}"
            )
        if self.judge not in _JUDGES:
            raise ValueError(
                f"config: judge must be one of {_JUDGES}, got {self.judge!r}"
            )
        for name, value in _fields(self, str):
            if value != value.strip() or "\n" in value:
                raise ValueError(
                    f"config: {name} may not have surrounding whitespace or newlines"
                )
        return self


def _fields(cfg: RunConfig, kind):
    """(name, value) of each of cfg's fields declared of type kind."""
    hints = get_type_hints(RunConfig)
    for f in dataclasses.fields(cfg):
        if hints[f.name] is kind:
            yield f.name, getattr(cfg, f.name)


def _coerce(name: str, kind, raw: str):
    if kind is str:
        return raw
    if kind is bool:
        lowered = raw.lower()
        if lowered in ("true", "false"):
            return lowered == "true"
        raise ValueError(f"config: {name} must be true or false, got {raw!r}")
    if kind is int:
        try:
            return int(raw)
        except ValueError:
            raise ValueError(f"config: {name} must be an integer, got {raw!r}") from None
    if kind is float:
        try:
            return float(raw)
        except ValueError:
            raise ValueError(f"config: {name} must be a number, got {raw!r}") from None
    raise AssertionError(f"unhandled config field type for {name}")


def parse_config(text: str) -> RunConfig:
    """Parse config text; unset keys keep their defaults."""
    hints = get_type_hints(RunConfig)
    known = {f.name: hints[f.name] for f in dataclasses.fields(RunConfig)}
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in known:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        values[key] = _coerce(key, known[key], raw)
    return RunConfig(**values).validate()


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse_config(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def serialize_config(cfg: RunConfig) -> str:
    """Emit every field; parse_config on the result reproduces cfg exactly."""
    lines = []
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"
