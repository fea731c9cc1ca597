"""Batch assembly and the pretraining / fine-tuning loops.

Fine-tuning shares negatives in-batch: each query's negative pool is every
other query's positive plus every hard negative brought by any query in the
batch. A candidate whose source id equals the query's own positive id is
excluded from that query's pool (and logged), which is what the neg_mask on
the batch encodes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .encoder import (
    MaeDecoder,
    TokenSequence,
    ToyEncoder,
    _encode_backward,
    _encode_parts,
    _mae_forward_backward,
    corrupt,
)
from .loss import (
    HyperParams,
    MomentumState,
    _pool_gradients,
    batch_threshold,
    info_nce,
    progressive_loss,
    update_momentum,
)
from .optim import make_optimizer
from .similarity import sim_matrix

__all__ = [
    "TrainingExample",
    "ContrastiveBatch",
    "PretrainResult",
    "FinetuneResult",
    "StepAudit",
    "build_batch",
    "pretrain",
    "finetune",
]

logger = logging.getLogger(__name__)

MAX_HARD_NEGATIVES = 5


@dataclass(frozen=True)
class TrainingExample:
    """One query with its positive passage and up to five hard negatives."""

    query_id: str
    query: TokenSequence
    positive_id: str
    positive: TokenSequence
    negative_ids: tuple[str, ...] = ()
    hard_negatives: tuple[TokenSequence, ...] = ()

    def __post_init__(self):
        if len(self.hard_negatives) != len(self.negative_ids):
            raise ValueError(
                f"{self.query_id}: {len(self.negative_ids)} negative ids but "
                f"{len(self.hard_negatives)} sequences"
            )
        if len(self.hard_negatives) > MAX_HARD_NEGATIVES:
            raise ValueError(
                f"{self.query_id}: at most {MAX_HARD_NEGATIVES} hard negatives allowed"
            )
        if self.positive_id in self.negative_ids:
            raise ValueError(
                f"{self.query_id}: positive {self.positive_id} appears among negatives"
            )


@dataclass
class _Forward:
    seq: TokenSequence
    emb: np.ndarray
    pooled: np.ndarray
    u_norm: float


@dataclass
class ContrastiveBatch:
    """Similarities plus the bookkeeping needed for gradients and audits."""

    query_ids: list[str]
    cand_ids: list[str]
    pos: np.ndarray            # (B,)
    neg: np.ndarray            # (B, M) full similarity matrix vs the pool
    neg_mask: np.ndarray       # (B, M); False where a slot is not a negative
    query_embs: np.ndarray     # (B, d)
    cand_embs: np.ndarray      # (M, d); slots [:B] are the positives
    excluded: list[tuple[str, str]] = field(default_factory=list)
    query_forward: list[_Forward] = field(default_factory=list)
    cand_forward: list[_Forward] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.query_ids)


def _encode_cached(enc, cache: dict, key: str, seq: TokenSequence) -> _Forward:
    hit = cache.get(key)
    if hit is not None:
        if hit.seq.tokens != seq.tokens:
            raise ValueError(f"id {key!r} maps to two different token sequences")
        return hit
    emb, pooled, u_norm = _encode_parts(enc, seq)
    fwd = _Forward(seq=seq, emb=emb, pooled=pooled, u_norm=u_norm)
    cache[key] = fwd
    return fwd


def build_batch(examples, enc: ToyEncoder) -> ContrastiveBatch:
    """Encode a batch and assemble the shared-negative similarity structure.

    The candidate pool is all positives followed by all hard negatives, in
    example order. Slot j is masked out of query i's negatives when the
    slot's id equals query i's positive id; the diagonal slot is the query's
    own positive, and any further match is a duplicate, which gets logged.
    """
    examples = list(examples)
    if not examples:
        raise ValueError("build_batch needs a nonempty batch")
    query_cache: dict[str, _Forward] = {}
    cand_cache: dict[str, _Forward] = {}
    query_forward = [
        _encode_cached(enc, query_cache, ex.query_id, ex.query) for ex in examples
    ]
    cand_ids: list[str] = []
    cand_forward: list[_Forward] = []
    for ex in examples:
        cand_ids.append(ex.positive_id)
        cand_forward.append(_encode_cached(enc, cand_cache, ex.positive_id, ex.positive))
    for ex in examples:
        for nid, seq in zip(ex.negative_ids, ex.hard_negatives):
            cand_ids.append(nid)
            cand_forward.append(_encode_cached(enc, cand_cache, nid, seq))

    query_embs = np.stack([f.emb for f in query_forward])
    cand_embs = np.stack([f.emb for f in cand_forward])
    sims = sim_matrix(query_embs, cand_embs)

    b_count = len(examples)
    diag = np.arange(b_count)
    # ids as exact integer codes; slots [:B] hold the positives' ids
    codes: dict[str, int] = {}
    cand_codes = np.array([codes.setdefault(cid, len(codes)) for cid in cand_ids])
    mask = cand_codes[:b_count, None] != cand_codes[None, :]
    duplicate = ~mask
    duplicate[diag, diag] = False
    excluded: list[tuple[str, str]] = []
    for i, j in zip(*np.nonzero(duplicate)):
        excluded.append((examples[i].query_id, cand_ids[j]))
        logger.debug(
            "batch exclusion: candidate %s duplicates positive of %s",
            cand_ids[j],
            examples[i].query_id,
        )
    pos = sims[diag, diag].copy()
    return ContrastiveBatch(
        query_ids=[ex.query_id for ex in examples],
        cand_ids=cand_ids,
        pos=pos,
        neg=sims,
        neg_mask=mask,
        query_embs=query_embs,
        cand_embs=cand_embs,
        excluded=excluded,
        query_forward=query_forward,
        cand_forward=cand_forward,
    )


@dataclass
class PretrainResult:
    encoder: ToyEncoder
    decoder: MaeDecoder
    epoch_losses: list[float]


def pretrain(
    corpus,
    enc: ToyEncoder,
    dec: MaeDecoder,
    epochs: int,
    *,
    mask_ratio: float = 0.3,
    batch_size: int = 32,
    lr: float = 1e-2,
    weight_decay: float = 0.0,
    optimizer: str = "adamw",
    seed: int = 0,
) -> PretrainResult:
    """Train encoder and decoder on masked reconstruction.

    Per batch the objective is the mean over sequences of the reconstruction
    loss on a freshly corrupted copy. The returned curve holds each epoch's
    mean per-sequence loss. Deterministic for a given seed.
    """
    sequences = list(corpus)
    if not sequences:
        raise ValueError("pretrain needs a nonempty corpus")
    if epochs < 0 or batch_size < 1:
        raise ValueError("epochs must be >= 0 and batch_size >= 1")
    rng = np.random.default_rng(seed)
    opt = make_optimizer(optimizer, lr, weight_decay)
    epoch_losses: list[float] = []
    for _ in range(epochs):
        order = rng.permutation(len(sequences))
        losses = []
        for start in range(0, len(order), batch_size):
            chunk = order[start : start + batch_size]
            grads = {
                "token_table": np.zeros_like(enc.token_table),
                "projection": np.zeros_like(enc.projection),
                "position_table": np.zeros_like(dec.position_table),
                "output": np.zeros_like(dec.output),
            }
            for idx in chunk:
                seq = sequences[int(idx)]
                corrupted_seed = int(rng.integers(0, 2**63 - 1))
                corrupted = corrupt(seq, mask_ratio, corrupted_seed)
                loss, g = _mae_forward_backward(enc, dec, seq, corrupted)
                losses.append(loss)
                for name in grads:
                    grads[name] += g[name]
            for name in grads:
                grads[name] /= len(chunk)
            params = {**enc.params(), **dec.params()}
            new = opt.step(params, grads)
            enc.set_params(new)
            dec.set_params(new)
        epoch_losses.append(float(np.mean(losses)))
    return PretrainResult(encoder=enc, decoder=dec, epoch_losses=epoch_losses)


@dataclass(frozen=True)
class StepAudit:
    """Per-step training record; t is the bias after that step's update."""

    step: int
    epoch: int
    sigma: float
    mean_weight: float
    t: float
    loss: float


@dataclass
class FinetuneResult:
    encoder: ToyEncoder
    momentum_history: list[MomentumState]
    audit: list[StepAudit]


def finetune(
    dataset,
    enc: ToyEncoder,
    hyper: HyperParams,
    epochs: int,
    *,
    batch_size: int = 32,
    lr: float = 2e-3,
    weight_decay: float = 0.0,
    optimizer: str = "adamw",
    loss_mode: str = "progressive",
    reduction: str = "mean",
    seed: int = 0,
    initial_state: MomentumState = MomentumState(),
) -> FinetuneResult:
    """Contrastive fine-tuning with in-batch shared negatives.

    Each step: build the batch, derive sigma / weights / scales from its
    similarities, take one optimizer step on the frozen-coefficient loss,
    then fold the batch's mean positive similarity into the momentum bias.
    Deterministic for a given seed.
    """
    examples = list(dataset)
    if not examples:
        raise ValueError("finetune needs a nonempty dataset")
    if loss_mode not in ("progressive", "infonce"):
        raise ValueError(f"unknown loss_mode {loss_mode!r}")
    if epochs < 0 or batch_size < 1:
        raise ValueError("epochs must be >= 0 and batch_size >= 1")
    rng = np.random.default_rng(seed)
    opt = make_optimizer(optimizer, lr, weight_decay)
    state = initial_state
    history: list[MomentumState] = []
    audit: list[StepAudit] = []
    step = 0
    for epoch in range(epochs):
        order = rng.permutation(len(examples))
        for start in range(0, len(order), batch_size):
            chunk = [examples[int(i)] for i in order[start : start + batch_size]]
            try:
                batch = build_batch(chunk, enc)
                value, mean_w, step_grads = _step_loss_and_gradients(
                    batch, enc, state, hyper, loss_mode, reduction
                )
                new = opt.step(enc.params(), step_grads)
                enc.set_params(new)
            except ValueError as exc:
                raise ValueError(f"fine-tune step {step} (epoch {epoch}): {exc}") from exc
            state = update_momentum(state, batch.pos, hyper.alpha)
            history.append(state)
            audit.append(
                StepAudit(
                    step=step,
                    epoch=epoch,
                    sigma=batch_threshold(batch.pos, hyper.beta),
                    mean_weight=mean_w,
                    t=state.t,
                    loss=value,
                )
            )
            step += 1
    return FinetuneResult(encoder=enc, momentum_history=history, audit=audit)


def _step_loss_and_gradients(
    batch: ContrastiveBatch,
    enc: ToyEncoder,
    state: MomentumState,
    hyper: HyperParams,
    loss_mode: str,
    reduction: str,
):
    """One batch's loss value, mean positive weight, and parameter gradients."""
    if loss_mode == "progressive":
        sigma = batch_threshold(batch.pos, hyper.beta)
        value, record = progressive_loss(
            batch.pos,
            batch.neg,
            sigma,
            state.t,
            hyper.tau,
            neg_mask=batch.neg_mask,
            reduction=reduction,
        )
        weights, scales = record.weights, record.scales
    else:
        value = info_nce(
            batch.pos, batch.neg, hyper.tau, neg_mask=batch.neg_mask, reduction=reduction
        )
        weights, scales = np.ones(batch.size), np.ones(batch.neg.shape)
    # slot i of the pool is query i's positive and may also be a negative
    # for other queries; its gradient row carries both roles
    query_grad, cand_grad = _pool_gradients(
        batch.query_embs,
        batch.cand_embs,
        batch.neg_mask,
        weights,
        scales,
        hyper.tau,
        reduction,
    )

    enc_grads = {
        "token_table": np.zeros_like(enc.token_table),
        "projection": np.zeros_like(enc.projection),
    }
    for fwd, d_emb in zip(batch.query_forward, query_grad):
        _encode_backward(enc, fwd.seq, fwd.pooled, fwd.u_norm, fwd.emb, d_emb, enc_grads)
    for fwd, d_emb in zip(batch.cand_forward, cand_grad):
        _encode_backward(enc, fwd.seq, fwd.pooled, fwd.u_norm, fwd.emb, d_emb, enc_grads)
    return value, float(np.mean(weights)), enc_grads
