"""Batch assembly and the pretraining / fine-tuning loops.

The fine-tuning set and the pretraining corpus are rows of one token store,
tokenized once by the caller. A `TrainingSet` holds each example's query
row and its candidate rows (the positive, then up to five hard negatives)
as integer arrays, so a batch is integer indexing. Fine-tuning shares
negatives in-batch: each query's negative pool is every other query's
positive plus every hard negative brought by any query in the batch. A
candidate whose store row is the query's own positive's row is excluded
from that query's pool, which the batch's integer row codes encode. The
step takes the positives' similarities and the batch threshold once from
the encoder's unit rows, and scores the pool once, in blocks of query rows
sized by a budget of (rows, M) entries, so no (B, M) array lives longer
than one block and a block's arrays stay near that budget. The step's loss is the batch mean.
The optimizer writes into each model's one parameter vector: fine-tuning
fills one gradient vector per run, and pretraining steps the decoder, then
the encoder, as the MAE kernel hands out each one's gradient from one
buffer, so no whole gradient set is held.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataio import MAX_NEGATIVES, StepAudit
from .encoder import (
    EncodedBatch,
    MaeDecoder,
    Tokens,
    ToyEncoder,
    _encode_backward,
    _mae_forward_backward,
    _scatter,
    corrupt,
    encode_batch,
)
from .loss import (
    HyperParams,
    MomentumState,
    batch_threshold,
    info_nce,
    progressive_loss,
    update_momentum,
)
from .optim import make_optimizer
from .similarity import sim_matrix  # noqa: F401

__all__ = [
    "TrainingSet",
    "ContrastiveBatch",
    "FinetuneResult",
    "build_batch",
    "pretrain",
    "finetune",
]

# (rows, M) entries per step block: a block is max(STEP_MIN_ROWS,
# STEP_ENTRIES // M) query rows, so each of its arrays is near 256 KB of
# float64 until M is so large that the floor keeps the block a matrix product
STEP_ENTRIES = 1 << 15
STEP_MIN_ROWS = 16


@dataclass(frozen=True, eq=False)
class TrainingSet:
    """Fine-tuning examples as rows of one token store.

    Example i's query is row queries[i]; candidates[i] holds its positive's
    row, then its hard negatives' rows, padded with -1: distinct rows other
    than the positive's, as `dataio.read_dataset` checks a dataset's rows.
    The CLI's sets put every query row after every candidate row; a set
    that uses a query row as a candidate too gives both roles one forward
    row in a batch."""

    queries: np.ndarray      # (N,) intp
    candidates: np.ndarray   # (N, 1 + MAX_NEGATIVES) intp

    def __len__(self) -> int:
        return len(self.queries)


@dataclass(eq=False)
class ContrastiveBatch:
    """A batch's forward pass and where each query and slot sits in it.

    rows[:B] are the queries' forward rows and rows[B:] the slots'; a
    forward row codes its store row, so slot j is not a negative of query i
    when rows[B + j] equals rows[B + i]."""

    forward: EncodedBatch      # each distinct store row, the queries' first
    rows: np.ndarray           # (B + M,) forward row of each query, then each slot
    cand_embs: np.ndarray      # (M, d) forward.embs[rows[B:]]; slots [:B] are the positives

    @property
    def size(self) -> int:
        return len(self.rows) - len(self.cand_embs)


def _first_appearance(keys: np.ndarray):
    """Each key's code, numbered by first appearance, and the distinct keys in that order."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return np.argsort(order)[inverse], keys[first[order]]


def build_batch(data: TrainingSet, index, tokens: Tokens, enc: ToyEncoder) -> ContrastiveBatch:
    """Encode examples data[index] and assemble their shared candidate pool.

    The candidate pool is all positives followed by all hard negatives, in
    example order. Slots are coded by store row: slot j is not one of query
    i's negatives when its code equals slot i's; the diagonal slot is the
    query's own positive, and any further match is a duplicate. Each
    distinct store row is encoded once, in one call, numbered by first
    appearance over the queries, then the slots. No similarity is formed
    here: the step scores the pool block by block.
    """
    if len(index) == 0:
        raise ValueError("build_batch needs a nonempty batch")
    size = len(index)
    queries = data.queries[index]
    negatives = data.candidates[index, 1:]
    # slots [:B] hold the positives
    pool = np.concatenate([data.candidates[index, 0], negatives[negatives >= 0]])
    rows, distinct = _first_appearance(np.concatenate([queries, pool]))
    forward = encode_batch(enc, tokens.take(distinct))
    return ContrastiveBatch(forward=forward, rows=rows, cand_embs=forward.embs[rows[size:]])


def pretrain(
    corpus: Tokens,
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
) -> list[float]:
    """Train encoder and decoder in place on masked reconstruction, and
    return each epoch's mean per-sequence loss.

    Per batch of corpus rows the objective is the mean reconstruction loss
    on a freshly corrupted copy. Deterministic for a given seed. A
    non-finite loss or updated parameter stops the run with a step-located
    ValueError.
    """
    if len(corpus) == 0:
        raise ValueError("pretrain needs a nonempty corpus")
    if epochs < 0 or batch_size < 1:
        raise ValueError("epochs must be >= 0 and batch_size >= 1")
    rng = np.random.default_rng(seed)
    opt = make_optimizer(optimizer, lr, weight_decay)
    epoch_losses: list[float] = []
    step = 0
    for epoch in range(epochs):
        order = rng.permutation(len(corpus))
        losses = []
        for start in range(0, len(order), batch_size):
            clean = corpus.take(order[start : start + batch_size])
            corrupted = corrupt(clean, mask_ratio, rng.integers(0, 2**63 - 1, size=len(clean)))
            try:
                chunk_losses = _mae_step(enc, dec, opt, clean, corrupted)
            except ValueError as exc:
                raise ValueError(f"pretrain step {step} (epoch {epoch}): {exc}") from exc
            losses.extend(chunk_losses)
            step += 1
        epoch_losses.append(float(np.mean(losses)))
    return epoch_losses


def _mae_step(enc, dec, opt, clean: Tokens, corrupted: Tokens) -> list[float]:
    """One pretraining chunk: its losses are checked before any update, then
    the decoder and the encoder each take their step as soon as their
    gradient is handed out; the optimizer refuses an update that leaves a
    non-finite parameter. The kernel's gradient buffer dies on return,
    before the next chunk's."""
    chunk_losses, grads = _mae_forward_backward(enc, dec, clean, corrupted)
    if not np.isfinite(chunk_losses).all():
        raise ValueError("non-finite reconstruction loss")
    for name, model, grad in zip(("decoder", "encoder"), (dec, enc), grads, strict=True):
        grad.params[...] /= len(clean)
        opt.step({name: model.params}, {name: grad.params})
    return chunk_losses


@dataclass
class FinetuneResult:
    state: MomentumState
    audit: list[StepAudit]


def finetune(
    dataset,
    tokens: Tokens,
    enc: ToyEncoder,
    hyper: HyperParams,
    epochs: int,
    *,
    batch_size: int = 32,
    lr: float = 2e-3,
    weight_decay: float = 0.0,
    optimizer: str = "adamw",
    loss_mode: str = "progressive",
    seed: int = 0,
    initial_state: MomentumState = MomentumState(),
) -> FinetuneResult:
    """Contrastive fine-tuning of enc, in place, with in-batch shared negatives.

    Each step: build the batch, derive sigma / weights / scales from its
    similarities, take one optimizer step on the frozen-coefficient loss,
    then fold the batch's mean positive similarity into the momentum bias.
    Deterministic for a given seed. A non-finite loss or updated parameter
    stops the run with a step-located ValueError. The result holds each
    step's audit and the momentum state after the last step, from which a
    later run resumes.
    """
    if len(dataset) == 0:
        raise ValueError("finetune needs a nonempty dataset")
    if loss_mode not in ("progressive", "infonce"):
        raise ValueError(f"unknown loss_mode {loss_mode!r}")
    if epochs < 0 or batch_size < 1:
        raise ValueError("epochs must be >= 0 and batch_size >= 1")
    rng = np.random.default_rng(seed)
    opt = make_optimizer(optimizer, lr, weight_decay)
    state = initial_state
    grad = replace(enc, params=np.zeros_like(enc.params))
    audit: list[StepAudit] = []
    step = 0
    for epoch in range(epochs):
        order = rng.permutation(len(dataset))
        for start in range(0, len(order), batch_size):
            try:
                batch = build_batch(dataset, order[start : start + batch_size], tokens, enc)
                value, pos, mean_w, sigma = _step_loss_and_gradients(
                    batch, enc, state, hyper, loss_mode, grad
                )
                if not np.isfinite(value):
                    raise ValueError("non-finite contrastive loss")
                opt.step({"encoder": enc.params}, {"encoder": grad.params})
            except ValueError as exc:
                raise ValueError(f"fine-tune step {step} (epoch {epoch}): {exc}") from exc
            state = update_momentum(state, pos, hyper.alpha)
            audit.append(
                StepAudit(
                    step=step,
                    epoch=epoch,
                    sigma=sigma,
                    mean_weight=mean_w,
                    t=state.t,
                    loss=value,
                )
            )
            step += 1
    return FinetuneResult(state=state, audit=audit)


def _step_loss_and_gradients(
    batch: ContrastiveBatch,
    enc: ToyEncoder,
    state: MomentumState,
    hyper: HyperParams,
    loss_mode: str,
    grad: ToyEncoder,
):
    """One batch's mean loss value, positive similarities, mean positive
    weight and threshold sigma; the parameter gradient of the mean loss is
    written into grad, a ToyEncoder of enc's shape, so a run reuses one
    vector.

    Uq and Uc are the forward's rows of the queries and the pool, which
    `encode_batch` made unit and zero-checked: the products and the
    gradients take them as they are. pos[i] is the clipped einsum product of Uq[i] and its
    positive's row Uc[i], the scores top-k gives, and sigma = mean(pos) -
    beta is taken from it before any block is scored; the momentum update
    and the audit read the same pos and sigma. Query rows are then walked
    in blocks of max(STEP_MIN_ROWS, STEP_ENTRIES // M), each scored once:
    a block's cosines S_b = Uq[b] Uc^T, clipped, with query i's positive
    at slot i and its negatives where the slot's code differs from its
    positive's, go through the loss kernel, which gives dL/dS_b. The
    positive the kernel weighs the negatives against is S_b's own
    diagonal, which differs from pos in its last bits at most: a negative
    that copies the positive's embedding comes from the same product, so
    it ties the positive and counts as a hard negative, as the paper's
    rule (at least as similar as the positive) says. The positive's
    derivative adds onto that diagonal, which the mask keeps out of the
    negatives. Through the product that is dL/dS_b Uc for the block's
    queries and dL/dS_b^T Uq[b], summed over blocks, for the slots; a slot
    that is one query's positive and another's negative carries both
    roles. The encoder's backward projects onto the unit sphere, which is
    the rest of the cosine's chain rule. The blocks' losses are sums, and
    the batch's 1/B is applied once, to the value and the slot gradients.
    """
    value, pos, mean_w, sigma, d_embs = _embedding_gradients(batch, state, hyper, loss_mode)
    _encode_backward(enc, batch.forward, d_embs, grad)
    return value, pos, mean_w, sigma


def _embedding_gradients(batch, state, hyper, loss_mode):
    """The step's mean loss value, pos, mean positive weight, sigma and
    dL/d(forward embeddings), each distinct sequence's slot gradients
    summed. The blocks' buffers are freed on return, before the encoder's
    backward."""
    size, uc = batch.size, batch.cand_embs
    uq, codes = batch.forward.embs[batch.rows[:size]], batch.rows[size:]
    pos = np.clip(np.einsum("nd,nd->n", uq, uc[:size]), -1.0, 1.0)
    sigma = batch_threshold(pos, hyper.beta)
    rows = max(STEP_MIN_ROWS, STEP_ENTRIES // len(uc))
    # the blocks reuse one buffer for their cosines and one for their slots'
    # term, added in spans of STEP_ENTRIES // d slots: arrays made afresh per
    # block were given back to the OS and faulted in again every block
    width = max(1, STEP_ENTRIES // uc.shape[1])
    spans = [slice(lo, min(lo + width, len(uc))) for lo in range(0, len(uc), width)]
    sims = np.empty((min(rows, size), len(uc)))
    term = np.empty((min(width, len(uc)), uc.shape[1]))
    slot_grads = np.zeros((size + len(uc), uc.shape[1]))
    value, weights = 0.0, []
    for lo in range(0, size, rows):
        blk = slice(lo, min(lo + rows, size))
        diag = np.arange(blk.stop - lo), np.arange(lo, blk.stop)
        block_sims = np.matmul(uq[blk], uc.T, out=sims[: blk.stop - lo])
        np.clip(block_sims, -1.0, 1.0, out=block_sims)
        mask = codes[blk, None] != codes
        # the positive of the same product as the negatives, so a copy ties it
        block_pos = block_sims[diag]
        if loss_mode == "progressive":
            block_value, record = progressive_loss(
                block_pos, block_sims, sigma, state.t, hyper.tau, neg_mask=mask
            )
        else:
            block_value, record = info_nce(block_pos, block_sims, hyper.tau, neg_mask=mask)
        value += block_value
        weights.append(record.weights)
        d_sims = record.grad_neg
        d_sims[diag] += record.grad_pos
        np.matmul(d_sims, uc, out=slot_grads[blk])
        for span in spans:
            part = np.matmul(d_sims[:, span].T, uq[blk], out=term[: span.stop - span.start])
            slot_grads[size:][span] += part
        # the next block's kernel arrays are made after this block's are freed
        del record, d_sims
    value /= size
    slot_grads /= size
    d_embs = np.zeros_like(batch.forward.embs)
    _scatter(np.add, d_embs, batch.rows, slot_grads)
    return value, pos, float(np.mean(np.concatenate(weights))), sigma, d_embs
