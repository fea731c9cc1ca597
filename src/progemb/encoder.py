"""Toy trainable text encoder, masked-reconstruction decoder, and checkpoints.

The encoder is deliberately the smallest model that makes contrastive
geometry nontrivial while keeping every gradient hand-derivable: token
embeddings are mean-pooled, passed through one linear projection, and
L2-normalized. The decoder reconstructs each clean token from the corrupted
text's embedding plus a learned position row.

A `Tokenizer`'s vocabulary is every token of the texts it is built from.
Tokens have one form: a `Tokens` store, N rows as one flat id array plus
lengths, built by `Tokenizer.encode_texts`. `encode_batch` checks a store's
ids once, pools by segment sums, then projects and normalizes all rows;
`_encode_backward` is one projection matmul and one token-table scatter-add.
`corrupt` masks a whole store, one seed per row. `_mae_forward_backward`
uses that a token's logits are its sequence's row plus its position's row:
it scores a chunk of N sequences and L positions from (N + L)-row products
over vocabulary column blocks of at most MAE_BLOCK entries, not from its T
token rows. It returns the chunk's losses, then hands out the decoder's
gradient and then the encoder's through one reused buffer, so pretraining
can update each model in place as its gradient arrives. Each model's
parameters are one float64 vector, `params`, whose views are its named
matrices; a gradient is the same model type over a zeroed vector.
`encode` takes a one-row store.

`encode_batch` and `_encode_backward` walk a store in token blocks:
consecutive row ranges of at most SCATTER_BLOCK // d tokens, a row never
split. The forward gathers, and the backward repeats the pooled gradient
over, one block's (tokens, d) rows at a time, never the whole store's T
rows. Each row's segment sum and the order of the scatter's updates are
those of a whole-store pass, so results are bit-identical.

A checkpoint is framed by `progemb._files`, as the passage embeddings are:
`_files.write_binary` and `_files.read_binary` write and read it, one
block per model, and `load_checkpoint` adds only the header checks.
"""

from __future__ import annotations

import math
import reprlib
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from ._files import read_binary, write_binary

__all__ = [
    "PAD_ID",
    "MASK_ID",
    "Tokens",
    "Tokenizer",
    "ToyEncoder",
    "MaeDecoder",
    "EncodedBatch",
    "encode",
    "encode_batch",
    "corrupt",
    "save_checkpoint",
    "load_checkpoint",
    "Checkpoint",
]

PAD_ID = 0
MASK_ID = 1
_RESERVED = ("<pad>", "<mask>")

# entries per decoder column block, (N + L) rows by cols (256 KB of float64)
MAE_BLOCK = 1 << 15
# entries per flat scatter index block (64 KB of intp), and tokens × d
# entries per encoder token block
SCATTER_BLOCK = 1 << 13
# a factored softmax sum below this may have lost its leading terms to underflow
_MIN_SUM = 2.0 ** -900

CHECKPOINT_MAGIC = "checkpoint"
CHECKPOINT_VERSION = 1
# the header's keys and their exact JSON types, checked by `_files.check_header`
_HEADER_TYPES = {"vocab_size": int, "dim": int, "max_positions": int,
                 "vocab": list[str], "has_decoder": bool}


@dataclass(frozen=True, eq=False)
class Tokens:
    """N token sequences as one flat id array plus lengths: row i is
    ids[starts[i] : starts[i] + lengths[i]]. `encode_batch` checks the ids."""

    ids: np.ndarray       # (T,) intp, sequence after sequence
    lengths: np.ndarray   # (N,) intp

    def __len__(self) -> int:
        return len(self.lengths)

    @cached_property
    def starts(self) -> np.ndarray:
        return np.cumsum(self.lengths) - self.lengths

    def take(self, rows) -> "Tokens":
        """The store of the given rows, in order; rows may repeat."""
        rows = np.asarray(rows, dtype=np.intp)
        lengths = self.lengths[rows]
        shift = self.starts[rows] - (np.cumsum(lengths) - lengths)
        return Tokens(self.ids[np.arange(lengths.sum()) + np.repeat(shift, lengths)], lengths)

    @staticmethod
    def concat(stores) -> "Tokens":
        ids, lengths = zip(*((s.ids, s.lengths) for s in stores))
        return Tokens(np.concatenate(ids), np.concatenate(lengths))


@dataclass(frozen=True)
class Tokenizer:
    """Whitespace tokenizer over a fixed vocabulary.

    Ids 0 and 1 are reserved for padding and the mask token. The rest are
    every token of the texts the vocabulary was built from, by descending
    count, ties broken by token string, so a rebuilt vocabulary over the
    same texts is identical.
    """

    id_to_token: tuple[str, ...]

    @classmethod
    def from_texts(cls, texts) -> "Tokenizer":
        """The vocabulary of every whitespace token of an iterable of texts."""
        counts = Counter()
        for text in texts:
            counts.update(text.split())
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return cls(id_to_token=_RESERVED + tuple(tok for tok, _ in ordered))

    @property
    def vocab_size(self) -> int:
        return len(self.id_to_token)

    @cached_property
    def _lookup(self) -> dict[str, int]:
        return {tok: i for i, tok in enumerate(self.id_to_token)}

    def encode_texts(self, texts, max_len: int = 0) -> Tokens:
        """One store row per text, truncated to max_len when positive.

        Raises:
            ValueError: on the first empty text or out-of-vocabulary token;
                the latter names the token and the text.
        """
        table = self._lookup
        ids, lengths = [], []
        for text in texts:
            words = text.split()
            if not words:
                raise ValueError("cannot tokenize empty text")
            if max_len > 0:
                words = words[:max_len]
            try:
                ids.extend([table[w] for w in words])
            except KeyError as exc:
                raise ValueError(
                    f"token not in vocabulary: {exc.args[0]!r} (in {reprlib.repr(text)})"
                ) from None
            lengths.append(len(words))
        return Tokens(np.array(ids, dtype=np.intp), np.array(lengths, dtype=np.intp))

    def encode_text(self, text: str, max_len: int = 0) -> Tokens:
        """A one-row store of text; see encode_texts."""
        return self.encode_texts([text], max_len)


def _set_views(model, shapes: dict) -> None:
    """Set each named matrix of model to a C-ordered view of model.params:
    consecutive slices, in the order of shapes, that span the vector, so a
    vector of another length is a ValueError."""
    cuts = np.cumsum([math.prod(shape) for shape in shapes.values()])[:-1]
    for (name, shape), part in zip(shapes.items(), np.split(model.params, cuts)):
        object.__setattr__(model, name, part.reshape(shape))


@dataclass(frozen=True, eq=False)
class ToyEncoder:
    """Mean-pooled token embeddings -> linear projection -> L2 normalization.

    The parameters are one float64 vector, params: token_table, then
    projection, each a view of it. A gradient is a ToyEncoder over a
    zeroed vector of the same length."""

    params: np.ndarray   # (V * d + d * d,)
    vocab_size: int
    dim: int
    token_table: np.ndarray = field(init=False, repr=False)   # (V, d)
    projection: np.ndarray = field(init=False, repr=False)    # (d, d)

    def __post_init__(self):
        v, d = self.vocab_size, self.dim
        _set_views(self, {"token_table": (v, d), "projection": (d, d)})

    @classmethod
    def create(cls, vocab_size: int, dim: int, seed: int = 0) -> "ToyEncoder":
        if vocab_size < 2 or dim < 1:
            raise ValueError("need vocab_size >= 2 (reserved ids) and dim >= 1")
        rng = np.random.default_rng(seed)
        params = rng.normal(0.0, 1.0 / math.sqrt(dim), size=vocab_size * dim + dim * dim)
        return cls(params, vocab_size, dim)


@dataclass(frozen=True, eq=False)
class MaeDecoder:
    """Lightweight reconstruction head: per-position shift plus output matrix.

    The parameters are one float64 vector, params: position_table, then
    output, each a view of it."""

    params: np.ndarray   # (P * d + d * V,)
    max_positions: int
    dim: int
    vocab_size: int
    position_table: np.ndarray = field(init=False, repr=False)   # (P, d)
    output: np.ndarray = field(init=False, repr=False)           # (d, V)

    def __post_init__(self):
        p, d, v = self.max_positions, self.dim, self.vocab_size
        _set_views(self, {"position_table": (p, d), "output": (d, v)})

    @classmethod
    def create(cls, max_positions: int, dim: int, vocab_size: int, seed: int = 0) -> "MaeDecoder":
        if max_positions < 1:
            raise ValueError("need max_positions >= 1")
        dec = cls(np.zeros(max_positions * dim + dim * vocab_size), max_positions, dim, vocab_size)
        # zero output weights give exactly uniform logits at init
        rng = np.random.default_rng(seed)
        dec.position_table[...] = rng.normal(0.0, 0.1, size=dec.position_table.shape)
        return dec


@dataclass(frozen=True, eq=False)
class EncodedBatch:
    """Embeddings of N sequences plus what the backward pass needs."""

    embs: np.ndarray      # (N, d) unit rows
    pooled: np.ndarray    # (N, d) token means
    norms: np.ndarray     # (N,) norms of the projected means
    tokens: Tokens        # the N sequences


def _check_ids(enc: ToyEncoder, tokens: Tokens) -> None:
    """Reject an empty sequence and any id outside [0, vocab_size)."""
    if (tokens.lengths < 1).any():
        raise ValueError("token sequences must contain at least one token")
    bad = np.flatnonzero((tokens.ids < 0) | (tokens.ids >= enc.vocab_size))
    if bad.size:
        raise ValueError(
            f"token id {tokens.ids[bad[0]]} out of vocabulary (size {enc.vocab_size})"
        )


def _token_blocks(tokens: Tokens, dim: int):
    """Consecutive (row slice, token slice) ranges of the store, each of at
    most SCATTER_BLOCK // dim tokens; a row is never split, so a longer row
    is a range of its own."""
    starts, lengths = tokens.starts, tokens.lengths
    ends, cap = starts + lengths, max(1, SCATTER_BLOCK // dim)
    lo = 0
    while lo < len(lengths):
        hi = max(lo + 1, int(np.searchsorted(ends, starts[lo] + cap, side="right")))
        yield slice(lo, hi), slice(starts[lo], ends[hi - 1])
        lo = hi


def encode_batch(enc: ToyEncoder, tokens: Tokens) -> EncodedBatch:
    """Embed the N rows of a store at once: segment mean, projection, normalize."""
    _check_ids(enc, tokens)
    pooled = np.empty((len(tokens), enc.dim))
    for rows, span in _token_blocks(tokens, enc.dim):
        pooled[rows] = np.add.reduceat(
            enc.token_table[tokens.ids[span]], tokens.starts[rows] - span.start, axis=0
        )
    pooled /= tokens.lengths[:, None]
    u = pooled @ enc.projection
    norms = np.linalg.norm(u, axis=1)
    if (norms == 0.0).any():
        raise ValueError("encoder produced a zero-norm embedding")
    # u / inf would read as a zero row; a NaN norm carries on into the loss
    if np.isinf(norms).any():
        raise ValueError("encoder produced a non-finite embedding (infinite norm)")
    return EncodedBatch(u / norms[:, None], pooled, norms, tokens)


def encode(enc: ToyEncoder, tokens: Tokens) -> np.ndarray:
    """Embed a one-row store; the result is L2-normalized and deterministic."""
    return encode_batch(enc, tokens).embs[0]


def _scatter(ufunc, table: np.ndarray, index, values: np.ndarray) -> None:
    """``ufunc.at(table, index, values)`` for a 2-D table, as one flat 1-D
    ``ufunc.at``: row index[k] of the table takes row k of values.

    The flat updates run in the 2-D call's order, so the result is
    bit-identical, and they go through the table's strides, so a
    transposed view is updated in place. The flat index is built for
    SCATTER_BLOCK entries at a time.
    """
    item = table.itemsize
    row, col = table.strides[0] // item, table.strides[1] // item
    span = (table.shape[0] - 1) * row + (table.shape[1] - 1) * col + 1
    flat = np.lib.stride_tricks.as_strided(table, shape=(span,), strides=(item,))
    index, cols = np.asarray(index), np.arange(table.shape[1]) * col
    step = max(1, SCATTER_BLOCK // table.shape[1])
    for lo in range(0, len(index), step):
        at = index[lo : lo + step, None] * row + cols
        ufunc.at(flat, at.reshape(-1), values[lo : lo + step].reshape(-1))


def _encode_backward(enc: ToyEncoder, fwd: EncodedBatch, d_embs: np.ndarray, grad: ToyEncoder):
    """Write d(loss)/d(encoder params) into grad, a ToyEncoder of enc's
    shape, given d(loss)/d(embeddings), (N, d); reads enc's projection."""
    e = fwd.embs
    # through normalization: du = (I - ee^T) de / |u|, row by row, in one buffer
    du = (d_embs * e).sum(axis=1, keepdims=True) * e
    np.subtract(d_embs, du, out=du)
    du /= fwd.norms[:, None]
    d_pooled = du @ enc.projection.T
    lengths = fwd.tokens.lengths
    d_pooled /= lengths[:, None]
    grad.params.fill(0.0)
    grad.projection[...] += fwd.pooled.T @ du
    for rows, span in _token_blocks(fwd.tokens, enc.dim):
        _scatter(np.add, grad.token_table, fwd.tokens.ids[span],
                 np.repeat(d_pooled[rows], lengths[rows], axis=0))


def corrupt(tokens: Tokens, mask_ratio: float, seeds) -> Tokens:
    """Replace ceil(mask_ratio * len) positions of each row with the mask token.

    Row i's positions are drawn without replacement from a generator seeded
    with seeds[i], so the output is deterministic for given seeds.
    """
    if not 0.0 <= mask_ratio < 1.0:
        raise ValueError(f"mask_ratio must lie in [0, 1), got {mask_ratio}")
    ids, starts, lengths = tokens.ids.copy(), tokens.starts.tolist(), tokens.lengths.tolist()
    for start, length, seed in zip(starts, lengths, seeds, strict=True):
        n_mask = math.ceil(mask_ratio * length)
        if n_mask:
            rng = np.random.default_rng(seed)
            ids[start + rng.choice(length, size=n_mask, replace=False)] = MASK_ID
    return Tokens(ids, tokens.lengths)


def _mae_forward_backward(enc, dec, clean: Tokens, corrupted: Tokens):
    """Per-row losses, then the gradients of their sum, streamed.

    Returns (losses, gradients): the losses are final, and the gradients
    are an iterator of the decoder's gradient, a MaeDecoder, then the
    encoder's, a ToyEncoder. Both are built over one buffer the size of the
    larger parameter vector, so each is valid until the next is drawn. The
    caller may scale a gradient in place and update its model in place
    before drawing the next: the kernel reads no parameter of a model after
    handing out that model's gradient.

    One encoder forward and backward per chunk. x stacks the N embeddings
    over the first L position rows, and token (i, p)'s logits are
    x[i] W + x[N + p] W. With e = exp(x W - m) for the row maxima m of x W,
    the split into e_a = e[:N] and e_b = e[N:] gives:
    - token (i, p)'s softmax sum, S[i, p] = e_a[i] . e_b[p];
    - its loss, log S[i, p] + m[i] + m[N + p] - its target's logit;
    - its probabilities summed over positions, e_a * (R @ e_b), and over
      sequences, e_b * (R^T @ e_a), with R = 1 / S on the chunk's tokens.
    Stacked as P, these give the output gradient x^T P and the input
    gradient P W^T, minus the one-hot parts. The vocabulary is walked twice
    in column blocks of at most MAE_BLOCK (N + L, cols) entries: first to
    accumulate S, rescaled online as the maxima grow, then to write P's
    products. A token whose S falls below _MIN_SUM may have lost its
    leading terms to underflow; it takes its own row softmax instead.
    """
    for n, m in zip(clean.lengths.tolist(), corrupted.lengths.tolist(), strict=True):
        if n != m:
            raise ValueError(f"clean and corrupted lengths differ: {n} vs {m}")
        if n > dec.max_positions:
            raise ValueError(f"sequence length {n} exceeds decoder positions {dec.max_positions}")
    _check_ids(enc, clean)
    targets, lengths, starts = clean.ids, clean.lengths, clean.starts
    fwd = encode_batch(enc, corrupted)
    buf = np.empty(max(enc.params.size, dec.params.size))
    d_dec = replace(dec, params=buf[: dec.params.size])
    # the output gradient is written whole by the second pass
    d_dec.position_table.fill(0.0)
    n, w, d_output = len(lengths), dec.output, d_dec.output
    seqs = np.repeat(np.arange(n), lengths)
    positions = np.arange(len(targets)) - np.repeat(starts, lengths)
    x = np.concatenate([fwd.embs, dec.position_table[: lengths.max()]])
    cols = max(1, MAE_BLOCK // len(x))
    blocks = [slice(lo, lo + cols) for lo in range(0, w.shape[1], cols)]
    m, s = np.full(len(x), -np.inf), np.zeros((n, len(x) - n))
    for blk in blocks:
        e = x @ w[:, blk]
        top = np.maximum(m, e.max(axis=1))
        shrink, m = np.exp(m - top), top
        s *= shrink[:n, None] * shrink[None, n:]
        e -= m[:, None]
        np.exp(e, out=e)
        s += e[:n] @ e[n:].T
    sums = s[seqs, positions]
    factored = sums >= _MIN_SUM
    r = np.zeros_like(s)
    r[seqs[factored], positions[factored]] = 1.0 / sums[factored]
    dx = np.zeros_like(x)
    for blk in blocks:
        e = x @ w[:, blk]
        e -= m[:, None]
        np.exp(e, out=e)
        to_seqs, to_positions = r @ e[n:], r.T @ e[:n]
        e[:n] *= to_seqs
        e[n:] *= to_positions
        np.matmul(x.T, e, out=d_output[:, blk])
        dx += e @ w[:, blk].T
        # the next block's arrays are made after this block's are freed
        del e, to_seqs, to_positions
    z = x[seqs] + x[n + positions]
    w_targets = w.T[targets]
    picked = np.einsum("td,td->t", z, w_targets)
    row_losses = np.empty(len(targets))
    row_losses[factored] = (np.log(sums[factored]) + m[seqs[factored]]
                            + m[n + positions[factored]] - picked[factored])
    # each token's input gradient beyond dx: its one-hot part, plus its softmax if direct
    dz = -w_targets
    direct = np.flatnonzero(~factored)
    step = max(1, MAE_BLOCK // w.shape[1])
    for lo in range(0, len(direct), step):
        rows = direct[lo : lo + step]
        e = z[rows] @ w
        top = e.max(axis=1, keepdims=True)
        e -= top
        np.exp(e, out=e)
        total = e.sum(axis=1, keepdims=True)
        e /= total
        row_losses[rows] = np.log(total[:, 0]) + top[:, 0] - picked[rows]
        d_output += z[rows].T @ e
        dz[rows] += e @ w.T
    # the output gradient's one-hot part, once for the whole chunk
    _scatter(np.subtract, d_output.T, targets, z)
    _scatter(np.add, dx, n + positions, dz)
    d_dec.position_table[: len(x) - n] += dx[n:]
    d_embs = dx[:n] + np.add.reduceat(dz, starts, axis=0)

    def gradients():
        yield d_dec
        d_enc = replace(enc, params=buf[: enc.params.size])
        _encode_backward(enc, fwd, d_embs, d_enc)
        yield d_enc

    return np.add.reduceat(row_losses, starts).tolist(), gradients()


@dataclass(eq=False)
class Checkpoint:
    encoder: ToyEncoder
    tokenizer: Tokenizer
    decoder: MaeDecoder | None = None


def save_checkpoint(path, encoder: ToyEncoder, tokenizer: Tokenizer, decoder: MaeDecoder | None = None):
    """Write a versioned checkpoint.

    Layout: one ASCII header line of JSON (format, version, vocab, shapes),
    then the encoder's parameter vector and, when a decoder is present, the
    decoder's, as raw little-endian float64: token_table, projection,
    position_table, output, each in C order. The encoding is canonical:
    saving a freshly loaded checkpoint reproduces the file byte for byte.
    The file is replaced atomically: a failed save leaves the previous one.
    """
    if tokenizer.vocab_size != encoder.vocab_size:
        raise ValueError(
            f"tokenizer vocab ({tokenizer.vocab_size}) does not match encoder ({encoder.vocab_size})"
        )
    fields = {
        "vocab_size": encoder.vocab_size,
        "dim": encoder.dim,
        "max_positions": decoder.max_positions if decoder is not None else 0,
        "has_decoder": decoder is not None,
        "vocab": list(tokenizer.id_to_token),
    }
    blocks = [encoder.params] + ([decoder.params] if decoder is not None else [])
    write_binary(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, fields, blocks)


def load_checkpoint(path) -> Checkpoint:
    def shapes(head):
        v, d, p = head["vocab_size"], head["dim"], head["max_positions"]
        if len(head["vocab"]) != v:
            raise ValueError(f"{path}: vocab length {len(head['vocab'])} does not match "
                             f"vocab_size {v}")
        dims = {"vocab_size": v, "dim": d, **({"max_positions": p} if head["has_decoder"] else {})}
        # checked before the products: two negative dims make a positive size,
        # and a zero dim would load and fail only at the first encode
        if (low := min(dims.values())) < 1:
            raise ValueError(f"{path}: {'negative' if low < 0 else 'zero'} matrix shape in {dims}")
        return [(v * d + d * d,), *([(p * d + d * v,)] if head["has_decoder"] else [])]

    head, blocks = read_binary(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, _HEADER_TYPES, shapes)
    v, d = head["vocab_size"], head["dim"]
    decoder = MaeDecoder(blocks[1], head["max_positions"], d, v) if head["has_decoder"] else None
    return Checkpoint(encoder=ToyEncoder(blocks[0], v, d),
                      tokenizer=Tokenizer(id_to_token=tuple(head["vocab"])), decoder=decoder)
