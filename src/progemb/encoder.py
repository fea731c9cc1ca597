"""Toy trainable text encoder, masked-reconstruction decoder, and checkpoints.

The encoder is deliberately the smallest model that makes contrastive
geometry nontrivial while keeping every gradient hand-derivable: token
embeddings are mean-pooled, passed through one linear projection, and
L2-normalized. The decoder reconstructs each clean token from the corrupted
text's embedding plus a learned position row.

Tokens have one form: a `Tokens` store, N rows as one flat id array plus
lengths, built by `Tokenizer.encode_texts`. `encode_batch` checks a store's
ids once, pools by segment sums, then projects and normalizes all rows;
`_encode_backward` is one projection matmul and one token-table scatter-add.
`corrupt` masks a whole store, one seed per row. `_mae_forward_backward`
uses that a token's logits are its sequence's row plus its position's row:
it scores a chunk of N sequences and L positions from (N + L)-row products
over vocabulary column blocks of at most MAE_BLOCK entries, not from its T
token rows. `encode` and `mae_loss` take one-row stores.

`encode_batch` and `_encode_backward` walk a store in token blocks:
consecutive row ranges of at most SCATTER_BLOCK // d tokens, a row never
split. The forward gathers, and the backward repeats the pooled gradient
over, one block's (tokens, d) rows at a time, never the whole store's T
rows. Each row's segment sum and the order of the scatter's updates are
those of a whole-store pass, so results are bit-identical.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

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
    "mae_loss",
    "save_checkpoint",
    "load_checkpoint",
    "Checkpoint",
]

PAD_ID = 0
MASK_ID = 1
_RESERVED = ("<pad>", "<mask>")

# entries per decoder column block, (N + L) rows by cols (256 KB of float64)
MAE_BLOCK = 1 << 15
# entries per flat scatter index block (512 KB of intp), and tokens × d
# entries per encoder token block
SCATTER_BLOCK = 1 << 16
# a factored softmax sum below this may have lost its leading terms to underflow
_MIN_SUM = 2.0 ** -900

CHECKPOINT_MAGIC = "checkpoint"
CHECKPOINT_VERSION = 1
# exact JSON types of the header's shape keys; `type(...) is int` refuses a bool
_HEADER_TYPES = {"vocab_size": int, "dim": int, "max_positions": int,
                 "vocab": list, "has_decoder": bool}


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

    Ids 0 and 1 are reserved for padding and the mask token. Remaining ids
    are assigned by descending corpus frequency, ties broken by token
    string, so a rebuilt vocabulary over the same corpus is identical.
    """

    id_to_token: tuple[str, ...]

    @classmethod
    def from_texts(cls, texts, extra_texts=(), limit: int = 0) -> "Tokenizer":
        """Build a vocabulary from an iterable of texts.

        Args:
            texts: corpus lines; split on whitespace.
            extra_texts: additional texts whose tokens must be encodable
                (e.g. a query instruction prefix).
            limit: keep only the `limit` most frequent tokens (0 = keep all);
                tokens from extra_texts are always kept.
        """
        counts = Counter()
        for text in texts:
            counts.update(text.split())
        extra_tokens = set()
        for text in extra_texts:
            extra_tokens.update(text.split())
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if limit > 0:
            kept = [tok for tok, _ in ordered[:limit]]
        else:
            kept = [tok for tok, _ in ordered]
        for tok in sorted(extra_tokens):
            if tok not in counts or (limit > 0 and tok not in kept):
                kept.append(tok)
        return cls(id_to_token=_RESERVED + tuple(kept))

    @property
    def vocab_size(self) -> int:
        return len(self.id_to_token)

    @cached_property
    def _lookup(self) -> dict[str, int]:
        return {tok: i for i, tok in enumerate(self.id_to_token)}

    def encode_texts(self, texts, max_len: int = 0) -> Tokens:
        """One store row per text, truncated to max_len when positive.

        Raises:
            ValueError: on the first empty text or out-of-vocabulary token.
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
                raise ValueError(f"token not in vocabulary: {exc.args[0]!r}") from None
            lengths.append(len(words))
        return Tokens(np.array(ids, dtype=np.intp), np.array(lengths, dtype=np.intp))

    def encode_text(self, text: str, max_len: int = 0) -> Tokens:
        """A one-row store of text; see encode_texts."""
        return self.encode_texts([text], max_len)

    def decode(self, tokens: Tokens) -> str:
        return " ".join(self.id_to_token[t] for t in tokens.ids)


@dataclass
class ToyEncoder:
    """Mean-pooled token embeddings -> linear projection -> L2 normalization."""

    token_table: np.ndarray   # (V, d)
    projection: np.ndarray    # (d, d)

    @property
    def vocab_size(self) -> int:
        return self.token_table.shape[0]

    @property
    def dim(self) -> int:
        return self.token_table.shape[1]

    @classmethod
    def create(cls, vocab_size: int, dim: int, seed: int = 0) -> "ToyEncoder":
        if vocab_size < 2 or dim < 1:
            raise ValueError("need vocab_size >= 2 (reserved ids) and dim >= 1")
        rng = np.random.default_rng(seed)
        scale = 1.0 / math.sqrt(dim)
        return cls(
            token_table=rng.normal(0.0, scale, size=(vocab_size, dim)),
            projection=rng.normal(0.0, scale, size=(dim, dim)),
        )

    def params(self) -> dict[str, np.ndarray]:
        return {"token_table": self.token_table, "projection": self.projection}

    def set_params(self, params: dict[str, np.ndarray]):
        self.token_table = params["token_table"]
        self.projection = params["projection"]


@dataclass
class MaeDecoder:
    """Lightweight reconstruction head: per-position shift plus output matrix."""

    position_table: np.ndarray   # (P, d)
    output: np.ndarray           # (d, V)

    @property
    def max_positions(self) -> int:
        return self.position_table.shape[0]

    @classmethod
    def create(cls, max_positions: int, dim: int, vocab_size: int, seed: int = 0) -> "MaeDecoder":
        if max_positions < 1:
            raise ValueError("need max_positions >= 1")
        rng = np.random.default_rng(seed)
        return cls(
            position_table=rng.normal(0.0, 0.1, size=(max_positions, dim)),
            # zero output weights give exactly uniform logits at init
            output=np.zeros((dim, vocab_size)),
        )

    def params(self) -> dict[str, np.ndarray]:
        return {"position_table": self.position_table, "output": self.output}

    def set_params(self, params: dict[str, np.ndarray]):
        self.position_table = params["position_table"]
        self.output = params["output"]


@dataclass(frozen=True)
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


def _encode_backward(enc: ToyEncoder, fwd: EncodedBatch, d_embs: np.ndarray, grads: dict):
    """Accumulate d(loss)/d(encoder params) given d(loss)/d(embeddings), (N, d)."""
    e, lengths = fwd.embs, fwd.tokens.lengths
    # through normalization: du = (I - ee^T) de / |u|, row by row
    du = (d_embs - (d_embs * e).sum(axis=1, keepdims=True) * e) / fwd.norms[:, None]
    grads["projection"] += fwd.pooled.T @ du
    d_pooled = (du @ enc.projection.T) / lengths[:, None]
    for rows, span in _token_blocks(fwd.tokens, enc.dim):
        _scatter(np.add, grads["token_table"], fwd.tokens.ids[span],
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


def mae_loss(enc: ToyEncoder, dec: MaeDecoder, clean: Tokens, corrupted: Tokens) -> float:
    """Reconstruction loss of a one-row store: sum of -log p(clean token).

    The corrupted sequence is embedded once; each position's logits are the
    output matrix applied to (embedding + position row).
    """
    losses, _ = _mae_forward_backward(enc, dec, clean, corrupted)
    return losses[0]


def _mae_forward_backward(enc, dec, clean: Tokens, corrupted: Tokens):
    """Per-row losses plus the gradients of their sum for all four matrices.

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
    grads = {name: np.zeros_like(p) for name, p in {**enc.params(), **dec.params()}.items()}
    n, w = len(lengths), dec.output
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
        grads["output"][:, blk] = x.T @ e
        dx += e @ w[:, blk].T
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
        grads["output"] += z[rows].T @ e
        dz[rows] += e @ w.T
    # the output gradient's one-hot part, once for the whole chunk
    _scatter(np.subtract, grads["output"].T, targets, z)
    _scatter(np.add, dx, n + positions, dz)
    grads["position_table"][: len(x) - n] += dx[n:]
    _encode_backward(enc, fwd, dx[:n] + np.add.reduceat(dz, starts, axis=0), grads)
    return np.add.reduceat(row_losses, starts).tolist(), grads


@dataclass
class Checkpoint:
    encoder: ToyEncoder
    tokenizer: Tokenizer
    decoder: MaeDecoder | None = None


@contextmanager
def _atomic_open(path, mode: str):
    """Open a temporary file beside ``path`` for writing. On a clean exit it
    replaces ``path`` in one ``os.replace``; on an error it is removed, so
    ``path`` keeps its previous content and no partial file is left."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(path, encoder: ToyEncoder, tokenizer: Tokenizer, decoder: MaeDecoder | None = None):
    """Write a versioned checkpoint.

    Layout: one ASCII header line of JSON (format, version, vocab, shapes),
    then the parameter matrices as raw little-endian float64 in C order, in
    the fixed order token_table, projection, and, when a decoder is present,
    position_table, output. The encoding is canonical: saving a freshly
    loaded checkpoint reproduces the file byte for byte. The file is
    replaced atomically: a failed save leaves the previous one.
    """
    if tokenizer.vocab_size != encoder.vocab_size:
        raise ValueError(
            f"tokenizer vocab ({tokenizer.vocab_size}) does not match encoder ({encoder.vocab_size})"
        )
    header = {
        "format": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "vocab_size": encoder.vocab_size,
        "dim": encoder.dim,
        "max_positions": decoder.max_positions if decoder is not None else 0,
        "has_decoder": decoder is not None,
        "vocab": list(tokenizer.id_to_token),
    }
    blocks = [encoder.token_table, encoder.projection]
    if decoder is not None:
        blocks += [decoder.position_table, decoder.output]
    with _atomic_open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for block in blocks:
            fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())


def load_checkpoint(path) -> Checkpoint:
    data = Path(path).read_bytes()
    newline = data.find(b"\n")
    if newline < 0:
        raise ValueError(f"not a checkpoint file (no header line): {path}")
    try:
        header = json.loads(data[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"corrupt checkpoint header in {path}: {exc}") from exc
    if not isinstance(header, dict):
        raise ValueError(f"corrupt checkpoint header in {path}: not a JSON object")
    if header.get("format") != CHECKPOINT_MAGIC:
        raise ValueError(f"not a checkpoint file: {path}")
    if header.get("version") != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {header.get('version')!r} in {path}"
        )
    keys = ["vocab_size", "dim", "vocab", "has_decoder"]
    if header.get("has_decoder"):
        keys.append("max_positions")
    for key in keys:
        if key not in header:
            raise ValueError(f"corrupt checkpoint header in {path}: no {key!r}")
    for key, kind in _HEADER_TYPES.items():
        if key in header and type(header[key]) is not kind:
            raise ValueError(f"corrupt checkpoint header in {path}: {key!r} must be "
                             f"{kind.__name__}, got {type(header[key]).__name__}")
    if not all(type(t) is str for t in header["vocab"]):
        raise ValueError(f"corrupt checkpoint header in {path}: 'vocab' holds a non-string")
    v, d = header["vocab_size"], header["dim"]
    vocab = tuple(header["vocab"])
    if len(vocab) != v:
        raise ValueError(f"vocab length {len(vocab)} does not match vocab_size {v}")
    body = data[newline + 1:]
    offset = 0

    def take(shape):
        nonlocal offset
        n = int(np.prod(shape))
        block = np.frombuffer(body, dtype="<f8", count=n, offset=offset * 8)
        offset += n
        return block.reshape(shape).astype(np.float64)

    expected = v * d + d * d
    if header["has_decoder"]:
        p = header["max_positions"]
        expected += p * d + d * v
    if len(body) != expected * 8:
        raise ValueError(
            f"checkpoint body has {len(body)} bytes, expected {expected * 8}"
        )
    encoder = ToyEncoder(token_table=take((v, d)), projection=take((d, d)))
    decoder = None
    if header["has_decoder"]:
        p = header["max_positions"]
        decoder = MaeDecoder(position_table=take((p, d)), output=take((d, v)))
    return Checkpoint(encoder=encoder, tokenizer=Tokenizer(id_to_token=vocab), decoder=decoder)
