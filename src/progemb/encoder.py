"""Toy trainable text encoder, masked-reconstruction decoder, and checkpoints.

The encoder is deliberately the smallest model that makes contrastive
geometry nontrivial while keeping every gradient hand-derivable: token
embeddings are mean-pooled, passed through one linear projection, and
L2-normalized. The decoder reconstructs each clean token from the corrupted
text's embedding plus a learned position row.

The one encoder path is batched: `encode_batch` pools a flat id array by
segment sums, then projects and normalizes all rows at once;
`_encode_backward` turns the batch's (N, d) embedding gradients into one
projection matmul and one token-table scatter-add. `encode` is a batch of one.
The decoder is batched too: `_mae_forward_backward` scores all token
positions of a chunk in row blocks of at most MAE_BLOCK logits, with one
exp per logit, and `mae_loss` is a batch of one.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "PAD_ID",
    "MASK_ID",
    "TokenSequence",
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

# logits per decoder row block (4 MB of float64); bounds the block's memory
MAE_BLOCK = 1 << 19

CHECKPOINT_MAGIC = "checkpoint"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class TokenSequence:
    """Immutable sequence of token ids; never empty."""

    tokens: tuple[int, ...]

    def __post_init__(self):
        if len(self.tokens) == 0:
            raise ValueError("TokenSequence must contain at least one token")
        if any((not isinstance(t, (int, np.integer))) or t < 0 for t in self.tokens):
            raise ValueError("token ids must be nonnegative integers")
        # canonicalize numpy ints so equality and hashing stay value-based
        object.__setattr__(self, "tokens", tuple(int(t) for t in self.tokens))

    def __len__(self) -> int:
        return len(self.tokens)


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

    def encode_text(self, text: str, max_len: int = 0) -> TokenSequence:
        """Tokenize text into ids, truncating to max_len when positive.

        Raises:
            ValueError: on an empty text or a token outside the vocabulary.
        """
        words = text.split()
        if not words:
            raise ValueError("cannot tokenize empty text")
        if max_len > 0:
            words = words[:max_len]
        table = self._lookup
        ids = []
        for w in words:
            if w not in table:
                raise ValueError(f"token not in vocabulary: {w!r}")
            ids.append(table[w])
        return TokenSequence(tokens=tuple(ids))

    def decode(self, seq: TokenSequence) -> str:
        return " ".join(self.id_to_token[t] for t in seq.tokens)


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
    ids: np.ndarray       # (T,) token ids, sequence after sequence
    lengths: np.ndarray   # (N,)


def _flat_ids(enc: ToyEncoder, seqs) -> tuple[np.ndarray, np.ndarray]:
    """Token ids as one flat array plus per-sequence lengths, vocab-checked."""
    lengths = np.array([len(s) for s in seqs], dtype=np.intp)
    ids = np.array([t for s in seqs for t in s.tokens], dtype=np.intp)
    bad = np.flatnonzero(ids >= enc.vocab_size)
    if bad.size:
        raise ValueError(
            f"token id {ids[bad[0]]} out of vocabulary (size {enc.vocab_size})"
        )
    return ids, lengths


def encode_batch(enc: ToyEncoder, seqs) -> EncodedBatch:
    """Embed N token sequences at once: segment mean, projection, normalize."""
    ids, lengths = _flat_ids(enc, seqs)
    starts = np.cumsum(lengths) - lengths
    pooled = np.add.reduceat(enc.token_table[ids], starts, axis=0) / lengths[:, None]
    u = pooled @ enc.projection
    norms = np.linalg.norm(u, axis=1)
    if (norms == 0.0).any():
        raise ValueError("encoder produced a zero-norm embedding")
    return EncodedBatch(u / norms[:, None], pooled, norms, ids, lengths)


def encode(enc: ToyEncoder, seq: TokenSequence) -> np.ndarray:
    """Embed a token sequence; the result is L2-normalized and deterministic."""
    return encode_batch(enc, [seq]).embs[0]


def _encode_backward(enc: ToyEncoder, fwd: EncodedBatch, d_embs: np.ndarray, grads: dict):
    """Accumulate d(loss)/d(encoder params) given d(loss)/d(embeddings), (N, d)."""
    e = fwd.embs
    # through normalization: du = (I - ee^T) de / |u|, row by row
    du = (d_embs - (d_embs * e).sum(axis=1, keepdims=True) * e) / fwd.norms[:, None]
    grads["projection"] += fwd.pooled.T @ du
    d_pooled = (du @ enc.projection.T) / fwd.lengths[:, None]
    np.add.at(grads["token_table"], fwd.ids, np.repeat(d_pooled, fwd.lengths, axis=0))


def corrupt(seq: TokenSequence, mask_ratio: float, seed) -> TokenSequence:
    """Replace ceil(mask_ratio * len) positions with the mask token.

    Positions are drawn without replacement from a seeded generator, so the
    output is deterministic for a given (seq, mask_ratio, seed).
    """
    if not 0.0 <= mask_ratio < 1.0:
        raise ValueError(f"mask_ratio must lie in [0, 1), got {mask_ratio}")
    n_mask = math.ceil(mask_ratio * len(seq))
    if n_mask == 0:
        return seq
    rng = np.random.default_rng(seed)
    positions = rng.choice(len(seq), size=n_mask, replace=False)
    tokens = list(seq.tokens)
    for pos in positions:
        tokens[int(pos)] = MASK_ID
    return TokenSequence(tokens=tuple(tokens))


def mae_loss(
    enc: ToyEncoder, dec: MaeDecoder, clean: TokenSequence, corrupted: TokenSequence
) -> float:
    """Reconstruction loss: sum over positions of -log p(clean token).

    The corrupted sequence is embedded once; each position's logits are the
    output matrix applied to (embedding + position row).
    """
    losses, _ = _mae_forward_backward(enc, dec, [clean], [corrupted])
    return losses[0]


def _mae_forward_backward(enc, dec, cleans, corrupteds):
    """Per-sequence losses plus the gradients of their sum for all four matrices.

    One encoder forward and backward per batch. The decoder takes all T token
    rows as one (T, d) input; per row block, 1/sum is folded into the (rows, d)
    operands of both gradient products, and the one-hot part comes after.
    """
    for clean, corrupted in zip(cleans, corrupteds, strict=True):
        if len(clean) != len(corrupted):
            raise ValueError(
                f"clean and corrupted lengths differ: {len(clean)} vs {len(corrupted)}"
            )
        if len(clean) > dec.max_positions:
            raise ValueError(
                f"sequence length {len(clean)} exceeds decoder positions "
                f"{dec.max_positions}"
            )
    targets, _ = _flat_ids(enc, cleans)
    fwd = encode_batch(enc, corrupteds)
    grads = {name: np.zeros_like(p) for name, p in {**enc.params(), **dec.params()}.items()}
    starts = np.cumsum(fwd.lengths) - fwd.lengths
    positions = np.arange(len(targets)) - np.repeat(starts, fwd.lengths)
    z = np.repeat(fwd.embs, fwd.lengths, axis=0) + dec.position_table[positions]
    w = dec.output
    step = max(1, MAE_BLOCK // w.shape[1])
    block = np.empty((min(step, len(z)), w.shape[1]))
    row_losses, dz = np.empty(len(z)), np.empty_like(z)
    for lo in range(0, len(z), step):
        hi = min(lo + step, len(z))
        zb, e = z[lo:hi], block[: hi - lo]
        np.matmul(zb, w, out=e)
        e -= e.max(axis=1, keepdims=True)
        picked = e[np.arange(hi - lo), targets[lo:hi]]
        np.exp(e, out=e)
        s = e.sum(axis=1)
        row_losses[lo:hi] = np.log(s) - picked
        grads["output"] += (zb / s[:, None]).T @ e
        dz[lo:hi] = (e @ w.T) / s[:, None]
    # the one-hot part of softmax - onehot, once for the whole batch
    np.subtract.at(grads["output"].T, targets, z)
    dz -= w.T[targets]
    np.add.at(grads["position_table"], positions, dz)
    _encode_backward(enc, fwd, np.add.reduceat(dz, starts, axis=0), grads)
    return np.add.reduceat(row_losses, starts).tolist(), grads


@dataclass
class Checkpoint:
    encoder: ToyEncoder
    tokenizer: Tokenizer
    decoder: MaeDecoder | None = None


def save_checkpoint(path, encoder: ToyEncoder, tokenizer: Tokenizer, decoder: MaeDecoder | None = None):
    """Write a versioned checkpoint.

    Layout: one ASCII header line of JSON (format, version, vocab, shapes),
    then the parameter matrices as raw little-endian float64 in C order, in
    the fixed order token_table, projection, and, when a decoder is present,
    position_table, output. The encoding is canonical: saving a freshly
    loaded checkpoint reproduces the file byte for byte.
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
    with open(path, "wb") as fh:
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
    if header.get("format") != CHECKPOINT_MAGIC:
        raise ValueError(f"not a checkpoint file: {path}")
    if header.get("version") != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {header.get('version')!r} in {path}"
        )
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
