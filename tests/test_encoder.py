"""Tests for the tokenizer, toy encoder, reconstruction head, checkpoints."""

import json
import math
import re

import numpy as np
import pytest
from oracles import oracle_corrupt, oracle_mae, oracle_tokenize, rows_of, store

from progemb import encoder
from progemb.encoder import (
    MASK_ID,
    PAD_ID,
    MaeDecoder,
    Tokenizer,
    Tokens,
    ToyEncoder,
    corrupt,
    encode,
    encode_batch,
    load_checkpoint,
    mae_loss,
    save_checkpoint,
    _encode_backward,
    _mae_forward_backward,
    _scatter,
)


def oracle_encode(enc, seq):
    """Per-sequence reference: row mean, projection, normalization."""
    pooled = enc.token_table[list(seq)].mean(axis=0)
    u = pooled @ enc.projection
    return u / np.linalg.norm(u)


def oracle_backward(enc, seq, d_emb, grads):
    """Per-sequence reference backward of d_emb . encode(seq)."""
    pooled = enc.token_table[list(seq)].mean(axis=0)
    u = pooled @ enc.projection
    norm = np.linalg.norm(u)
    emb = u / norm
    du = (d_emb - np.dot(d_emb, emb) * emb) / norm
    grads["projection"] += np.outer(pooled, du)
    contribution = enc.projection @ du / len(seq)
    for t in seq:
        grads["token_table"][t] += contribution


def zero_grads(enc):
    return {name: np.zeros_like(p) for name, p in enc.params().items()}


RAGGED = [(2, 3, 3, 7), (7,), (5, 2, 9, 9, 9, 2), (3, 7), (11, 4, 2)]


class TestTokens:
    def test_length(self):
        tokens = store(RAGGED)
        assert len(tokens) == 5
        assert tokens.starts.tolist() == [0, 4, 5, 11, 13]
        assert tokens.lengths.tolist() == [4, 1, 6, 2, 3]

    def test_take_matches_slicing_oracle(self):
        """Ragged rows, repeated and out of order, and no rows at all."""
        tokens = store(RAGGED)
        for rows in ([4, 0, 0, 2, 1, 4, 3], [1], [2, 2, 2], []):
            taken = tokens.take(rows)
            assert rows_of(taken) == [RAGGED[r] for r in rows]
            assert taken.ids.dtype == taken.lengths.dtype == np.intp

    def test_concat_appends_rows(self):
        joined = Tokens.concat([store(RAGGED[:2]), store(RAGGED[2:])])
        assert rows_of(joined) == RAGGED


class TestTokenizer:
    def test_reserved_ids(self):
        tok = Tokenizer.from_texts(["a b"])
        assert tok.id_to_token[PAD_ID] == "<pad>"
        assert tok.id_to_token[MASK_ID] == "<mask>"

    def test_frequency_order_with_ties_by_string(self):
        tok = Tokenizer.from_texts(["b b a c c"])
        # two tokens with count 2 sort alphabetically, then the singleton
        assert tok.id_to_token[2:] == ("b", "c", "a")

    def test_rebuild_is_identical(self):
        texts = ["the cat sat", "the dog ran", "a cat ran"]
        assert Tokenizer.from_texts(texts) == Tokenizer.from_texts(texts)

    def test_limit_keeps_most_frequent(self):
        tok = Tokenizer.from_texts(["a a a b b c"], limit=2)
        assert set(tok.id_to_token[2:]) == {"a", "b"}

    def test_extra_texts_survive_the_limit(self):
        tok = Tokenizer.from_texts(["a a a b b c"], extra_texts=("query: z",), limit=2)
        vocab = set(tok.id_to_token)
        assert {"query:", "z", "a", "b"} <= vocab
        assert "c" not in vocab

    def test_encode_texts_matches_per_text_oracle(self):
        """A query prefix, truncation, repeated texts and repeated words."""
        texts = ["the cat sat on the mat", "a dog", "the cat sat on the mat",
                 "mat mat mat mat mat mat mat", "on"]
        tok = Tokenizer.from_texts(texts, extra_texts=("query:",))
        prefixed = [f"query: {t}" for t in texts]
        for batch, max_len in ((texts, 0), (texts, 4), (prefixed, 3), (prefixed, 0)):
            tokens = tok.encode_texts(batch, max_len)
            assert rows_of(tokens) == [oracle_tokenize(tok, t, max_len) for t in batch]
            assert rows_of(tok.encode_text(batch[0], max_len)) == rows_of(tokens)[:1]

    def test_first_bad_text_and_word_named(self):
        tok = Tokenizer.from_texts(["hello world"])
        with pytest.raises(ValueError, match="'galaxy'"):
            tok.encode_texts(["hello", "hello galaxy nebula", "comet"])
        with pytest.raises(ValueError, match="cannot tokenize empty text"):
            tok.encode_texts(["hello", " ", "comet"])

    def test_encode_decode_round_trip(self):
        tok = Tokenizer.from_texts(["one two three"])
        seq = tok.encode_text("three one")
        assert tok.decode(seq) == "three one"

    def test_out_of_vocabulary_named_in_error(self):
        tok = Tokenizer.from_texts(["hello world"])
        with pytest.raises(ValueError, match="galaxy"):
            tok.encode_text("hello galaxy")

    def test_truncation(self):
        tok = Tokenizer.from_texts(["a b c d e"])
        assert tok.encode_text("a b c d e", max_len=3).lengths.tolist() == [3]

    def test_empty_text_rejected(self):
        tok = Tokenizer.from_texts(["a"])
        with pytest.raises(ValueError):
            tok.encode_text("   ")


def small_encoder(seed=3, vocab=12, dim=5):
    return ToyEncoder.create(vocab, dim, seed=seed)


class TestToyEncoder:
    def test_output_is_unit_norm(self):
        enc = small_encoder()
        rng = np.random.default_rng(0)
        for _ in range(20):
            seq = store([rng.integers(2, 12, size=rng.integers(1, 9))])
            np.testing.assert_allclose(np.linalg.norm(encode(enc, seq)), 1.0, atol=1e-12)

    def test_deterministic(self):
        enc = small_encoder()
        seq = store([(2, 5, 7)])
        np.testing.assert_array_equal(encode(enc, seq), encode(enc, seq))

    def test_token_order_irrelevant_under_mean_pooling(self):
        enc = small_encoder()
        a = encode(enc, store([(2, 5, 7)]))
        b = encode(enc, store([(7, 2, 5)]))
        np.testing.assert_allclose(a, b, atol=1e-15)

    def test_unknown_token_id_rejected(self):
        enc = small_encoder(vocab=6)
        with pytest.raises(ValueError, match="6"):
            encode(enc, store([(2, 6)]))

    def test_backward_matches_finite_differences(self):
        """Gradients of c . encode(seq) with respect to both parameter
        matrices, checked by central differences."""
        enc = small_encoder(seed=9, vocab=8, dim=4)
        seq = store([(2, 3, 3, 7)])
        rng = np.random.default_rng(1)
        c = rng.normal(size=4)

        grads = zero_grads(enc)
        _encode_backward(enc, encode_batch(enc, seq), c[None, :], grads)

        h = 1e-6
        for name in ("token_table", "projection"):
            arr = getattr(enc, name)
            fd = np.zeros_like(arr)
            flat, fd_flat = arr.reshape(-1), fd.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                up = float(np.dot(c, encode(enc, seq)))
                flat[idx] = orig - h
                down = float(np.dot(c, encode(enc, seq)))
                flat[idx] = orig
                fd_flat[idx] = (up - down) / (2 * h)
            np.testing.assert_allclose(grads[name], fd, atol=1e-7)


class TestScatter:
    @pytest.mark.parametrize("ufunc", [np.add, np.subtract])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_bit_identical_to_two_dimensional_ufunc_at(self, ufunc, transposed):
        """Repeated rows, -0.0 in the table and the values, a nonzero start
        and a transposed view: the flat scatter leaves the same bytes."""
        rng = np.random.default_rng(8)
        for _ in range(50):
            rows, cols = int(rng.integers(1, 20)), int(rng.integers(1, 8))
            base = rng.normal(size=(cols, rows) if transposed else (rows, cols))
            base[rng.random(base.shape) < 0.2] = -0.0
            index = rng.integers(0, rows, size=int(rng.integers(0, 40)))
            values = rng.normal(size=(len(index), cols)) * 10.0 ** rng.integers(
                -8, 8, size=(len(index), 1))
            values[rng.random(values.shape) < 0.2] = -0.0
            want, got = base.copy(), base.copy()
            ufunc.at(want.T if transposed else want, index, values)
            _scatter(ufunc, got.T if transposed else got, index, values)
            assert got.tobytes() == want.tobytes()


class TestBatchedKernel:
    """The batched forward/backward against the per-sequence oracle."""

    def test_forward_matches_oracle_on_ragged_batch(self):
        enc = small_encoder(seed=21)
        seqs = store(RAGGED)
        fwd = encode_batch(enc, seqs)
        assert fwd.embs.shape == (len(seqs), enc.dim)
        for i, (row, seq) in enumerate(zip(fwd.embs, RAGGED)):
            np.testing.assert_allclose(row, oracle_encode(enc, seq), rtol=0, atol=1e-14)
            np.testing.assert_allclose(encode(enc, seqs.take([i])), row, rtol=0, atol=1e-14)

    def test_backward_matches_oracle_on_ragged_batch(self):
        """Repeated ids within and across sequences, and a sequence given
        twice, all sum into the same token-table rows."""
        enc = small_encoder(seed=22)
        seqs = RAGGED + [RAGGED[0]]
        d_embs = np.random.default_rng(5).normal(size=(len(seqs), enc.dim))
        grads, expected = zero_grads(enc), zero_grads(enc)
        _encode_backward(enc, encode_batch(enc, store(seqs)), d_embs, grads)
        for seq, d_emb in zip(seqs, d_embs):
            oracle_backward(enc, seq, d_emb, expected)
        for name in expected:
            np.testing.assert_allclose(grads[name], expected[name], rtol=1e-12, atol=1e-14)

    def test_embed_passages_across_blocks_matches_oracle(self):
        """The CLI gallery path, on more passages than one kernel call takes,
        with truncation and lengths from 1 to 7 tokens."""
        from progemb.cli import EMBED_BLOCK, _embed_passages, _passage_tokens
        from progemb.config import RunConfig
        from progemb.mining import Passage

        rng = np.random.default_rng(3)
        words = [f"w{i}" for i in range(30)]
        passages = [
            Passage(f"p{i}", " ".join(rng.choice(words, size=int(rng.integers(1, 8)))), "s")
            for i in range(2 * EMBED_BLOCK + 5)
        ]
        tok = Tokenizer.from_texts(p.text for p in passages)
        enc = ToyEncoder.create(tok.vocab_size, 6, seed=4)
        cfg = RunConfig(max_passage_len=5)
        ids, embs = _embed_passages(enc, _passage_tokens(tok, cfg, passages), passages)
        assert ids == [p.passage_id for p in passages]
        expected = [oracle_encode(enc, oracle_tokenize(tok, p.text, 5)) for p in passages]
        np.testing.assert_allclose(embs, np.stack(expected), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("tokens_per_block", [1, 3])
    def test_token_blocks_leave_results_bit_identical(self, monkeypatch, tokens_per_block):
        """Token blocks of one and of three tokens, so most rows are a block
        of their own and longer rows overflow the bound, give the bytes of
        the default blocks, forward and backward."""
        rng = np.random.default_rng(12)
        enc = small_encoder(seed=23, vocab=40, dim=4)
        seqs = store([rng.integers(0, 40, size=int(n)) for n in rng.integers(1, 9, size=60)])
        d_embs = rng.normal(size=(len(seqs), enc.dim))

        def run():
            fwd = encode_batch(enc, seqs)
            grads = zero_grads(enc)
            _encode_backward(enc, fwd, d_embs, grads)
            return [fwd.embs, fwd.pooled, fwd.norms, grads["token_table"], grads["projection"]]

        want = run()
        monkeypatch.setattr(encoder, "SCATTER_BLOCK", tokens_per_block * enc.dim)
        covered = 0
        for rows, span in encoder._token_blocks(seqs, enc.dim):
            assert rows.start == covered and span.start == seqs.starts[covered]
            assert span.stop - span.start <= tokens_per_block or rows.stop == rows.start + 1
            covered = rows.stop
        assert covered == len(seqs)
        got = run()
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    def test_out_of_vocabulary_error_names_first_bad_id(self):
        enc = small_encoder(vocab=6)
        seqs = store([(2, 3), (4, 8, 6), (7,)])
        with pytest.raises(ValueError, match=r"token id 8 out of vocabulary \(size 6\)"):
            encode_batch(enc, seqs)

    def test_negative_id_rejected(self):
        enc = small_encoder(vocab=6)
        with pytest.raises(ValueError, match=r"token id -1 out of vocabulary"):
            encode_batch(enc, store([(2, 3), (2, -1)]))

    def test_empty_sequence_rejected(self):
        enc = small_encoder(vocab=6)
        with pytest.raises(ValueError, match="at least one token"):
            encode_batch(enc, store([(2, 3), ()]))

    def test_zero_norm_embedding_rejected(self):
        """A sequence whose tokens all have zero rows pools to zero; the
        batch is rejected rather than normalised to NaN."""
        enc = small_encoder(seed=23)
        seqs = store([(4, 5), (2, 3, 2), (6,)])
        encode_batch(enc, seqs)
        enc.token_table[[2, 3]] = 0.0
        with pytest.raises(ValueError, match="encoder produced a zero-norm embedding"):
            encode_batch(enc, seqs)

    def test_infinite_norm_rejected(self):
        """Finite but huge token rows overflow the norm; dividing by it would
        give a zero row, so the batch is rejected as non-finite."""
        enc = small_encoder(seed=23)
        seqs = store([(4, 5), (2, 3, 2), (6,)])
        enc.token_table[[2, 3]] = 1e200
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite embedding"):
            encode_batch(enc, seqs)


class TestCorrupt:
    def test_masks_ceil_of_ratio(self):
        seq = store([(2, 3, 4, 5, 6)])
        out = corrupt(seq, 0.3, [0])
        assert int((out.ids == MASK_ID).sum()) == math.ceil(0.3 * 5)

    def test_zero_ratio_is_identity(self):
        seq = store(RAGGED)
        out = corrupt(seq, 0.0, range(len(RAGGED)))
        assert rows_of(out) == RAGGED

    def test_deterministic_per_seed(self):
        seq = store([tuple(range(2, 22))])
        assert corrupt(seq, 0.4, [7]).ids.tolist() == corrupt(seq, 0.4, [7]).ids.tolist()
        assert corrupt(seq, 0.4, [7]).ids.tolist() != corrupt(seq, 0.4, [8]).ids.tolist()

    def test_unmasked_positions_unchanged(self):
        seq = store([tuple(range(2, 12))])
        out = corrupt(seq, 0.5, [3])
        for before, after in zip(seq.ids, out.ids):
            assert after in (before, MASK_ID)
        assert out.lengths is seq.lengths

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError):
            corrupt(store([(2,)]), 1.0, [0])

    @pytest.mark.parametrize("ratio", [0.1, 0.3, 0.5, 0.9])
    def test_matches_per_sequence_oracle(self, ratio):
        """Each row gets exactly the mask its own seed gives it alone, on
        ragged rows with repeats, whatever its neighbours are."""
        seqs = RAGGED + [RAGGED[2], tuple(range(2, 40))]
        seeds = np.random.default_rng(11).integers(0, 2**63 - 1, size=len(seqs))
        out = corrupt(store(seqs), ratio, seeds)
        assert rows_of(out) == [oracle_corrupt(q, ratio, s) for q, s in zip(seqs, seeds)]
        assert rows_of(corrupt(store(seqs[3:]), ratio, seeds[3:])) == rows_of(out)[3:]


class TestMaeLoss:
    def test_uniform_logits_at_init(self):
        """The output matrix starts at zero, so every position predicts the
        uniform distribution and the loss is length * log(vocab)."""
        vocab, dim = 9, 4
        enc = ToyEncoder.create(vocab, dim, seed=2)
        dec = MaeDecoder.create(6, dim, vocab, seed=2)
        seq = store([(2, 5, 8)])
        value = mae_loss(enc, dec, seq, corrupt(seq, 0.3, [0]))
        np.testing.assert_allclose(value, 3 * math.log(vocab), atol=1e-12)

    def test_sequence_longer_than_positions_rejected(self):
        enc = ToyEncoder.create(6, 3, seed=0)
        dec = MaeDecoder.create(2, 3, 6, seed=0)
        seq = store([(2, 3, 4)])
        with pytest.raises(ValueError, match="sequence length 3 exceeds decoder positions 2"):
            mae_loss(enc, dec, seq, seq)

    def test_length_mismatch_rejected(self):
        enc = ToyEncoder.create(6, 3, seed=0)
        dec = MaeDecoder.create(8, 3, 6, seed=0)
        with pytest.raises(ValueError, match="clean and corrupted lengths differ: 2 vs 3"):
            mae_loss(enc, dec, store([(2, 3)]), store([(2, 3, 4)]))

    def test_gradients_match_finite_differences(self):
        vocab, dim, positions = 7, 3, 5
        enc = ToyEncoder.create(vocab, dim, seed=4)
        dec = MaeDecoder.create(positions, dim, vocab, seed=4)
        # give the output matrix some structure so its gradient is nontrivial
        rng = np.random.default_rng(8)
        dec.output = rng.normal(0, 0.3, size=dec.output.shape)
        clean = store([(2, 6, 3, 5)])
        corrupted = corrupt(clean, 0.4, [1])

        _, grads = _mae_forward_backward(enc, dec, clean, corrupted)
        h = 1e-6
        owners = {"token_table": enc, "projection": enc,
                  "position_table": dec, "output": dec}
        for name, owner in owners.items():
            arr = getattr(owner, name)
            fd = np.zeros_like(arr)
            flat, fd_flat = arr.reshape(-1), fd.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                up = mae_loss(enc, dec, clean, corrupted)
                flat[idx] = orig - h
                down = mae_loss(enc, dec, clean, corrupted)
                flat[idx] = orig
                fd_flat[idx] = (up - down) / (2 * h)
            np.testing.assert_allclose(grads[name], fd, atol=1e-6,
                                       err_msg=f"gradient mismatch for {name}")

    def test_batch_gradients_match_finite_differences(self):
        """A ragged batch whose sequences share token ids: the gradient of
        the summed loss, through one forward and one backward."""
        vocab, dim, positions = 8, 3, 5
        enc = ToyEncoder.create(vocab, dim, seed=6)
        dec = MaeDecoder.create(positions, dim, vocab, seed=6)
        rng = np.random.default_rng(9)
        dec.output = rng.normal(0, 0.3, size=dec.output.shape)
        cleans = store([(2, 6, 3, 5), (3, 7), (5, 3, 3, 4, 6)])
        corrupteds = corrupt(cleans, 0.4, range(3))
        first, _, third = rows_of(corrupteds)
        assert set(first) & set(third) - {MASK_ID}

        def total():
            return sum(mae_loss(enc, dec, cleans.take([i]), corrupteds.take([i]))
                       for i in range(len(cleans)))

        losses, grads = _mae_forward_backward(enc, dec, cleans, corrupteds)
        np.testing.assert_allclose(sum(losses), total(), rtol=1e-12)
        h = 1e-6
        owners = {"token_table": enc, "projection": enc,
                  "position_table": dec, "output": dec}
        for name, owner in owners.items():
            arr = getattr(owner, name)
            fd = np.zeros_like(arr)
            flat, fd_flat = arr.reshape(-1), fd.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                up = total()
                flat[idx] = orig - h
                down = total()
                flat[idx] = orig
                fd_flat[idx] = (up - down) / (2 * h)
            np.testing.assert_allclose(grads[name], fd, atol=1e-6,
                                       err_msg=f"gradient mismatch for {name}")

    def test_gradient_step_reduces_loss(self):
        vocab, dim = 10, 4
        enc = ToyEncoder.create(vocab, dim, seed=5)
        dec = MaeDecoder.create(6, dim, vocab, seed=5)
        clean = store([(2, 7, 4, 9)])
        corrupted = corrupt(clean, 0.4, [2])
        (before,), grads = _mae_forward_backward(enc, dec, clean, corrupted)
        for name, owner in (("token_table", enc), ("projection", enc),
                            ("position_table", dec), ("output", dec)):
            setattr(owner, name, getattr(owner, name) - 0.05 * grads[name])
        after = mae_loss(enc, dec, clean, corrupted)
        assert after < before


def mae_batch(vocab, dim, positions, seed):
    """A ragged batch with repeated tokens, a repeated sequence and a clean
    target equal to MASK_ID, plus an encoder and a decoder with a random
    output matrix."""
    enc = ToyEncoder.create(vocab, dim, seed=seed)
    dec = MaeDecoder.create(positions, dim, vocab, seed=seed)
    rng = np.random.default_rng(seed)
    dec.output = rng.normal(0, 0.5, size=dec.output.shape)
    cleans = store([(2, 6, 3, 5), (3, 7), (5, 3, 3, 4, 6, MASK_ID), (3, 7),
                    (vocab - 1,), (4, 4, 2, 9, 9, 8, 2)])
    return enc, dec, cleans, corrupt(cleans, 0.4, range(len(cleans)))


def factored_log_sums(enc, dec, cleans, corrupteds):
    """log of each token's softmax sum over its factors exp(a - max a) and
    exp(b - max b); a token below -900 * log(2), about -624, takes the
    kernel's direct row softmax."""
    a = encode_batch(enc, corrupteds).embs @ dec.output
    b = dec.position_table[: cleans.lengths.max()] @ dec.output
    seqs = np.repeat(np.arange(len(cleans)), cleans.lengths)
    positions = np.arange(len(cleans.ids)) - np.repeat(cleans.starts, cleans.lengths)
    logits = a[seqs] + b[positions]
    top = logits.max(axis=1)
    lse = top + np.log(np.exp(logits - top[:, None]).sum(axis=1))
    return lse - a.max(axis=1)[seqs] - b.max(axis=1)[positions]


class TestMaeKernel:
    """The column-blocked decoder kernel against the per-sequence oracle."""

    @pytest.mark.parametrize("cols_per_block", [None, 1, 3])
    def test_matches_oracle(self, monkeypatch, cols_per_block):
        """At the default block, one vocabulary column per block, and three
        columns per block, so that blocks split V."""
        vocab = 40
        enc, dec, cleans, corrupteds = mae_batch(vocab, 5, 8, seed=3)
        if cols_per_block is not None:
            rows = len(cleans) + cleans.lengths.max()
            monkeypatch.setattr(encoder, "MAE_BLOCK", cols_per_block * rows)
        losses, grads = _mae_forward_backward(enc, dec, cleans, corrupteds)
        want_losses, want_grads = oracle_mae(enc, dec, cleans, corrupteds)
        np.testing.assert_allclose(losses, want_losses, rtol=1e-12)
        assert grads.keys() == want_grads.keys()
        for name in grads:
            np.testing.assert_allclose(grads[name], want_grads[name], rtol=1e-12,
                                       err_msg=f"gradient mismatch for {name}")

    @pytest.mark.parametrize("scale, direct", [(20_000, "all"), (1_000, "some")])
    def test_underflowing_tokens_match_oracle(self, scale, direct):
        """Logits spanning thousands of nats: a token whose factored sum
        underflows takes its own row softmax. At the larger scale every
        token does; at the smaller one some tokens of the chunk do and the
        rest stay factored."""
        enc, dec, cleans, corrupteds = mae_batch(40, 5, 8, seed=3)
        dec.output *= scale
        log_sums = factored_log_sums(enc, dec, cleans, corrupteds)
        if direct == "all":
            assert (log_sums < -650).all()
        else:
            assert (log_sums < -650).any() and (log_sums > -550).any()
        losses, grads = _mae_forward_backward(enc, dec, cleans, corrupteds)
        want_losses, want_grads = oracle_mae(enc, dec, cleans, corrupteds)
        np.testing.assert_allclose(losses, want_losses, rtol=1e-12)
        for name in grads:
            np.testing.assert_allclose(grads[name], want_grads[name], rtol=0,
                                       atol=1e-12 * np.abs(want_grads[name]).max(),
                                       err_msg=f"gradient mismatch for {name}")

    def test_rerun_is_byte_identical(self):
        """At the default block and a vocabulary large enough for several
        column blocks per chunk."""
        enc, dec, cleans, corrupteds = mae_batch(60_000, 4, 8, seed=5)
        assert (len(cleans) + cleans.lengths.max()) * 60_000 > 4 * encoder.MAE_BLOCK
        first = _mae_forward_backward(enc, dec, cleans, corrupteds)
        second = _mae_forward_backward(enc, dec, cleans, corrupteds)
        assert first[0] == second[0]
        for name, grad in first[1].items():
            assert grad.tobytes() == second[1][name].tobytes(), name


class TestCheckpoint:
    def test_round_trip_preserves_everything(self, tmp_path):
        tok = Tokenizer.from_texts(["alpha beta gamma", "beta delta"])
        enc = ToyEncoder.create(len(tok.id_to_token), 6, seed=11)
        dec = MaeDecoder.create(10, 6, len(tok.id_to_token), seed=11)
        path = tmp_path / "model.bin"
        save_checkpoint(path, enc, tok, dec)
        ckpt = load_checkpoint(path)
        assert ckpt.tokenizer == tok
        np.testing.assert_array_equal(ckpt.encoder.token_table, enc.token_table)
        np.testing.assert_array_equal(ckpt.encoder.projection, enc.projection)
        np.testing.assert_array_equal(ckpt.decoder.position_table, dec.position_table)
        np.testing.assert_array_equal(ckpt.decoder.output, dec.output)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        tok = Tokenizer.from_texts(["x y z"])
        enc = ToyEncoder.create(len(tok.id_to_token), 4, seed=0)
        dec = MaeDecoder.create(5, 4, len(tok.id_to_token), seed=0)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(a, enc, tok, dec)
        ckpt = load_checkpoint(a)
        save_checkpoint(b, ckpt.encoder, ckpt.tokenizer, ckpt.decoder)
        assert a.read_bytes() == b.read_bytes()

    def test_decoder_optional(self, tmp_path):
        tok = Tokenizer.from_texts(["p q"])
        enc = ToyEncoder.create(len(tok.id_to_token), 3, seed=1)
        path = tmp_path / "enc.bin"
        save_checkpoint(path, enc, tok)
        assert load_checkpoint(path).decoder is None

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b'{"format": "something-else", "version": 1}\n')
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["vocab_size", "dim", "vocab", "has_decoder",
                                     "max_positions"])
    def test_header_without_a_key_rejected(self, tmp_path, key):
        tok = Tokenizer.from_texts(["m n"])
        enc = ToyEncoder.create(len(tok.id_to_token), 3, seed=1)
        good = tmp_path / "good.bin"
        save_checkpoint(good, enc, tok, MaeDecoder.create(4, 3, len(tok.id_to_token)))
        head, body = good.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        del header[key]
        bad = tmp_path / "bad.bin"
        bad.write_bytes(json.dumps(header).encode() + b"\n" + body)
        with pytest.raises(ValueError, match=re.escape(f"{bad}: no '{key}'")):
            load_checkpoint(bad)

    @pytest.mark.parametrize("key, value", [
        ("vocab_size", 6.0), ("vocab_size", True), ("dim", "3"), ("dim", None),
        ("max_positions", 4.0), ("vocab", "abcdef"), ("vocab", ["<pad>", 1, "m", "n"]),
        ("has_decoder", 1),
    ])
    def test_header_with_a_mistyped_key_rejected(self, tmp_path, key, value):
        tok = Tokenizer.from_texts(["m n"])
        enc = ToyEncoder.create(len(tok.id_to_token), 3, seed=1)
        good = tmp_path / "good.bin"
        save_checkpoint(good, enc, tok, MaeDecoder.create(4, 3, len(tok.id_to_token)))
        head, body = good.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        header[key] = value
        bad = tmp_path / "bad.bin"
        bad.write_bytes(json.dumps(header).encode() + b"\n" + body)
        with pytest.raises(ValueError, match=re.escape(f"{bad}: '{key}'")):
            load_checkpoint(bad)

    def test_header_that_is_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "list.bin"
        path.write_bytes(b'["checkpoint", 1]\n')
        with pytest.raises(ValueError, match=re.escape(f"{path}: not a JSON object")):
            load_checkpoint(path)

    def test_unknown_version_rejected(self, tmp_path):
        tok = Tokenizer.from_texts(["m n"])
        enc = ToyEncoder.create(len(tok.id_to_token), 3, seed=1)
        good = tmp_path / "good.bin"
        save_checkpoint(good, enc, tok)
        data = good.read_bytes()
        tampered = data.replace(b'"version": 1', b'"version": 99')
        bad = tmp_path / "bad.bin"
        bad.write_bytes(tampered)
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(bad)

    def test_truncated_payload_rejected(self, tmp_path):
        tok = Tokenizer.from_texts(["u v w"])
        enc = ToyEncoder.create(len(tok.id_to_token), 3, seed=2)
        path = tmp_path / "trunc.bin"
        save_checkpoint(path, enc, tok)
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(ValueError):
            load_checkpoint(path)
