"""Tests for batch assembly and the two training loops."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from oracles import (
    OracleAdamW,
    batch_similarities,
    matrices,
    oracle_batch_layout,
    oracle_descent,
    oracle_step_gradients,
    zero_grad,
)

from progemb import encoder, training
from progemb.encoder import MaeDecoder, Tokenizer, ToyEncoder, encode, encode_batch
from progemb.loss import HyperParams, MomentumState, batch_threshold, info_nce, progressive_loss
from progemb.similarity import cosine
from progemb.dataio import MAX_NEGATIVES
from progemb.training import (
    TrainingSet,
    _step_loss_and_gradients,
    build_batch,
    finetune,
    pretrain,
)

TEXTS = [
    "red apple pie fresh",
    "green pear tart sweet",
    "blue sky cloud high",
    "dark night star moon",
    "fast car road trip",
    "slow boat river calm",
]


def make_fixture(dim=6, seed=0):
    """Tokenizer, encoder and the store of TEXTS: row k is TEXTS[k]."""
    tok = Tokenizer.from_texts(TEXTS)
    enc = ToyEncoder.create(len(tok.id_to_token), dim, seed=seed)
    return tok, enc, tok.encode_texts(TEXTS)


def training_set(examples):
    """The TrainingSet of (query row, positive row, negative rows) examples."""
    candidates = np.full((len(examples), 1 + MAX_NEGATIVES), -1, dtype=np.intp)
    for i, (_, positive, negatives) in enumerate(examples):
        candidates[i, : 1 + len(negatives)] = (positive, *negatives)
    queries = np.array([q for q, _, _ in examples], dtype=np.intp)
    return TrainingSet(queries, candidates)


def oracle_layout(data, index):
    """oracle_batch_layout of examples data[index], store row r named s<r>."""
    examples = []
    for query, (positive, *negatives) in zip(data.queries[index], data.candidates[index]):
        negatives = [int(n) for n in negatives if n >= 0]
        examples.append((f"s{query}", int(query), f"s{positive}", int(positive),
                         [f"s{n}" for n in negatives], negatives))
    return oracle_batch_layout(examples)


def exclusions(batch):
    """The (query, slot) pairs off the diagonal that a batch's mask drops,
    query-major, then by slot."""
    return [(i, j) for i, j in np.argwhere(~batch_similarities(batch)[2]).tolist() if i != j]


class TestBuildBatch:
    def test_pool_layout_and_similarities(self):
        """Candidates are all positives then all hard negatives, and each
        similarity matches a direct cosine of the encoded texts."""
        _, enc, tokens = make_fixture()
        examples = [(0, 1, (2,)), (3, 4, (5,))]
        batch = build_batch(training_set(examples), [0, 1], tokens, enc)
        pos, neg, _ = batch_similarities(batch)
        # the queries, then the positives, then the negatives
        want = encode_batch(enc, tokens.take([0, 3, 1, 4, 2, 5])).embs
        assert batch.forward.embs[batch.rows].tobytes() == want.tobytes()
        assert neg.shape == (2, 4)
        for i, (query, positive, _) in enumerate(examples):
            q = encode(enc, tokens.take([query]))
            np.testing.assert_allclose(
                pos[i], cosine(q, encode(enc, tokens.take([positive]))), atol=1e-12
            )
        np.testing.assert_allclose(
            neg[0, 2], cosine(encode(enc, tokens.take([0])), encode(enc, tokens.take([2]))),
            atol=1e-12,
        )

    def test_own_positive_masked_out(self):
        _, enc, tokens = make_fixture()
        data = training_set([(0, 1, ()), (2, 3, ())])
        batch = build_batch(data, [0, 1], tokens, enc)
        neg_mask = batch_similarities(batch)[2]
        assert not neg_mask[0, 0] and not neg_mask[1, 1]
        assert neg_mask[0, 1] and neg_mask[1, 0]
        assert exclusions(batch) == oracle_layout(data, [0, 1])[2] == []

    def test_duplicate_of_own_positive_excluded(self):
        """A mined negative that is another query's positive is masked for
        that query only."""
        _, enc, tokens = make_fixture()
        data = training_set([(0, 1, ()), (2, 3, (1,))])
        batch = build_batch(data, [0, 1], tokens, enc)
        neg_mask = batch_similarities(batch)[2]
        # slot 2 is query 1's mined negative, store row 1: query 0's positive
        assert not neg_mask[0, 2]
        assert neg_mask[1, 2]
        assert exclusions(batch) == oracle_layout(data, [0, 1])[2] == [(0, 2)]

    def test_mask_and_exclusions_match_pairwise_loop(self):
        """The row codes give the mask and the exclusion order of a plain
        loop over (query, slot) pairs, on batches with repeated rows."""
        _, enc, tokens = make_fixture()
        rng = np.random.default_rng(7)
        for _ in range(20):
            examples = []
            for i in range(int(rng.integers(1, 6))):
                pid = int(rng.integers(0, 6))
                others = [k for k in range(6) if k != pid]
                nids = rng.choice(others, size=int(rng.integers(0, 4)), replace=False)
                examples.append((i, pid, tuple(int(k) for k in nids)))
            data, index = training_set(examples), np.arange(len(examples))
            batch = build_batch(data, index, tokens, enc)
            _, neg, neg_mask = batch_similarities(batch)
            pool = [p for _, p, _ in examples] + [n for _, _, ns in examples for n in ns]
            # two slots share a forward row exactly when they share a store row
            codes = batch.rows[len(examples):]
            np.testing.assert_array_equal(codes[:, None] == codes, np.equal.outer(pool, pool))
            mask = np.ones(neg.shape, dtype=bool)
            excluded = []
            for i, (_, positive, _) in enumerate(examples):
                for j, row in enumerate(pool):
                    if row == positive:
                        mask[i, j] = False
                        if j != i:
                            excluded.append((i, j))
            np.testing.assert_array_equal(neg_mask, mask)
            assert exclusions(batch) == excluded == oracle_layout(data, index)[2]

    def test_shared_id_encoded_once(self):
        _, enc, tokens = make_fixture()
        batch = build_batch(training_set([(0, 1, ()), (2, 3, (1,))]), [0, 1], tokens, enc)
        np.testing.assert_array_equal(batch.cand_embs[0], batch.cand_embs[2])
        # two queries, then the two distinct candidate rows
        assert len(batch.forward.embs) == 4

    def test_tracer_reads_size_and_candidate_embeddings(self):
        """The benchmark's tracer reads a batch's size and its (M, d) slot
        embeddings: B, and the forward rows of the slots, byte for byte."""
        tok, data, tokens = random_batch_examples(np.random.default_rng(3), 12, 8, 5)
        enc = ToyEncoder.create(tok.vocab_size, 4, seed=3)
        batch = build_batch(data, np.arange(12), tokens, enc)
        assert batch.size == 12
        assert batch.cand_embs.shape == (12 * 6, 4)
        want = batch.forward.embs[batch.rows[12:]]
        assert batch.cand_embs.tobytes() == want.tobytes()

    def test_layout_matches_id_coded_oracle(self):
        """On random batches with repeated rows (shared positives, negatives
        that are other queries' positives, examples drawn twice), coding by
        store row gives the id coding's forward rows and exclusions, and
        encodes the same rows in the same order. A slot's code is its
        forward row: the id coding's partition, numbered after the queries."""
        rng = np.random.default_rng(11)
        # 12 queries over 8 passages: positives repeat
        tok, data, tokens = random_batch_examples(rng, 12, 8, 3)
        enc = ToyEncoder.create(tok.vocab_size, 4, seed=11)
        for _ in range(30):
            index = rng.integers(0, len(data), size=int(rng.integers(1, 16)))
            encoded, rows, excluded = oracle_layout(data, index)
            batch = build_batch(data, index, tokens, enc)
            np.testing.assert_array_equal(batch.rows, rows)
            assert exclusions(batch) == excluded
            want = encode_batch(enc, tokens.take(encoded)).embs
            assert batch.forward.embs.tobytes() == want.tobytes()

    def test_empty_batch_rejected(self):
        _, enc, tokens = make_fixture()
        with pytest.raises(ValueError):
            build_batch(training_set([(0, 1, ())]), [], tokens, enc)


def step_gradients(batch, enc, state, hyper, loss_mode):
    """_step_loss_and_gradients into a fresh gradient: value, pos, mean
    weight and the gradient's matrices by name."""
    grad = zero_grad(enc)
    value, pos, mean_w, _ = _step_loss_and_gradients(
        batch, enc, state, hyper, loss_mode, grad
    )
    return value, pos, mean_w, matrices(grad)


class TestStepGradients:
    def test_match_finite_differences_through_encoder(self):
        """End-to-end gradient of the batch's mean loss with respect to
        encoder parameters, coefficients frozen, including a candidate that
        serves as one query's positive and another query's hard negative."""
        tok, enc, tokens = make_fixture(dim=4, seed=3)
        data = training_set([(0, 1, (2,)), (3, 4, (1,))])
        hyper = HyperParams(tau=0.1)
        state = MomentumState(t=0.4, step=3)
        batch = build_batch(data, [0, 1], tokens, enc)
        value, _, _, grads = step_gradients(batch, enc, state, hyper, "progressive")
        pos, neg, neg_mask = batch_similarities(batch)
        sigma = batch_threshold(pos, hyper.beta)
        _, record = progressive_loss(pos, neg, sigma, state.t, hyper.tau, neg_mask=neg_mask)
        w, a = record.weights, record.scales

        def frozen_loss():
            b_pos, b_neg, b_mask = batch_similarities(build_batch(data, [0, 1], tokens, enc))
            total = 0.0
            for i in range(len(b_pos)):
                terms = [
                    math.exp((a[i, j] * b_neg[i, j] - b_pos[i]) / hyper.tau)
                    for j in range(b_neg.shape[1])
                    if b_mask[i, j]
                ]
                total += w[i] * math.log1p(math.fsum(terms))
            return total / len(b_pos)

        np.testing.assert_allclose(value, frozen_loss(), rtol=1e-10)
        h = 1e-6
        for name in ("token_table", "projection"):
            arr = getattr(enc, name)
            fd = np.zeros_like(arr)
            flat, fd_flat = arr.reshape(-1), fd.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                up = frozen_loss()
                flat[idx] = orig - h
                down = frozen_loss()
                flat[idx] = orig
                fd_flat[idx] = (up - down) / (2 * h)
            np.testing.assert_allclose(
                grads[name], fd, atol=2e-6, err_msg=f"gradient mismatch for {name}"
            )

    def test_gradient_vector_is_zeroed_and_refilled(self):
        """A gradient that already holds another step's values is filled
        with the same bytes as a fresh one, in the same vector."""
        _, enc, tokens = make_fixture(dim=4, seed=3)
        data = training_set([(0, 1, (2,)), (3, 4, (1,))])
        args = (MomentumState(t=0.4, step=3), HyperParams(tau=0.1), "progressive")
        *_, want = step_gradients(build_batch(data, [0, 1], tokens, enc), enc, *args)
        grad = replace(enc, params=np.full_like(enc.params, 7.0))
        vector = grad.params
        _step_loss_and_gradients(build_batch(data, [1], tokens, enc), enc, *args, grad)
        _step_loss_and_gradients(build_batch(data, [0, 1], tokens, enc), enc, *args, grad)
        assert grad.params is vector
        assert grad.params.tobytes() == b"".join(g.tobytes() for g in want.values())

    def test_infonce_mode_ignores_coefficients(self):
        _, enc, tokens = make_fixture(dim=4, seed=5)
        batch = build_batch(training_set([(0, 1, ()), (2, 3, ())]), [0, 1], tokens, enc)
        hyper = HyperParams(tau=0.5)
        v1, _, w1, _ = step_gradients(batch, enc, MomentumState(), hyper, "infonce")
        v2, _, w2, _ = step_gradients(batch, enc, MomentumState(t=0.9, step=9), hyper, "infonce")
        assert v1 == v2
        assert w1 == w2 == 1.0


def random_batch_examples(rng, n_queries, n_passages, n_negatives):
    """Queries over a shared passage pool: mined negatives that are other
    queries' positives make shared slots and exclusions."""
    words = [f"w{i}" for i in range(40)]
    texts = [" ".join(rng.choice(words, size=int(rng.integers(2, 7)))) for _ in range(n_passages)]
    queries = [" ".join(rng.choice(words, size=3)) for _ in range(n_queries)]
    tok = Tokenizer.from_texts(texts + queries)
    # passage k is row k, query i is row n_passages + i
    tokens = tok.encode_texts(texts + queries)
    examples = []
    for i in range(n_queries):
        pid = i % n_passages
        others = [k for k in range(n_passages) if k != pid]
        nids = rng.choice(others, size=n_negatives, replace=False)
        examples.append((n_passages + i, pid, tuple(int(k) for k in nids)))
    return tok, training_set(examples), tokens


class TestStepAgainstPoolKernel:
    """The step's encoder gradients of the mean loss against the pool
    kernel's path: cosine chain rule per slot, then the scatter and the
    encoder backward. The oracle reduces in either of its two ways: its
    mean, or its sum with the batch's 1/B applied to the result."""

    @staticmethod
    def check(batch, enc, hyper, state, loss_mode, reduction):
        _, _, _, grads = step_gradients(batch, enc, state, hyper, loss_mode)
        pos, neg, neg_mask = batch_similarities(batch)
        if loss_mode == "progressive":
            sigma = batch_threshold(pos, hyper.beta)
            _, rec = progressive_loss(pos, neg, sigma, state.t, hyper.tau, neg_mask=neg_mask)
        else:
            _, rec = info_nce(pos, neg, hyper.tau, neg_mask=neg_mask)
        want = matrices(oracle_step_gradients(
            batch, enc, rec.weights, rec.scales, hyper.tau, reduction
        ))
        if reduction == "sum":
            want = {name: grad / batch.size for name, grad in want.items()}
        for name in want:
            scale = float(np.max(np.abs(want[name])))
            assert scale > 0.0
            assert np.max(np.abs(grads[name] - want[name])) <= 1e-12 * scale, name

    @pytest.mark.parametrize("loss_mode", ["progressive", "infonce"])
    @pytest.mark.parametrize("reduction", ["sum", "mean"])
    def test_shared_slot_and_exclusion(self, loss_mode, reduction):
        _, enc, tokens = make_fixture(dim=4, seed=3)
        data = training_set([(0, 1, (2,)), (3, 4, (1,))])
        batch = build_batch(data, [0, 1], tokens, enc)
        # slot 3 is query 1's mined negative, store row 1: query 0's positive
        assert exclusions(batch) == oracle_layout(data, [0, 1])[2] == [(0, 3)]
        self.check(batch, enc, HyperParams(tau=0.1), MomentumState(t=0.4, step=3),
                   loss_mode, reduction)

    @pytest.mark.parametrize("loss_mode", ["progressive", "infonce"])
    @pytest.mark.parametrize("reduction", ["sum", "mean"])
    def test_batch_of_64_with_five_negatives(self, loss_mode, reduction):
        rng = np.random.default_rng(15)
        tok, data, tokens = random_batch_examples(rng, 64, 90, 5)
        enc = ToyEncoder.create(tok.vocab_size, 8, seed=15)
        batch = build_batch(data, np.arange(64), tokens, enc)
        assert batch_similarities(batch)[1].shape == (64, 64 * 6) and exclusions(batch)
        self.check(batch, enc, HyperParams(tau=0.05), MomentumState(t=0.5, step=2),
                   loss_mode, reduction)


class TestStepRowBlocks:
    """The step walks query rows in blocks of max(STEP_MIN_ROWS,
    STEP_ENTRIES // M); the block size changes summation order only."""

    HYPER = HyperParams(beta=0.02, tau=0.05)
    STATE = MomentumState(t=0.6, step=2)

    @staticmethod
    def batch(n_queries=10, seed=15):
        rng = np.random.default_rng(seed)
        tok, data, tokens = random_batch_examples(rng, n_queries, n_queries + 8, 5)
        enc = ToyEncoder.create(tok.vocab_size, 8, seed=seed)
        return enc, build_batch(data, np.arange(n_queries), tokens, enc)

    @staticmethod
    def block_rows(monkeypatch, batch, rows):
        """Patch the budget so the step's blocks are `rows` query rows; the
        budget is not a multiple of M, so its floor division counts."""
        m = len(batch.cand_embs)
        monkeypatch.setattr(training, "STEP_MIN_ROWS", 1)
        monkeypatch.setattr(training, "STEP_ENTRIES", rows * m + m - 1)

    def step(self, enc, batch, loss_mode):
        return step_gradients(batch, enc, self.STATE, self.HYPER, loss_mode)

    @staticmethod
    def record_losses(monkeypatch):
        """Wrap the loss names the step calls; return the list of their
        (pos, neg, record, value) per call."""
        calls = []
        for name in ("progressive_loss", "info_nce"):
            def wrapped(pos, neg, *args, _fn=getattr(training, name), **kwargs):
                value, record = _fn(pos, neg, *args, **kwargs)
                calls.append((np.array(pos), np.array(neg), record, value))
                return value, record
            monkeypatch.setattr(training, name, wrapped)
        return calls

    @pytest.mark.parametrize("rows", [1, 3, 7])
    @pytest.mark.parametrize("loss_mode", ["progressive", "infonce"])
    @pytest.mark.parametrize("reduction", ["sum", "mean"])
    def test_block_size_changes_only_rounding(self, monkeypatch, rows, loss_mode, reduction):
        """At "mean", the step's mean value and gradients; at "sum", the
        loss kernel's sums that the blocks add up, and their derivatives at
        pos, against the one-block call's."""
        enc, batch = self.batch()
        calls = self.record_losses(monkeypatch)
        value, pos, mean_w, grads = self.step(enc, batch, loss_mode)
        [(_, _, record, kernel_value)] = calls
        self.block_rows(monkeypatch, batch, rows)
        del calls[:]
        b_value, b_pos, b_mean_w, b_grads = self.step(enc, batch, loss_mode)
        assert [len(p) for p, *_ in calls] == {1: [1] * 10, 3: [3, 3, 3, 1], 7: [7, 3]}[rows]
        if reduction == "sum":
            np.testing.assert_allclose(sum(v for *_, v in calls), kernel_value, rtol=1e-12)
            np.testing.assert_allclose(np.concatenate([r.grad_pos for _, _, r, _ in calls]),
                                       record.grad_pos, rtol=1e-12)
            np.testing.assert_allclose(np.concatenate([r.grad_neg for _, _, r, _ in calls]),
                                       record.grad_neg, rtol=1e-12,
                                       atol=1e-12 * float(np.max(np.abs(record.grad_neg))))
            return
        np.testing.assert_allclose(b_value, value, rtol=1e-12)
        np.testing.assert_allclose(b_pos, pos, rtol=1e-12)
        np.testing.assert_allclose(b_mean_w, mean_w, rtol=1e-12)
        for name in grads:
            np.testing.assert_allclose(b_grads[name], grads[name], rtol=1e-12,
                                       atol=1e-12 * float(np.max(np.abs(grads[name]))))

    def test_budget_sizes_blocks_down_to_the_floor(self, monkeypatch):
        """A budget below one row per M leaves blocks of STEP_MIN_ROWS rows."""
        enc, batch = self.batch(n_queries=40)
        calls = self.record_losses(monkeypatch)
        self.step(enc, batch, "progressive")
        assert len(calls) == 1
        monkeypatch.setattr(training, "STEP_ENTRIES", 1)
        del calls[:]
        self.step(enc, batch, "progressive")
        assert [len(p) for p, *_ in calls] == [16, 16, 8]

    def test_block_records_count_like_one_block(self, monkeypatch):
        """Summed over the blocks' records, the mechanism's counts (w < 1,
        amplified negatives, unmasked negatives) are the one-block counts."""
        enc, batch = self.batch()
        calls = self.record_losses(monkeypatch)

        def counts():
            del calls[:]
            self.step(enc, batch, "progressive")
            return (
                len(calls),
                sum(int((r.weights < 1.0).sum()) for _, _, r, _ in calls),
                sum(int(((r.scales != 1.0) & r.neg_mask).sum()) for _, _, r, _ in calls),
                sum(int(r.neg_mask.sum()) for _, _, r, _ in calls),
            )

        one = counts()
        assert one[0] == 1 and min(one[1:]) > 0
        self.block_rows(monkeypatch, batch, 3)
        assert counts() == (4,) + one[1:]

    @staticmethod
    def copies_batch():
        """Nine queries whose mined negatives include verbatim copies of
        positives: query i's first negative, slot 9 + 2i, copies its own
        positive (i < 6) or query i - 6's."""
        rng = np.random.default_rng(4)
        words = [f"w{i}" for i in range(30)]
        texts = [" ".join(rng.choice(words, size=5)) for _ in range(12)]
        texts += texts[:6]  # passage 12 + k is a verbatim copy of passage k
        queries = [" ".join(rng.choice(words, size=3)) for _ in range(9)]
        tok = Tokenizer.from_texts(texts + queries)
        tokens = tok.encode_texts(texts + queries)
        data = training_set([(18 + i, i, (12 + i % 6, (i + 1) % 12)) for i in range(9)])
        enc = ToyEncoder.create(tok.vocab_size, 8, seed=4)
        batch = build_batch(data, np.arange(9), tokens, enc)
        assert batch.cand_embs[9].tobytes() == batch.cand_embs[0].tobytes()
        return enc, batch

    BLOCKINGS = ((None, [9]), (1, [1] * 9), (3, [3, 3, 3]), (4, [4, 4, 1]), (7, [7, 2]))

    def test_pos_and_sigma_are_taken_once_before_the_blocks(self, monkeypatch):
        """pos is the clipped einsum product of each query's unit row and
        its positive's, and sigma is batch_threshold of that pos, byte for
        byte in both loss modes, at the default block and at 1-, 3-, 4- and
        7-row blocks."""
        enc, batch = self.copies_batch()
        uq, uc = batch.forward.embs[batch.rows[:9]], batch.cand_embs
        want = np.clip(np.einsum("nd,nd->n", uq, uc[:9]), -1.0, 1.0)
        want_sigma = np.float64(batch_threshold(want, self.HYPER.beta)).tobytes()
        calls = self.record_losses(monkeypatch)
        grad = zero_grad(enc)
        for rows, blocks in self.BLOCKINGS:
            if rows is not None:
                self.block_rows(monkeypatch, batch, rows)
            for loss_mode in ("progressive", "infonce"):
                del calls[:]
                _, pos, _, sigma = _step_loss_and_gradients(
                    batch, enc, self.STATE, self.HYPER, loss_mode, grad
                )
                assert [len(p) for p, *_ in calls] == blocks
                assert pos.tobytes() == want.tobytes(), (rows, loss_mode)
                assert np.float64(sigma).tobytes() == want_sigma, (rows, loss_mode)

    def test_pos_is_the_similarity_its_block_feeds_the_loss(self, monkeypatch):
        """The positive each block feeds the loss is S[i, i] of the block's
        own product, bit for bit, so a verbatim copy of a query's positive
        ties it at every block size, and is a hard negative wherever the
        positive is at or above sigma: its scale is t + pos."""
        enc, batch = self.copies_batch()
        calls = self.record_losses(monkeypatch)
        hard = 0
        for rows, blocks in self.BLOCKINGS:
            if rows is not None:
                self.block_rows(monkeypatch, batch, rows)
            del calls[:]
            _, pos, _, grads = self.step(enc, batch, "progressive")
            assert [len(p) for p, *_ in calls] == blocks
            sigma = batch_threshold(pos, self.HYPER.beta)
            lo = 0
            for block_pos, sims, record, _ in calls:
                local = np.arange(len(block_pos))
                assert block_pos.tobytes() == sims[local, lo + local].tobytes(), rows
                for r, i in enumerate(range(lo, lo + len(block_pos))):
                    if i >= 6:
                        continue
                    copy = 9 + 2 * i
                    assert sims[r, copy].tobytes() == block_pos[r].tobytes(), (rows, i)
                    if block_pos[r] >= sigma:
                        assert record.scales[r, copy] == self.STATE.t + block_pos[r]
                        hard += 1
                lo += len(block_pos)
        assert hard > 0

    def traced_step_peak(self, n_queries):
        """The step's tracemalloc peak, in MB, on a progressive batch of
        n_queries queries with five negatives each (M = 6 * n_queries)."""
        enc, batch = self.batch(n_queries=n_queries, seed=2)
        assert len(batch.cand_embs) == 6 * n_queries
        tracemalloc.start()
        try:
            self.step(enc, batch, "progressive")
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    def test_step_memory_stays_far_below_one_pool_matrix(self):
        """At B = 1,024 and M = 6,144 one (B, M) float64 array is 50 MB; the
        step's traced peak is 3.8 MB (16-row blocks, a few arrays each)."""
        assert self.traced_step_peak(1024) < 3.8 * 1.25

    def test_step_memory_at_a_large_pool(self):
        """At B = 4,096 and M = 24,576 one (B, M) float64 array is 805 MB and
        one 16-row block's array 3.1 MB; the step's traced peak is 14.4 MB."""
        assert self.traced_step_peak(4096) < 14.4 * 1.25


class TestStepZeroNormRule:
    """Only the encoder can make a zero embedding, and it rejects one; the
    step takes the encoder's unit rows as they are."""

    def test_zero_norm_encoding_fails_at_its_step(self):
        """The encoder rejects a zero embedding before any similarity is
        formed; fine-tuning reports it with the step that met it."""
        _, enc, tokens = make_fixture(seed=14)
        enc.token_table[tokens.take([0]).ids] = 0.0
        with pytest.raises(
            ValueError,
            match=r"fine-tune step \d+ \(epoch 0\): encoder produced a zero-norm embedding",
        ):
            finetune(tiny_dataset(), tokens, enc, HyperParams(tau=0.1), 1, batch_size=1, seed=0)


class TestPretrain:
    def test_curve_length_and_decrease(self):
        tok, enc, tokens = make_fixture(seed=1)
        dec = MaeDecoder.create(8, 6, len(tok.id_to_token), seed=1)
        losses = pretrain(tokens, enc, dec, 12, mask_ratio=0.3, batch_size=3,
                          lr=0.05, seed=0)
        assert len(losses) == 12
        assert losses[-1] < losses[0]

    def test_epoch_zero_is_a_no_op(self):
        tok, enc, tokens = make_fixture(seed=2)
        dec = MaeDecoder.create(8, 6, len(tok.id_to_token), seed=2)
        before = enc.token_table.copy()
        assert pretrain(tokens, enc, dec, 0, seed=0) == []
        np.testing.assert_array_equal(enc.token_table, before)

    def test_deterministic_per_seed(self):
        losses = []
        for _ in range(2):
            tok, enc, tokens = make_fixture(seed=4)
            dec = MaeDecoder.create(8, 6, len(tok.id_to_token), seed=4)
            losses.append(pretrain(tokens, enc, dec, 3, batch_size=2, lr=0.02, seed=9))
        assert losses[0] == losses[1]

    def test_empty_corpus_rejected(self):
        tok, enc, tokens = make_fixture()
        dec = MaeDecoder.create(8, 6, len(tok.id_to_token), seed=0)
        with pytest.raises(ValueError):
            pretrain(tokens.take([]), enc, dec, 1)

    def test_injected_nan_names_its_step(self):
        """A NaN in the output matrix gives a NaN loss; the run stops at that
        step and leaves the parameters as they were."""
        tok, enc, tokens = make_fixture(seed=3)
        dec = MaeDecoder.create(8, 6, len(tok.id_to_token), seed=3)
        dec.output[0, 5] = np.nan
        before = enc.token_table.copy()
        with np.errstate(all="ignore"), pytest.raises(
            ValueError, match=r"pretrain step 0 \(epoch 0\): non-finite reconstruction loss"
        ):
            pretrain(tokens, enc, dec, 2, batch_size=3, seed=0)
        np.testing.assert_array_equal(enc.token_table, before)

    def test_non_finite_update_names_its_step(self):
        tok, enc, tokens = make_fixture(seed=3)
        dec = MaeDecoder.create(8, 6, len(tok.id_to_token), seed=3)
        with np.errstate(all="ignore"), pytest.raises(
            ValueError, match=r"pretrain step \d+ \(epoch 0\): non-finite \w+ after the update"
        ):
            pretrain(tokens, enc, dec, 2, batch_size=3, lr=1e308, optimizer="sgd", seed=0)


def state_of(enc, dec, opt):
    """Copies of the two parameter vectors and of the AdamW moments, by name."""
    state = {"encoder": enc.params.copy(), "decoder": dec.params.copy()}
    for name in opt._m:
        state[f"m.{name}"], state[f"v.{name}"] = opt._m[name].copy(), opt._v[name].copy()
    return state


class TestPretrainStreamedStep:
    """pretrain steps the decoder, then the encoder, as the kernel hands out
    each one's gradient: one model vector per optimizer call, updated in
    place."""

    @staticmethod
    def record(monkeypatch, poison_chunk=None):
        """Wrap the kernel and the optimizer factory. Returns the list of
        chunks, each (clean, corrupted, {name: copy of the gradient vector
        as handed out}, [(params, grads) of each optimizer call]), and the
        list of optimizers made. At poison_chunk the parameters and moments
        are copied into `snapshot` and the chunk's first loss is made NaN."""
        chunks, opts, snapshot = [], [], {}

        def kernel(enc, dec, clean, corrupted):
            losses, grads = encoder._mae_forward_backward(enc, dec, clean, corrupted)
            copies = {}
            if len(chunks) == poison_chunk:
                snapshot.update(state_of(enc, dec, opts[0]))
                losses = [math.nan, *losses[1:]]
            chunks.append((clean, corrupted, copies, []))

            def stream():
                for name, grad in zip(("decoder", "encoder"), grads, strict=True):
                    copies[name] = grad.params.copy()
                    yield grad

            return losses, stream()

        def make(*args, _make=training.make_optimizer, **kwargs):
            opt = _make(*args, **kwargs)

            def step(params, grads, _step=opt.step):
                chunks[-1][3].append((dict(params), dict(grads)))
                _step(params, grads)

            opt.step = step
            opts.append(opt)
            return opt

        monkeypatch.setattr(training, "_mae_forward_backward", kernel)
        monkeypatch.setattr(training, "make_optimizer", make)
        return chunks, opts, snapshot

    @staticmethod
    def model(seed):
        tok, enc, tokens = make_fixture(seed=seed)
        dec = MaeDecoder.create(8, 6, len(tok.id_to_token), seed=seed)
        dec.output[...] = np.random.default_rng(seed).normal(0, 0.3, size=dec.output.shape)
        return enc, dec, tokens

    def test_each_chunk_steps_the_decoder_then_the_encoder(self, monkeypatch):
        """Per chunk exactly two optimizer calls: the decoder's own vector
        with its gradient, then the encoder's with its gradient, the two
        gradients over the front of one buffer."""
        enc, dec, tokens = self.model(seed=5)
        chunks, _, _ = self.record(monkeypatch)
        pretrain(tokens, enc, dec, 2, batch_size=4, lr=0.05, seed=0)
        assert len(chunks) == 4
        for *_, calls in chunks:
            assert [(list(params), list(grads)) for params, grads in calls] == [
                (["decoder"], ["decoder"]), (["encoder"], ["encoder"])]
            (dec_params, dec_grads), (enc_params, enc_grads) = calls
            assert dec_params["decoder"] is dec.params and enc_params["encoder"] is enc.params
            assert dec_grads["decoder"].base is enc_grads["encoder"].base
            assert dec_grads["decoder"].shape == dec.params.shape
            assert enc_grads["encoder"].shape == enc.params.shape

    @pytest.mark.parametrize("optimizer, weight_decay",
                             [("adamw", 0.0), ("adamw", 0.05), ("sgd", 0.0), ("sgd", 0.05)])
    def test_matches_whole_dict_oracle_step(self, monkeypatch, optimizer, weight_decay):
        """Replayed from the same start, each chunk's gradients collected as
        a whole dict before any update are the bytes the stream handed out,
        and the oracle's whole-dict step (OracleAdamW, or p - lr * g - lr *
        weight_decay * p) gives the same parameters and moments."""
        lr = 0.05
        enc, dec, tokens = self.model(seed=5)
        want = {"encoder": enc.params.copy(), "decoder": dec.params.copy()}
        chunks, opts, _ = self.record(monkeypatch)
        pretrain(tokens, enc, dec, 2, batch_size=4, lr=lr, weight_decay=weight_decay,
                 optimizer=optimizer, seed=0)
        assert len(chunks) == 4
        ref = OracleAdamW(lr=lr, weight_decay=weight_decay)
        for clean, corrupted, streamed, _ in chunks:
            replay_enc = replace(enc, params=want["encoder"])
            replay_dec = replace(dec, params=want["decoder"])
            _, grads = encoder._mae_forward_backward(replay_enc, replay_dec, clean, corrupted)
            grads = {name: grad.params.copy() for name, grad in zip(("decoder", "encoder"), grads)}
            assert grads.keys() == streamed.keys()
            for name, grad in grads.items():
                assert grad.tobytes() == streamed[name].tobytes(), name
                grad /= len(clean)
            if optimizer == "adamw":
                want = ref.step(want, grads)
            else:
                want = oracle_descent(want, grads, lr, weight_decay)
        for name, p in (("encoder", enc.params), ("decoder", dec.params)):
            assert p.tobytes() == want[name].tobytes(), name
        if optimizer == "adamw":
            for name in want:
                assert opts[0]._m[name].tobytes() == ref._m[name].tobytes(), name
                assert opts[0]._v[name].tobytes() == ref._v[name].tobytes(), name
                assert opts[0]._t[name] == 4

    def test_non_finite_loss_leaves_parameters_and_moments(self, monkeypatch):
        """A NaN loss at the third chunk stops the run before any of that
        chunk's updates: parameters and moments are those of the second."""
        enc, dec, tokens = self.model(seed=6)
        _, opts, snapshot = self.record(monkeypatch, poison_chunk=2)
        with pytest.raises(ValueError,
                           match=r"pretrain step 2 \(epoch 0\): non-finite reconstruction loss"):
            pretrain(tokens, enc, dec, 1, batch_size=2, lr=0.05, weight_decay=0.05, seed=0)
        assert snapshot and snapshot.keys() == state_of(enc, dec, opts[0]).keys()
        for key, value in state_of(enc, dec, opts[0]).items():
            assert value.tobytes() == snapshot[key].tobytes(), key

    def test_step_memory_is_parameters_moments_and_one_buffer(self, monkeypatch):
        """3 chunks at V = 8,000, d = 16, under tracemalloc from before the
        model is made. From the second chunk on, each chunk's traced peak
        stays below the parameters, their two moments, one buffer of the
        larger model vector and an allowance of four of the kernel's column
        blocks (1.05 MB; the kernel's transients peak at 0.83 MB here). A
        step that also holds both models' gradients or a fresh copy of the
        parameters is 2 MB or more above it."""
        allowance = 4 * encoder.MAE_BLOCK * 8
        words = [f"w{i}" for i in range(7_998)]
        tok = Tokenizer.from_texts([" ".join(words)])
        rng = np.random.default_rng(0)
        tokens = tok.encode_texts(" ".join(rng.choice(words, size=10)) for _ in range(12))
        peaks = []

        def kernel(*args):
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            return encoder._mae_forward_backward(*args)

        monkeypatch.setattr(training, "_mae_forward_backward", kernel)
        tracemalloc.start()
        try:
            enc = ToyEncoder.create(tok.vocab_size, 16, seed=0)
            dec = MaeDecoder.create(10, 16, tok.vocab_size, seed=0)
            pretrain(tokens, enc, dec, 1, batch_size=4, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        params = [enc.params, dec.params]
        total, largest = sum(p.nbytes for p in params), max(p.nbytes for p in params)
        assert tok.vocab_size == 8_000 and len(peaks) == 4
        # peaks[k] is chunk k's peak, k = 1, 2, 3
        for peak in peaks[2:]:
            assert peak < 3 * total + largest + allowance


def tiny_dataset():
    """Three examples over the rows of make_fixture's store."""
    return training_set([(0, 1, (2,)), (3, 4, (5,)), (2, 5, ())])


class TestFinetune:
    def test_audit_row_per_step(self):
        _, enc, tokens = make_fixture(seed=6)
        result = finetune(tiny_dataset(), tokens, enc, HyperParams(tau=0.1), 4,
                          batch_size=2, lr=0.01, seed=0)
        assert len(result.audit) == 4 * 2
        assert [a.step for a in result.audit] == list(range(8))

    def test_momentum_column_replays_from_sigma(self):
        """t in the audit follows the momentum recursion driven by the
        batch means recovered from the sigma column."""
        hyper = HyperParams(alpha=0.5, beta=0.1, tau=0.1)
        _, enc, tokens = make_fixture(seed=7)
        result = finetune(tiny_dataset(), tokens, enc, hyper, 5, batch_size=2,
                          lr=0.01, seed=1)
        t = 0.0
        for row in result.audit:
            mean_pos = row.sigma + hyper.beta
            t = hyper.alpha * mean_pos + (1 - hyper.alpha) * t
            np.testing.assert_allclose(row.t, t, atol=1e-12)

    def test_final_momentum_state_matches_audit(self):
        _, enc, tokens = make_fixture(seed=8)
        result = finetune(tiny_dataset(), tokens, enc, HyperParams(tau=0.1), 3,
                          batch_size=3, lr=0.01, seed=2)
        assert result.state.t == result.audit[-1].t

    def test_deterministic_with_fallback_optimizer(self):
        finals = []
        for _ in range(2):
            _, enc, tokens = make_fixture(seed=10)
            finetune(tiny_dataset(), tokens, enc, HyperParams(tau=0.1), 3,
                     batch_size=2, lr=0.05, optimizer="sgd", seed=3)
            finals.append((enc.token_table.copy(), enc.projection.copy()))
        np.testing.assert_array_equal(finals[0][0], finals[1][0])
        np.testing.assert_array_equal(finals[0][1], finals[1][1])

    def test_training_pulls_positives_closer(self):
        _, enc, tokens = make_fixture(seed=11)
        data = tiny_dataset()
        before = np.mean(batch_similarities(build_batch(data, [0, 1, 2], tokens, enc))[0])
        finetune(data, tokens, enc, HyperParams(tau=0.1), 30, batch_size=3,
                 lr=0.05, optimizer="sgd", seed=4)
        after = np.mean(batch_similarities(build_batch(data, [0, 1, 2], tokens, enc))[0])
        assert after > before

    def test_epochs_zero_is_a_no_op(self):
        _, enc, tokens = make_fixture(seed=12)
        before = enc.projection.copy()
        result = finetune(tiny_dataset(), tokens, enc, HyperParams(), 0, seed=0)
        assert result.audit == []
        np.testing.assert_array_equal(enc.projection, before)

    def test_unknown_loss_mode_rejected(self):
        _, enc, tokens = make_fixture()
        with pytest.raises(ValueError, match="loss_mode"):
            finetune(tiny_dataset(), tokens, enc, HyperParams(), 1, loss_mode="triplet")

    def test_initial_momentum_state_respected(self):
        hyper = HyperParams(alpha=0.5, beta=0.1, tau=0.1)
        _, enc, tokens = make_fixture(seed=13)
        start = MomentumState(t=0.8, step=100)
        result = finetune(tiny_dataset(), tokens, enc, hyper, 1, batch_size=3,
                          lr=0.01, seed=5, initial_state=start)
        row = result.audit[0]
        expected = hyper.alpha * (row.sigma + hyper.beta) + (1 - hyper.alpha) * 0.8
        np.testing.assert_allclose(row.t, expected, atol=1e-12)
        assert result.state.step == start.step + len(result.audit)

    def test_one_gradient_vector_per_run_and_parameters_updated_in_place(self, monkeypatch):
        """Every step hands the optimizer the same gradient vector, filled by
        that step, and the encoder's own vector, which it updates in place."""
        _, enc, tokens = make_fixture(seed=6)
        params, before = enc.params, enc.params.copy()
        calls = []

        def make(*args, _make=training.make_optimizer, **kwargs):
            opt = _make(*args, **kwargs)

            def step(params, grads, _step=opt.step):
                calls.append((dict(params), dict(grads), grads["encoder"].copy()))
                _step(params, grads)

            opt.step = step
            return opt

        monkeypatch.setattr(training, "make_optimizer", make)
        finetune(tiny_dataset(), tokens, enc, HyperParams(tau=0.1), 2, batch_size=2,
                 lr=0.01, seed=0)
        assert len(calls) == 4
        grad = calls[0][1]["encoder"]
        assert grad.shape == params.shape and not np.shares_memory(grad, params)
        for step_params, step_grads, _ in calls:
            assert list(step_params) == list(step_grads) == ["encoder"]
            assert step_params["encoder"] is params and step_grads["encoder"] is grad
        assert calls[0][2].tobytes() != calls[1][2].tobytes()
        assert enc.params is params and not np.array_equal(params, before)

    def test_injected_nan_names_its_step(self):
        """A NaN in the projection gives NaN similarities and a NaN loss; the
        run stops at that step and leaves the parameters as they were."""
        _, enc, tokens = make_fixture(seed=16)
        enc.projection[0, 0] = np.nan
        before = enc.token_table.copy()
        with np.errstate(all="ignore"), pytest.raises(
            ValueError, match=r"fine-tune step 0 \(epoch 0\): non-finite contrastive loss"
        ):
            finetune(tiny_dataset(), tokens, enc, HyperParams(tau=0.1), 2, batch_size=2, seed=0)
        np.testing.assert_array_equal(enc.token_table, before)

    def test_non_finite_update_names_its_step(self):
        _, enc, tokens = make_fixture(seed=16)
        with np.errstate(all="ignore"), pytest.raises(
            ValueError, match=r"fine-tune step \d+ \(epoch 0\): non-finite \w+ after the update"
        ):
            finetune(tiny_dataset(), tokens, enc, HyperParams(tau=0.1), 2, batch_size=2,
                     lr=1e308, optimizer="sgd", seed=0)

    def test_non_finite_adamw_update_names_its_step(self, monkeypatch):
        """A NaN in one gradient entry at step 1: the loss stays finite, and
        AdamW's update names the step."""
        _, enc, tokens = make_fixture(seed=16)
        kernel, steps = training._step_loss_and_gradients, []

        def poisoned(batch, enc, state, hyper, loss_mode, grad):
            out = kernel(batch, enc, state, hyper, loss_mode, grad)
            steps.append(len(steps))
            if len(steps) == 2:
                grad.params[grad.params.size // 2] = np.nan
            return out

        monkeypatch.setattr(training, "_step_loss_and_gradients", poisoned)
        with np.errstate(all="ignore"), pytest.raises(
            ValueError, match=r"^fine-tune step 1 \(epoch 0\): non-finite encoder after the update$"
        ):
            finetune(tiny_dataset(), tokens, enc, HyperParams(tau=0.1), 2, batch_size=2,
                     optimizer="adamw", seed=0)
        assert steps == [0, 1]
