"""Tests for cosine similarity, similarity matrices, top-k, and log-sum-exp."""

import math
import tracemalloc

import numpy as np
import pytest
from oracles import oracle_blocked_topk, oracle_log_sum_exp

from progemb import mining, similarity
from progemb.evaluation import rank_gallery
from progemb.mining import mine_hard_negatives
from progemb.similarity import _unit_rows, cosine, sim_matrix, top_k


def bits(hits):
    """Each hit's ids and its scores' bytes: equal bits, not just equal values."""
    return [(names, np.array(scores, dtype=np.float64).tobytes()) for names, scores in hits]


def mined_bits(queries, ids, embs, exclude, k):
    """`bits` of mine_hard_negatives' lists, as top_k's (ids, scores) pairs."""
    mined = mine_hard_negatives(queries, ids, embs, exclude, k)
    return bits(tuple(zip(*pairs)) or ((), ()) for pairs in mined)


class TestCosine:
    def test_parallel_vectors(self):
        assert cosine(np.array([1.0, 0.0]), np.array([2.0, 0.0])) == 1.0

    def test_orthogonal_vectors(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 3.0])) == 0.0

    def test_opposite_vectors(self):
        value = cosine(np.array([1.0, 1.0]), np.array([-2.0, -2.0]))
        np.testing.assert_allclose(value, -1.0, atol=1e-15)

    def test_known_angle(self):
        """45 degrees between (1,0) and (1,1)."""
        value = cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(value, 1.0 / math.sqrt(2), atol=1e-15)

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = rng.normal(size=5)
            b = rng.normal(size=5)
            s = rng.uniform(0.1, 100.0)
            np.testing.assert_allclose(cosine(a, b), cosine(s * a, b), atol=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a = rng.normal(size=4)
            b = rng.normal(size=4)
            assert cosine(a, b) == cosine(b, a)

    def test_bounded(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            a = rng.normal(size=3) * rng.uniform(0.01, 1000)
            b = rng.normal(size=3) * rng.uniform(0.01, 1000)
            assert -1.0 <= cosine(a, b) <= 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine(np.ones(3), np.ones(4))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            cosine(np.zeros(3), np.ones(3))


class TestSimMatrix:
    def test_matches_pairwise_cosine(self):
        rng = np.random.default_rng(11)
        q = rng.normal(size=(4, 6))
        c = rng.normal(size=(7, 6))
        s = sim_matrix(q, c)
        assert s.shape == (4, 7)
        for i in range(4):
            for j in range(7):
                np.testing.assert_allclose(s[i, j], cosine(q[i], c[j]), atol=1e-12)

    def test_self_similarity_diagonal(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(5, 3))
        s = sim_matrix(x, x)
        np.testing.assert_allclose(np.diag(s), 1.0, atol=1e-12)

    def test_values_clipped_to_unit_interval(self):
        rng = np.random.default_rng(13)
        s = sim_matrix(rng.normal(size=(10, 4)), rng.normal(size=(10, 4)))
        assert np.all(s <= 1.0) and np.all(s >= -1.0)

    def test_zero_row_rejected(self):
        q = np.ones((2, 3))
        q[1] = 0.0
        with pytest.raises(ValueError, match="1"):
            sim_matrix(q, np.ones((2, 3)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sim_matrix(np.ones((2, 3)), np.ones((2, 4)))


class TestTopK:
    def test_verbatim_copies_score_equal_and_list_by_id(self):
        """Byte-identical rows, some in the gallery's tail, score exactly
        alike, so ascending id orders them, also across the k-boundary."""
        rng = np.random.default_rng(29)
        m, d, source = 1055, 32, 177
        embs = rng.normal(size=(m, d))
        copies = [source, 400, 641, 1040, 1052, 1053, 1054]
        embs[copies] = embs[source]
        ids = [f"p{i:04d}" for i in rng.permutation(m)]
        copy_ids = sorted(ids[i] for i in copies)
        queries = embs[source] + 0.3 * rng.normal(size=(300, d))
        others = [{ids[int(j)]} for j in rng.integers(0, source, size=len(queries))]
        mined = mine_hard_negatives(queries, ids, embs, others, k=5)
        ranked = rank_gallery([str(i) for i in range(len(queries))], queries, [(ids, embs)], 10)
        for cands, hits in zip(mined, ranked):
            assert [pid for pid, _ in cands] == copy_ids[:5]
            assert len({s for _, s in cands}) == 1
            assert hits.doc_ids[:7] == tuple(copy_ids)
            assert len(set(hits.scores[:7])) == 1
            assert hits.scores[:5] == tuple(s for _, s in cands)

    @staticmethod
    def block_free(monkeypatch, queries, ids, embs, exclude):
        """top_k's lists, and the bits of mine_hard_negatives' lists less
        exclude, with the gallery whole, checked to be the same, bit for
        bit, with the gallery fed in blocks of 1, 97 and 1,024 rows, and in
        97-row blocks at TOPK_BLOCK 1, 97, 4,099 and 30,011. The miner's
        one gallery array is fed in blocks through the top_k it calls."""
        m = len(ids)
        default = list(top_k(queries, [(ids, embs)], 8))
        mined = mined_bits(queries, ids, embs, exclude, 8)

        def fed(rows):
            return [(ids[lo : lo + rows], embs[lo : lo + rows]) for lo in range(0, m, rows)]

        def check(rows):
            got = list(top_k(queries, fed(rows), 8))
            assert got == default
            assert bits(got) == bits(default)
            with monkeypatch.context() as patch:
                patch.setattr(mining, "top_k", lambda q, _, k: top_k(q, fed(rows), k))
                assert mined_bits(queries, ids, embs, exclude, 8) == mined

        # the caller's blocks do not shape the tiles
        for rows in (1, 97, 1024):
            check(rows)
        for block in (1, 97, 4099, 30011):
            with monkeypatch.context() as patch:
                patch.setattr(similarity, "TOPK_BLOCK", block)
                check(97)
        return default, mined

    def test_output_is_byte_identical_at_any_block_size(self, monkeypatch):
        rng = np.random.default_rng(31)
        m = 3000
        embs = rng.normal(size=(m, 16))
        embs[2990:] = embs[5]
        ids = [f"p{i:04d}" for i in rng.permutation(m)]
        queries = np.concatenate(
            [rng.normal(size=(125, 16)), embs[5] + 0.5 * rng.normal(size=(125, 16))]
        )
        exclude = [{ids[int(j)] for j in rng.integers(0, m, size=3)} for _ in queries]
        assert len(queries) * m > 2 * similarity.TOPK_BLOCK
        self.block_free(monkeypatch, queries, ids, embs, exclude)
        # hundreds of byte-identical rows tie at every near query's k-th
        # score, and the last block of query rows is short: its entries are
        # cut to k a row like any other block's
        m = 2000
        embs = rng.normal(size=(m, 16))
        embs[600:1200], embs[1500:1700] = embs[5], embs[7]
        ids = [f"p{i:04d}" for i in rng.permutation(m)]
        queries = np.concatenate([embs[5] + 0.3 * rng.normal(size=(30, 16)),
                                  embs[7] + 0.3 * rng.normal(size=(7, 16))])
        assert len(queries) % (similarity.TOPK_BLOCK // (similarity.TOPK_BLOCK // 16))
        exclude = [{ids[int(j)] for j in rng.integers(0, m, size=3)} for _ in queries]
        got, mined = self.block_free(monkeypatch, queries, ids, embs, exclude)
        assert bits(got) == bits(oracle_blocked_topk(queries, embs, ids, 8))
        assert mined == bits(oracle_blocked_topk(queries, embs, ids, 8, exclude))

    def test_bad_input_rejected(self):
        embs = np.ones((2, 3))
        for blocks, k in [([(["a", "b"], embs)], 0), ([([], embs[:0])], 1), ([], 1),
                          ([(["a"], embs)], 1), ([(["a", "b"], np.ones((2, 4)))], 1)]:
            with pytest.raises(ValueError):
                top_k(embs[:1], blocks, k)

    def test_non_finite_gallery_row_rejected(self):
        """It used to drop out of every list, each one hit short."""
        g = np.eye(4)
        g[2, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite vector: gallery row 2"):
            top_k([[1, 0.2, 0, 0]], [(list("abcd"), g)], 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite vector: queries row 1"):
            top_k([[1, 0, 0, 0], [bad, 0, 0, 0]], [(list("abcd"), np.eye(4))], 2)


class TestScreenedTopK:
    """`top_k` screens with a BLAS product and rescores with einsum; its lists
    and score bits are those of the blocked-einsum oracle it replaced."""

    @pytest.mark.parametrize("d", [1, 2, 7, 16, 32, 64])
    def test_matches_the_blocked_einsum_oracle(self, monkeypatch, d):
        rng = np.random.default_rng(1000 + d)
        flipped = 0
        for _ in range(10):
            n = int(rng.integers(1, 60))
            rows = rng.normal(size=(n, d))
            # verbatim copies of one row, and near ties: copies of rows moved
            # one ulp in one component
            copies = np.repeat(rows[rng.integers(n)][None], int(rng.integers(0, 6)), axis=0)
            src = rng.integers(0, n, size=n // 2 + 1)
            twins, at = rows[src].copy(), (np.arange(len(src)), rng.integers(0, d, size=len(src)))
            twins[at] = np.nextafter(twins[at], rng.choice([-np.inf, np.inf], size=len(src)))
            order = rng.permutation(n + len(copies) + len(src))
            gallery = np.concatenate([rows, copies, twins])[order]
            m = len(gallery)
            # ids that numpy's string order would tie: "p7" and "p7\x00"
            ids = [f"p{j // 2}" + "\x00" * (j % 2) for j in rng.permutation(m).tolist()]
            queries = np.concatenate([
                rng.normal(size=(int(rng.integers(1, 20)), d)),
                gallery[rng.integers(0, m, size=8)],  # they score the +1 clip
                gallery[rng.integers(0, m, size=8)] + 1e-3 * rng.normal(size=(8, d)),
            ])
            exclude = [set(rng.choice(ids, size=int(rng.integers(0, 4)), replace=False))
                       | {"unknown"} for _ in queries]
            exclude[0], exclude[1] = set(ids), set(ids[1:])
            k = int(rng.integers(1, m + 3))
            want = bits(oracle_blocked_topk(queries, gallery, ids, k, exclude))
            plain = bits(oracle_blocked_topk(queries, gallery, ids, k))
            assert want[0] == ((), b"") and len(want[1][0]) == 1
            for block in (1, 7, int(rng.integers(8, 400)), 1 << 16):
                monkeypatch.setattr(similarity, "TOPK_BLOCK", block)
                assert mined_bits(queries, ids, gallery, exclude, k) == want
                assert bits(top_k(queries, [(ids, gallery)], k)) == plain
            q, g = _unit_rows(queries, "q"), _unit_rows(gallery, "g")
            where = np.argsort(order)
            row, twin = where[src], where[n + len(copies) + np.arange(len(src))]
            blas, einsum = q @ g.T, np.einsum("qd,md->qm", q, g)
            flipped += int((np.sign(blas[:, row] - blas[:, twin])
                            != np.sign(einsum[:, row] - einsum[:, twin])).sum())
        # the near ties test the slack: BLAS and einsum order some apart. At
        # d = 1 both products are one exact multiplication.
        assert flipped > 0 or d == 1

    D, K = 16, 8
    WIDTH = similarity.TOPK_BLOCK // D // 4  # rows of the first tiles

    def rescoring(self, m, monkeypatch):
        """Per query, the pairs einsum rescores over an m-row gallery with
        exact ties, and the clipped einsum scores."""
        rng = np.random.default_rng(37)
        d, k = self.D, self.K
        embs = rng.normal(size=(m, d))
        embs[m - 20 :] = embs[5]
        ids = [f"p{i:04d}" for i in rng.permutation(m)]
        queries = np.concatenate([rng.normal(size=(150, d)),
                                  embs[5] + 0.3 * rng.normal(size=(150, d))])
        q, g = _unit_rows(queries, "q"), _unit_rows(embs, "g")
        scores = np.clip(np.einsum("qd,md->qm", q, g), -1.0, 1.0)
        kth = np.sort(scores, axis=1)[:, -k]
        assert ((scores >= kth[:, None]).sum(axis=1) > k).any()  # ties at the k-th score
        query_of = {row.tobytes(): i for i, row in enumerate(q)}
        rescored = np.zeros(len(q), dtype=int)
        einsum = np.einsum

        def counting(spec, a, b):
            if spec == "nd,nd->n":
                np.add.at(rescored, [query_of[row.tobytes()] for row in a], 1)
            return einsum(spec, a, b)

        monkeypatch.setattr(np, "einsum", counting)
        list(top_k(queries, [(ids, embs)], k))
        monkeypatch.undo()
        assert (rescored >= k).all()
        return rescored, scores

    def test_rescores_only_the_k_best_and_their_ties(self, monkeypatch):
        """Within one tile, einsum rescores, per query, at least k pairs and
        at most the columns at or above the k-th score: the screen prunes
        the rest."""
        rescored, scores = self.rescoring(self.WIDTH, monkeypatch)
        kth = np.sort(scores, axis=1)[:, -self.K]
        assert (rescored <= (scores >= kth[:, None]).sum(axis=1)).all()

    def test_rescores_against_the_running_kth_score_over_tiles(self, monkeypatch):
        """A screened tile is not held, so a column is rescored against the
        running k-th score of the gallery up to its tile, less the screen's
        slack: over several tiles, the bound is the sum over the tiles of
        their columns at or above that score."""
        m, width = 3000, self.WIDTH
        assert 2 * width < m < 3 * width
        rescored, scores = self.rescoring(m, monkeypatch)
        # the slack and the two products' rounding: 8 gamma_d + 8 eps
        margin = 16 * (self.D + 1) * np.finfo(np.float64).eps
        running = np.zeros(len(scores), dtype=int)
        for lo in range(0, m, width):
            kth = np.sort(scores[:, : lo + width], axis=1)[:, -self.K]
            running += (scores[:, lo : lo + width] >= kth[:, None] - margin).sum(axis=1)
        assert (rescored <= running).all()

    def test_memory_is_bounded_by_the_tiles(self):
        """Beyond its unit-norm copy of the queries and its (Q, k) state,
        top_k holds a few TOPK_BLOCK-entry arrays: no copy of the gallery,
        no set of its ids, no gallery-long rank or score array, no (Q, M)
        score matrix, and no gathers of every query's k candidate rows."""
        rng = np.random.default_rng(41)
        m, d, nq, k = 50_000, 16, 2_000, 50
        embs, queries = rng.normal(size=(m, d)), rng.normal(size=(nq, d))
        ids = [f"p{i:05d}" for i in range(m)]
        tracemalloc.start()
        try:
            hits = top_k(queries, [(ids, embs)], k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(len(names) == k for names, _ in hits)
        # best, then the found (row, id, score) entries: those held, and the
        # copies that `compact` makes of them
        queries_copy, state = 8 * nq * d, 8 * (1 + 3 + 4) * nq * k
        tiles = 8 * 4 * similarity.TOPK_BLOCK
        bound = queries_copy + state + tiles
        assert peak < bound
        # a unit-norm copy of the gallery, or gathering each query's k rows
        # and its own rows at once, would not fit
        assert 8 * m * d > bound - peak
        assert 8 * 2 * nq * k * d > bound


class TestLogSumExp:
    def test_matches_naive_when_safe(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            v = rng.uniform(-10, 10, size=rng.integers(1, 8))
            naive = math.log(sum(math.exp(x) for x in v))
            np.testing.assert_allclose(oracle_log_sum_exp(v), naive, atol=1e-12)

    def test_no_overflow_for_large_inputs(self):
        v = np.array([1000.0, 1000.0])
        np.testing.assert_allclose(oracle_log_sum_exp(v), 1000.0 + math.log(2.0), atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(22)
        v = rng.uniform(-5, 5, size=6)
        np.testing.assert_allclose(
            oracle_log_sum_exp(v + 123.0), oracle_log_sum_exp(v) + 123.0, atol=1e-10
        )

    def test_single_element(self):
        assert oracle_log_sum_exp(np.array([3.5])) == 3.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            oracle_log_sum_exp(np.array([]))
