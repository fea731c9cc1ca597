"""Tests for cosine similarity, similarity matrices, top-k, and log-sum-exp."""

import math

import numpy as np
import pytest
from oracles import oracle_log_sum_exp

from progemb import similarity
from progemb.evaluation import rank_gallery
from progemb.mining import mine_hard_negatives
from progemb.similarity import cosine, sim_matrix, top_k


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
        ranked = rank_gallery([str(i) for i in range(len(queries))], queries, ids, embs, 10)
        for cands, hits in zip(mined, ranked):
            assert [pid for pid, _ in cands] == copy_ids[:5]
            assert len({s for _, s in cands}) == 1
            assert hits.doc_ids[:7] == tuple(copy_ids)
            assert len(set(hits.scores[:7])) == 1
            assert hits.scores[:5] == tuple(s for _, s in cands)

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
        default = top_k(queries, embs, ids, 8, exclude)
        monkeypatch.setattr(similarity, "TOPK_BLOCK", 1)
        assert top_k(queries, embs, ids, 8, exclude) == default

    def test_exclusions_leave_a_short_list(self):
        embs = np.array([[1.0, 0.0], [1.0, 0.1], [0.0, 1.0]])
        ids = ["a", "b", "c"]
        [(got, scores)] = top_k(embs[:1], embs, ids, 5, [{"a", "c", "x"}])
        assert got == ("b",) and len(scores) == 1

    def test_bad_input_rejected(self):
        embs = np.ones((2, 3))
        for args in [(embs, ["a", "b"], 0), (embs[:0], [], 1), (embs, ["a"], 1),
                     (np.ones((2, 4)), ["a", "b"], 1)]:
            with pytest.raises(ValueError):
                top_k(embs[:1], *args)


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
