"""Tests for ranking and retrieval quality metrics.

Fixture values are hand computed from the metric definitions: discounted
gain (2^grade - 1) / log2(rank + 1), reciprocal rank, recall against the
judged relevant set, and average precision over relevant ranks.
"""

import math

import numpy as np
import pytest
from oracles import oracle_topk

from progemb import evaluation
from progemb.evaluation import (
    METRICS,
    MetricReport,
    RankedList,
    average_precision,
    evaluate_run,
    mrr_at_k,
    ndcg_at_k,
    rank_gallery,
    recall_at_k,
)


def ranked(doc_ids, scores=None, query_id="q"):
    if scores is None:
        scores = tuple(float(len(doc_ids) - i) for i in range(len(doc_ids)))
    return RankedList(query_id, tuple(doc_ids), tuple(scores))


class TestRankedList:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RankedList("q", ("a", "b"), (1.0,))

    def test_duplicate_docs_rejected(self):
        with pytest.raises(ValueError):
            RankedList("q", ("a", "a"), (2.0, 1.0))

    def test_increasing_scores_rejected(self):
        with pytest.raises(ValueError):
            RankedList("q", ("a", "b"), (1.0, 2.0))

    def test_equal_scores_allowed(self):
        RankedList("q", ("a", "b"), (1.0, 1.0))


class TestRankGallery:
    def test_identical_vector_ranks_first_with_unit_score(self):
        rng = np.random.default_rng(0)
        embs = rng.normal(size=(10, 6))
        ids = [f"d{i}" for i in range(10)]
        [out] = rank_gallery(["q"], embs[3:4].copy(), ids, embs, depth=5)
        assert out.query_id == "q"
        assert out.doc_ids[0] == "d3"
        np.testing.assert_allclose(out.scores[0], 1.0, atol=1e-12)

    def test_depth_larger_than_gallery_returns_all(self):
        rng = np.random.default_rng(1)
        embs = rng.normal(size=(4, 3))
        [out] = rank_gallery(["q"], rng.normal(size=(1, 3)), list("abcd"), embs, depth=50)
        assert len(out.doc_ids) == 4

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(2)
        m = 200
        embs = rng.normal(size=(m, 8))
        ids = [f"d{i:03d}" for i in range(m)]
        queries = rng.normal(size=(30, 8))
        qids = [f"q{i}" for i in range(len(queries))]
        ranked = rank_gallery(qids, queries, ids, embs, depth=m)
        assert [r.query_id for r in ranked] == qids
        for q, out in zip(queries, ranked):
            expected = oracle_topk(q, ids, embs, set(), m)
            assert list(out.doc_ids) == [pid for pid, _ in expected]
            np.testing.assert_allclose(
                out.scores, [s for _, s in expected], atol=1e-12
            )

    def test_ties_break_by_ascending_doc_id(self):
        base = np.array([0.0, 1.0])
        embs = np.stack([base * 3.0, base, base * 2.0])
        [out] = rank_gallery(["q"], base[None], ["c", "a", "b"], embs, depth=3)
        assert out.doc_ids == ("a", "b", "c")

    def test_empty_gallery_rejected(self):
        with pytest.raises(ValueError):
            rank_gallery(["q"], np.ones((1, 3)), [], np.zeros((0, 3)), depth=5)

    def test_bad_depth_rejected(self):
        with pytest.raises(ValueError):
            rank_gallery(["q"], np.ones((1, 3)), ["a"], np.ones((1, 3)), depth=0)


class TestNdcg:
    def test_perfect_ranking_is_one(self):
        qrels = {"q": {"a": 1, "b": 1}}
        assert ndcg_at_k(ranked(["a", "b", "c"]), qrels) == pytest.approx(1.0, abs=1e-15)

    def test_single_hit_at_rank_two(self):
        qrels = {"q": {"b": 1}}
        got = ndcg_at_k(ranked(["a", "b", "c"]), qrels, k=10)
        assert got == pytest.approx(1.0 / math.log2(3.0), abs=1e-12)
        assert round(got, 5) == 0.63093

    def test_graded_gains_follow_exponential_formula(self):
        # retrieved: grade 1 at rank 1, grade 2 at rank 2; ideal is 2 then 1
        qrels = {"q": {"a": 1, "b": 2}}
        dcg = 1.0 / math.log2(2.0) + 3.0 / math.log2(3.0)
        idcg = 3.0 / math.log2(2.0) + 1.0 / math.log2(3.0)
        got = ndcg_at_k(ranked(["a", "b"]), qrels, k=10)
        assert got == pytest.approx(dcg / idcg, abs=1e-12)

    def test_ideal_counts_unretrieved_relevant_docs(self):
        # "b" is judged relevant but missing from the ranking, so the ideal
        # ranking still has two contributions and ndcg < 1
        qrels = {"q": {"a": 1, "b": 1}}
        got = ndcg_at_k(ranked(["a", "x", "y"]), qrels, k=10)
        ideal = 1.0 / math.log2(2.0) + 1.0 / math.log2(3.0)
        assert got == pytest.approx((1.0 / math.log2(2.0)) / ideal, abs=1e-12)

    def test_no_relevant_in_top_k_is_zero(self):
        qrels = {"q": {"z": 1}}
        assert ndcg_at_k(ranked(["a", "b", "c"]), qrels, k=3) == 0.0

    def test_no_judged_relevant_is_zero(self):
        assert ndcg_at_k(ranked(["a"]), {"q": {}}) == 0.0

    def test_truncates_at_k(self):
        qrels = {"q": {"c": 1}}
        assert ndcg_at_k(ranked(["a", "b", "c"]), qrels, k=2) == 0.0

    def test_swap_toward_front_never_hurts(self):
        """Moving the one relevant doc up a rank, all else fixed, cannot
        lower ndcg."""
        qrels = {"q": {"rel": 1}}
        docs = [f"d{i}" for i in range(9)]
        prev = None
        for pos in range(9, -1, -1):
            ids = docs[:pos] + ["rel"] + docs[pos:]
            got = ndcg_at_k(ranked(ids), qrels, k=10)
            if prev is not None:
                assert got >= prev
            prev = got


class TestMrr:
    def test_hit_at_rank_one(self):
        assert mrr_at_k(ranked(["a", "b"]), {"q": {"a": 1}}) == 1.0

    def test_hit_at_rank_four(self):
        got = mrr_at_k(ranked(["x", "y", "z", "a"]), {"q": {"a": 1}}, k=10)
        assert got == pytest.approx(0.25, abs=1e-15)

    def test_hit_beyond_cutoff_is_zero(self):
        ids = [f"d{i}" for i in range(10)] + ["a"]
        assert mrr_at_k(ranked(ids), {"q": {"a": 1}}, k=10) == 0.0

    def test_first_relevant_wins_with_many(self):
        qrels = {"q": {"b": 1, "d": 2}}
        got = mrr_at_k(ranked(["a", "b", "c", "d"]), qrels)
        assert got == pytest.approx(0.5, abs=1e-15)


class TestRecall:
    def test_all_found(self):
        qrels = {"q": {"a": 1, "b": 1}}
        assert recall_at_k(ranked(["a", "b", "c"]), qrels, k=2) == 1.0

    def test_half_found(self):
        qrels = {"q": {"a": 1, "z": 1}}
        assert recall_at_k(ranked(["a", "b", "c"]), qrels, k=3) == 0.5

    def test_divides_by_all_judged_relevant(self):
        rng = np.random.default_rng(3)
        docs = [f"d{i:03d}" for i in range(100)]
        rel = set(rng.choice(docs, size=20, replace=False).tolist())
        qrels = {"q": {d: 1 for d in rel}}
        k = 50
        got = recall_at_k(ranked(docs), qrels, k=k)
        expected = len(rel & set(docs[:k])) / len(rel)
        assert got == pytest.approx(expected, abs=1e-15)

    def test_no_relevant_rejected(self):
        with pytest.raises(ValueError):
            recall_at_k(ranked(["a"]), {"q": {}}, k=1)


class TestAveragePrecision:
    def test_hits_at_one_and_three(self):
        qrels = {"q": {"a": 1, "c": 1}}
        got = average_precision(ranked(["a", "b", "c", "d"]), qrels)
        assert got == pytest.approx(5.0 / 6.0, abs=1e-12)
        assert round(got, 5) == 0.83333

    def test_perfect_prefix_is_one(self):
        qrels = {"q": {"a": 1, "b": 1}}
        assert average_precision(ranked(["a", "b", "x"]), qrels) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_nothing_retrieved_is_zero(self):
        qrels = {"q": {"z": 1}}
        assert average_precision(ranked(["a", "b"]), qrels) == 0.0

    def test_unretrieved_relevant_still_in_denominator(self):
        qrels = {"q": {"a": 1, "gone": 1}}
        got = average_precision(ranked(["a", "b"]), qrels)
        assert got == pytest.approx(0.5, abs=1e-15)

    def test_no_relevant_rejected(self):
        with pytest.raises(ValueError):
            average_precision(ranked(["a"]), {"q": {}})


def identity_fixture(n=5, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    embs = rng.normal(size=(n, dim))
    ids = [f"d{i}" for i in range(n)]
    queries = [(f"q{i}", embs[i].copy()) for i in range(n)]
    qrels = {f"q{i}": {ids[i]: 1} for i in range(n)}
    return queries, ids, embs, qrels


class TestEvaluateRun:
    def test_identity_queries_score_one_everywhere(self):
        queries, ids, embs, qrels = identity_fixture()
        report = evaluate_run(queries, ids, embs, qrels)
        for qid in qrels:
            for metric in METRICS:
                assert report.per_query[qid][metric] == pytest.approx(1.0, abs=1e-12)
        for metric in METRICS:
            assert report.macro[metric] == pytest.approx(1.0, abs=1e-12)

    def test_two_query_hand_table(self):
        # orthonormal gallery; q0 matches d0 exactly, q1 prefers d0 over
        # its relevant d1, putting the hit at rank 2
        embs = np.eye(3)
        ids = ["d0", "d1", "d2"]
        q0 = embs[0].copy()
        q1 = np.array([0.9, 0.4, 0.0])
        qrels = {"q0": {"d0": 1}, "q1": {"d1": 1}}
        report = evaluate_run([("q0", q0), ("q1", q1)], ids, embs, qrels)
        assert report.per_query["q0"]["ndcg@10"] == pytest.approx(1.0, abs=1e-12)
        assert report.per_query["q1"]["ndcg@10"] == pytest.approx(
            1.0 / math.log2(3.0), abs=1e-12
        )
        assert report.per_query["q1"]["mrr@10"] == pytest.approx(0.5, abs=1e-15)
        assert report.per_query["q1"]["recall@1"] == 0.0
        assert report.per_query["q1"]["recall@10"] == 1.0
        assert report.macro["mrr@10"] == pytest.approx(0.75, abs=1e-15)

    def test_macro_is_mean_of_per_query_rows(self):
        rng = np.random.default_rng(7)
        embs = rng.normal(size=(30, 8))
        ids = [f"d{i}" for i in range(30)]
        queries = [(f"q{i}", rng.normal(size=8)) for i in range(10)]
        qrels = {
            f"q{i}": {f"d{int(j)}": 1 for j in rng.integers(0, 30, size=3)}
            for i in range(10)
        }
        report = evaluate_run(queries, ids, embs, qrels)
        for metric in METRICS:
            values = [report.per_query[q][metric] for q, _ in queries]
            assert report.macro[metric] == pytest.approx(
                sum(values) / len(values), abs=1e-12
            )

    def test_missing_embedding_recorded_not_fatal(self):
        queries, ids, embs, qrels = identity_fixture()
        queries[2] = ("q2", None)
        report = evaluate_run(queries, ids, embs, qrels)
        assert "q2" in report.errors
        assert "q2" not in report.per_query
        assert len(report.per_query) == 4

    def test_bad_queries_are_per_query_errors_in_a_mixed_batch(self, monkeypatch):
        rng = np.random.default_rng(5)
        embs = rng.normal(size=(40, 6))
        ids = [f"d{i:02d}" for i in range(40)]
        good = {f"q{i}": rng.normal(size=6) for i in range(6)}
        bad = {"q-none": None, "q-zero": np.zeros(6), "q-wide": np.ones(7)}
        queries = list(good.items()) + list(bad.items())
        queries = [queries[i] for i in rng.permutation(len(queries))]
        qrels = {qid: {ids[i]: 1} for i, qid in enumerate(good)}
        batched = []

        def spy(*args):
            out = rank_gallery(*args)
            batched.extend(out)
            return out

        monkeypatch.setattr(evaluation, "rank_gallery", spy)
        report = evaluate_run(queries, ids, embs, qrels, depth=10)
        assert set(report.errors) == set(bad)
        assert report.errors["q-none"] == "missing embedding"
        assert "zero-norm" in report.errors["q-zero"]
        assert "(7,)" in report.errors["q-wide"]
        assert set(report.per_query) == set(good)
        assert [r.query_id for r in batched] == sorted(good)
        for ranked in batched:
            alone = rank_gallery([ranked.query_id], good[ranked.query_id][None], ids, embs, 10)
            assert alone == [ranked]

    def test_zero_relevant_query_excluded_from_macro(self):
        queries, ids, embs, qrels = identity_fixture()
        qrels["q3"] = {}
        report = evaluate_run(queries, ids, embs, qrels)
        assert "q3" in report.excluded
        assert "q3" not in report.per_query
        values = [report.per_query[q]["recall@1"] for q in report.per_query]
        assert report.macro["recall@1"] == pytest.approx(
            sum(values) / len(values), abs=1e-12
        )

    def test_unjudged_query_also_excluded(self):
        queries, ids, embs, qrels = identity_fixture()
        del qrels["q1"]
        report = evaluate_run(queries, ids, embs, qrels)
        assert "q1" in report.excluded

    def test_include_zero_relevant_scores_rank_metrics_zero(self):
        queries, ids, embs, qrels = identity_fixture()
        qrels["q3"] = {}
        report = evaluate_run(
            queries, ids, embs, qrels, include_zero_relevant=True
        )
        row = report.per_query["q3"]
        assert row["ndcg@10"] == 0.0
        assert row["mrr@10"] == 0.0
        assert "recall@1" not in row
        assert "map" not in row
        # rank metrics average over 5 rows, recall over the 4 judged ones
        assert report.macro["ndcg@10"] == pytest.approx(4.0 / 5.0, abs=1e-12)
        assert report.macro["recall@1"] == pytest.approx(1.0, abs=1e-12)

    def test_doc_relabeling_invariance(self):
        rng = np.random.default_rng(11)
        embs = rng.normal(size=(25, 6))
        ids = [f"d{i}" for i in range(25)]
        queries = [(f"q{i}", rng.normal(size=6)) for i in range(8)]
        qrels = {
            f"q{i}": {f"d{int(j)}": 1 for j in rng.integers(0, 25, size=2)}
            for i in range(8)
        }
        report = evaluate_run(queries, ids, embs, qrels)

        relabel = {d: f"x{i:02d}" for i, d in enumerate(reversed(ids))}
        new_ids = [relabel[d] for d in ids]
        new_qrels = {
            q: {relabel[d]: g for d, g in rels.items()} for q, rels in qrels.items()
        }
        relabeled = evaluate_run(queries, new_ids, embs, new_qrels)
        for metric in METRICS:
            assert relabeled.macro[metric] == pytest.approx(
                report.macro[metric], abs=1e-12
            )

    def test_rows_sorted_by_query_id(self):
        queries, ids, embs, qrels = identity_fixture()
        report = evaluate_run(list(reversed(queries)), ids, embs, qrels)
        assert list(report.per_query) == sorted(report.per_query)

    def test_empty_gallery_rejected(self):
        with pytest.raises(ValueError):
            evaluate_run([("q", np.ones(3))], [], np.zeros((0, 3)), {"q": {"a": 1}})

    def test_report_type(self):
        queries, ids, embs, qrels = identity_fixture(n=2)
        report = evaluate_run(queries, ids, embs, qrels)
        assert isinstance(report, MetricReport)
        assert report.errors == {}
        assert report.excluded == ()
