"""Tests for passage splitting, mining, judge filtering, and assembly."""

import re

import numpy as np
import pytest
from oracles import oracle_topk

from progemb.dataio import MAX_NEGATIVES, Passage, read_dataset, write_dataset
from progemb.mining import (
    assemble_dataset,
    filter_false_negatives,
    first_sentence_query,
    generate_queries,
    judge_for,
    mine_hard_negatives,
    split_passages,
)

always_irrelevant = judge_for("always_irrelevant", 0.95)
always_relevant = judge_for("always_relevant", 0.95)


def squash(text):
    return re.sub(r"\s+", "", text)


class TestPassageType:
    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            Passage("p1", "", "doc")

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            Passage("", "text", "doc")


class TestSplitPassages:
    def test_short_text_single_passage(self):
        out = split_passages("just a short line", 100)
        assert len(out) == 1
        assert out[0].text == "just a short line"

    def test_two_paragraphs_cut_on_boundary(self):
        """Each paragraph fits alone but not combined, so the blank line
        wins as the cut point."""
        p1 = "a" * 30
        p2 = "b" * 30
        out = split_passages(p1 + "\n\n" + p2, 40)
        assert [p.text for p in out] == [p1, p2]

    def test_paragraphs_merge_when_they_fit(self):
        out = split_passages("one two\n\nthree four", 100)
        assert len(out) == 1

    def test_three_paragraph_fixture_matches_reference_packer(self):
        """Greedy packing oracle: fold paragraphs left to right, starting a
        new passage whenever the running span would exceed the limit."""
        paragraphs = ["p" * 20, "q" * 20, "r" * 20]
        sep = "\n\n"
        raw = sep.join(paragraphs)
        max_chars = 50

        expected = []
        current = paragraphs[0]
        for para in paragraphs[1:]:
            if len(current) + len(sep) + len(para) <= max_chars:
                current = current + sep + para
            else:
                expected.append(current)
                current = para
        expected.append(current)

        out = split_passages(raw, max_chars)
        assert [p.text for p in out] == expected

    def test_oversized_paragraph_splits_on_sentences(self):
        raw = "First sentence here. Second sentence there. Third one now."
        out = split_passages(raw, 25)
        assert len(out) == 3
        assert out[0].text == "First sentence here."

    def test_run_on_text_falls_back_to_chunks(self):
        raw = "x" * 95
        out = split_passages(raw, 30)
        assert all(len(p.text) <= 30 for p in out)
        assert squash("".join(p.text for p in out)) == raw

    def test_reconstruction_loses_no_characters(self):
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(40)]
        for _ in range(20):
            n = int(rng.integers(5, 60))
            parts = []
            for i in range(n):
                parts.append(words[int(rng.integers(0, 40))])
                draw = rng.random()
                if draw < 0.1:
                    parts.append("\n\n")
                elif draw < 0.2:
                    parts.append(". ")
                else:
                    parts.append(" ")
            raw = "".join(parts)
            max_chars = int(rng.integers(10, 80))
            out = split_passages(raw, max_chars)
            assert squash("".join(p.text for p in out)) == squash(raw)
            assert all(p.text for p in out)

    def test_ids_are_sequential_per_source(self):
        out = split_passages("a" * 30 + "\n\n" + "b" * 30, 40, source_doc="d7")
        assert [p.passage_id for p in out] == ["d7-p0000", "d7-p0001"]
        assert all(p.source_doc == "d7" for p in out)

    def test_empty_input_gives_empty_list(self):
        assert split_passages("", 10) == []
        assert split_passages("   \n\n  ", 10) == []

    def test_invalid_max_chars_rejected(self):
        with pytest.raises(ValueError):
            split_passages("text", 0)


class TestGenerateQueries:
    def test_stub_takes_first_sentence(self):
        p = Passage("p1", "A. B. C.", "doc")
        assert generate_queries(p, first_sentence_query) == ["A."]

    def test_stub_without_terminator_takes_whole_text(self):
        p = Passage("p1", "no punctuation here", "doc")
        assert generate_queries(p, first_sentence_query) == ["no punctuation here"]

    def test_empty_generator_output_allowed(self):
        p = Passage("p1", "text.", "doc")
        assert generate_queries(p, lambda passage: []) == []

    def test_blank_queries_dropped(self):
        p = Passage("p1", "text.", "doc")
        assert generate_queries(p, lambda passage: ["  ", "ok"]) == ["ok"]

    def test_generator_failure_names_the_passage(self):
        p = Passage("p42", "text.", "doc")

        def broken(passage):
            raise KeyError("nope")

        with pytest.raises(RuntimeError, match="p42"):
            generate_queries(p, broken)

    def test_one_query_per_passage_over_fixture(self):
        passages = split_passages(
            "First thing. More words.\n\nSecond thing. Extra.", 30
        )
        queries = [generate_queries(p, first_sentence_query) for p in passages]
        assert all(len(q) == 1 for q in queries)


class TestMineHardNegatives:
    def test_small_corpus_exhausts_after_exclusion(self):
        rng = np.random.default_rng(1)
        embs = rng.normal(size=(3, 4))
        [out] = mine_hard_negatives(
            rng.normal(size=(1, 4)), ["a", "b", "c"], embs, [{"b"}], k=5
        )
        assert len(out) == 2
        assert {pid for pid, _ in out} == {"a", "c"}

    def test_identical_embedding_ranks_first(self):
        rng = np.random.default_rng(2)
        embs = rng.normal(size=(4, 5))
        [out] = mine_hard_negatives(embs[2:3].copy(), list("abcd"), embs, [{"a"}], k=2)
        assert out[0][0] == "c"
        np.testing.assert_allclose(out[0][1], 1.0, atol=1e-12)

    def test_matches_exhaustive_sort_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = int(rng.integers(50, 150))
            embs = rng.normal(size=(m, 8))
            ids = [f"p{i:04d}" for i in range(m)]
            queries = rng.normal(size=(20, 8))
            positives = [
                {ids[int(i)] for i in rng.integers(0, m, size=3)} for _ in queries
            ]
            all_mined = mine_hard_negatives(queries, ids, embs, positives, k=5)
            assert len(all_mined) == len(queries)
            for q, pos, mined in zip(queries, positives, all_mined):
                expected = oracle_topk(q, ids, embs, pos, 5)
                assert [pid for pid, _ in mined] == [pid for pid, _ in expected]
                np.testing.assert_allclose(
                    [s for _, s in mined], [s for _, s in expected], atol=1e-12
                )

    def test_ties_break_by_ascending_id(self):
        base = np.array([1.0, 0.0, 0.0])
        embs = np.stack([base, base * 2.0, base * 0.5, -base])
        [out] = mine_hard_negatives(base[None], ["z", "m", "a", "q"], embs, [set()], k=3)
        # three identical similarities of 1.0; ids decide the order
        assert [pid for pid, _ in out] == ["a", "m", "z"]

    def test_positive_never_mined(self):
        rng = np.random.default_rng(4)
        embs = rng.normal(size=(30, 6))
        ids = [f"p{i}" for i in range(30)]
        mined = mine_hard_negatives(embs[:5], ids, embs, [{p} for p in ids[:5]], k=10)
        for qi, out in enumerate(mined):
            assert ids[qi] not in {pid for pid, _ in out}

    def test_exclusions_leave_a_short_list(self):
        embs = np.array([[1.0, 0.0], [1.0, 0.1], [0.0, 1.0]])
        ids = ["a", "b", "c"]
        [out] = mine_hard_negatives(embs[:1], ids, embs, [{"a", "c", "x"}], k=5)
        assert [pid for pid, _ in out] == ["b"]

    def test_positive_ids_must_match_the_queries(self):
        """A short list used to exclude nothing for the queries after it."""
        embs = np.eye(3)
        for positives in ([{"a"}], [{"a"}, {"b"}, {"c"}]):
            with pytest.raises(ValueError):
                mine_hard_negatives(embs[:2], ["a", "b", "c"], embs, positives, k=1)

    def test_k_below_one_rejected(self):
        """k plus the positives would reach top_k as a valid k."""
        embs = np.eye(3)
        for k in (0, -1):
            with pytest.raises(ValueError, match="k must be >= 1"):
                mine_hard_negatives(embs[:1], ["a", "b", "c"], embs, [{"a", "b"}], k=k)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mine_hard_negatives(np.ones((1, 3)), ["a"], np.ones((1, 4)), [set()])

    def test_id_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mine_hard_negatives(np.ones((1, 3)), ["a", "b"], np.ones((1, 3)), [set()])


def candidates_fixture():
    sims = [0.99, 0.97, 0.9, 0.5, 0.2]
    cands = [(f"c{i}", s) for i, s in enumerate(sims)]
    texts = {f"c{i}": f"text {i}" for i in range(5)}
    return cands, texts


def threshold_judge(texts, sims):
    """Relevant iff the mined similarity it is passed exceeds 0.95; that
    similarity must be the candidate's, looked up through its text."""
    sim_by_text = {texts[pid]: s for pid, s in sims}

    def judge(query, candidate, similarity):
        assert similarity == sim_by_text[candidate]
        return similarity > 0.95

    return judge


def exploding_judge(query, candidate, similarity):
    raise ConnectionError("judge backend unreachable")


class TestJudgeFor:
    def test_config_judges(self):
        assert always_irrelevant("q", "text", 1.0) is False
        assert always_relevant("q", "text", -1.0) is True
        judge = judge_for("similarity", 0.5)
        assert judge("q", "text", 0.51) and not judge("q", "text", 0.5)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="nope"):
            judge_for("nope", 0.5)


class TestFilterFalseNegatives:
    def test_always_irrelevant_is_identity(self):
        cands, texts = candidates_fixture()
        kept, audit = filter_false_negatives("q", cands, always_irrelevant, texts)
        assert [pid for pid, _ in kept] == [pid for pid, _ in cands]
        assert kept == cands
        assert audit == []

    def test_always_relevant_empties_the_list(self):
        cands, texts = candidates_fixture()
        kept, audit = filter_false_negatives("q", cands, always_relevant, texts)
        assert kept == []
        assert len(audit) == 5
        assert all(reason == "judged_relevant" for _, reason in audit)

    def test_threshold_judge_removes_exactly_above_cutoff(self):
        cands, texts = candidates_fixture()
        judge = threshold_judge(texts, cands)
        kept, audit = filter_false_negatives("q", cands, judge, texts)
        assert [pid for pid, _ in kept] == ["c2", "c3", "c4"]
        assert sorted(cid for cid, _ in audit) == ["c0", "c1"]

    def test_judge_failure_keeps_candidate_flagged(self):
        cands, texts = candidates_fixture()
        kept, audit = filter_false_negatives("q", cands, exploding_judge, texts)
        assert len(kept) == 5
        assert kept == cands
        assert all(reason.startswith("judge_error: ") for _, reason in audit)
        assert "unreachable" in audit[0][1]

    def test_survivor_order_preserved(self):
        cands, texts = candidates_fixture()

        def drop_middle(query, candidate, similarity):
            return candidate == "text 2"

        kept, _ = filter_false_negatives("q", cands, drop_middle, texts)
        assert [pid for pid, _ in kept] == ["c0", "c1", "c3", "c4"]

    def test_removed_and_failed_candidates_are_audited_in_order(self):
        """A judge that removes c1 and c3 and raises on c0 and c4: the kept
        pairs, c0 and c4 among them, keep mining order, and the audit pairs
        follow candidate order with their reasons."""
        cands, texts = candidates_fixture()

        def judge(query, candidate, similarity):
            if candidate in ("text 0", "text 4"):
                raise TimeoutError(f"no verdict on {candidate}")
            return candidate in ("text 1", "text 3")

        kept, audit = filter_false_negatives("q", cands, judge, texts)
        assert kept == [cands[0], cands[2], cands[4]]
        assert audit == [
            ("c0", "judge_error: no verdict on text 0"),
            ("c1", "judged_relevant"),
            ("c3", "judged_relevant"),
            ("c4", "judge_error: no verdict on text 4"),
        ]

    def test_missing_candidate_text_rejected(self):
        cands, _ = candidates_fixture()
        with pytest.raises(ValueError, match="c0"):
            filter_false_negatives("q", cands, always_irrelevant, {})


class TestAssembleDataset:
    def test_counts_and_round_trip(self, tmp_path):
        queries = [(f"q{i}", f"question {i}") for i in range(10)]
        positives = {f"q{i}": f"pos{i}" for i in range(10)}
        mined = {
            f"q{i}": [(f"n{i}-{j}", 0.5 - 0.01 * j) for j in range(5)]
            for i in range(10)
        }
        path = tmp_path / "dataset.jsonl"
        written = assemble_dataset(queries, positives, mined)
        assert len(written) == 10
        assert sum(len(row.negative_ids) for row in written) == 50

        write_dataset(path, written)
        rows = read_dataset(path)
        assert rows == written
        assert len(rows) == 10
        for i, row in enumerate(rows):
            assert row.query_id == f"q{i}"
            assert row.positive_id == f"pos{i}"
            assert row.negative_ids == tuple(f"n{i}-{j}" for j in range(5))

    def test_zero_negative_query_still_written(self, tmp_path):
        path = tmp_path / "dataset.jsonl"
        written = assemble_dataset([("q0", "question")], {"q0": "pos"}, {"q0": []})
        assert len(written) == 1
        write_dataset(path, written)
        rows = read_dataset(path)
        assert rows[0].negative_ids == ()

    def test_dropped_counts_reported(self):
        """Each row's provenance records its query's dropped count; `mine`'s
        summary adds them up (tests/test_cli.py)."""
        rows = assemble_dataset(
            [("q0", "question")],
            {"q0": "pos"},
            {"q0": [("n0", 0.4)]},
            dropped={"q0": 3},
        )
        assert rows[0].provenance == {"similarities": [0.4], "filtered_out": 3}

    def test_keeps_the_first_max_negatives_candidates(self):
        mined = {"q0": [(f"n{j}", 0.9 - 0.1 * j) for j in range(MAX_NEGATIVES + 2)]}
        (row,) = assemble_dataset([("q0", "question")], {"q0": "pos"}, mined)
        assert row.negative_ids == tuple(f"n{j}" for j in range(MAX_NEGATIVES))
        assert row.provenance["similarities"] == [s for _, s in mined["q0"][:MAX_NEGATIVES]]

    def test_duplicate_query_id_rejected(self):
        with pytest.raises(ValueError, match="dup"):
            assemble_dataset([("dup", "a"), ("dup", "b")], {"dup": "p"}, {})

    def test_query_without_positive_rejected(self):
        with pytest.raises(ValueError, match="q0"):
            assemble_dataset([("q0", "a")], {}, {})
