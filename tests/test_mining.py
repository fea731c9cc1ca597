"""Tests for passage splitting, mining, judge filtering, and assembly."""

import re

import numpy as np
import pytest
from oracles import oracle_topk

from progemb.dataio import read_dataset
from progemb.mining import (
    AlwaysIrrelevantJudge,
    AlwaysRelevantJudge,
    MinedCandidate,
    Passage,
    assemble_dataset,
    filter_false_negatives,
    first_sentence_query,
    generate_queries,
    mine_hard_negatives,
    split_passages,
)


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
        assert {c.passage_id for c in out} == {"a", "c"}

    def test_identical_embedding_ranks_first(self):
        rng = np.random.default_rng(2)
        embs = rng.normal(size=(4, 5))
        [out] = mine_hard_negatives(embs[2:3].copy(), list("abcd"), embs, [{"a"}], k=2)
        assert out[0].passage_id == "c"
        np.testing.assert_allclose(out[0].similarity, 1.0, atol=1e-12)

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
                assert [c.passage_id for c in mined] == [pid for pid, _ in expected]
                np.testing.assert_allclose(
                    [c.similarity for c in mined], [s for _, s in expected], atol=1e-12
                )

    def test_ties_break_by_ascending_id(self):
        base = np.array([1.0, 0.0, 0.0])
        embs = np.stack([base, base * 2.0, base * 0.5, -base])
        [out] = mine_hard_negatives(base[None], ["z", "m", "a", "q"], embs, [set()], k=3)
        # three identical similarities of 1.0; ids decide the order
        assert [c.passage_id for c in out] == ["a", "m", "z"]

    def test_positive_never_mined(self):
        rng = np.random.default_rng(4)
        embs = rng.normal(size=(30, 6))
        ids = [f"p{i}" for i in range(30)]
        mined = mine_hard_negatives(embs[:5], ids, embs, [{p} for p in ids[:5]], k=10)
        for qi, out in enumerate(mined):
            assert ids[qi] not in {c.passage_id for c in out}

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mine_hard_negatives(np.ones((1, 3)), ["a"], np.ones((1, 4)), [set()])

    def test_id_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mine_hard_negatives(np.ones((1, 3)), ["a", "b"], np.ones((1, 3)), [set()])


def candidates_fixture():
    sims = [0.99, 0.97, 0.9, 0.5, 0.2]
    cands = [MinedCandidate(f"c{i}", s) for i, s in enumerate(sims)]
    texts = {f"c{i}": f"text {i}" for i in range(5)}
    return cands, texts


class _ThresholdJudge:
    """Relevant iff the mined similarity it is passed exceeds 0.95; that
    similarity must be the candidate's, looked up through its text."""

    def __init__(self, texts, sims):
        self._sim_by_text = {texts[c.passage_id]: c.similarity for c in sims}

    def judge(self, query, candidate, similarity):
        assert similarity == self._sim_by_text[candidate]
        return similarity > 0.95


class _ExplodingJudge:
    def judge(self, query, candidate, similarity):
        raise ConnectionError("judge backend unreachable")


class TestFilterFalseNegatives:
    def test_always_irrelevant_is_identity(self):
        cands, texts = candidates_fixture()
        kept, events = filter_false_negatives("q", cands, AlwaysIrrelevantJudge(), texts)
        assert [c.passage_id for c in kept] == [c.passage_id for c in cands]
        assert all(c.judged_relevant is False for c in kept)
        assert events == []

    def test_always_relevant_empties_the_list(self):
        cands, texts = candidates_fixture()
        kept, events = filter_false_negatives("q", cands, AlwaysRelevantJudge(), texts)
        assert kept == []
        assert len(events) == 5
        assert all(e.removed for e in events)

    def test_threshold_judge_removes_exactly_above_cutoff(self):
        cands, texts = candidates_fixture()
        judge = _ThresholdJudge(texts, cands)
        kept, events = filter_false_negatives("q", cands, judge, texts)
        assert [c.passage_id for c in kept] == ["c2", "c3", "c4"]
        assert sorted(e.candidate_id for e in events) == ["c0", "c1"]

    def test_judge_failure_keeps_candidate_flagged(self):
        cands, texts = candidates_fixture()
        kept, events = filter_false_negatives("q", cands, _ExplodingJudge(), texts)
        assert len(kept) == 5
        assert all(c.judged_relevant is None for c in kept)
        assert all(not e.removed for e in events)
        assert "unreachable" in events[0].reason

    def test_survivor_order_preserved(self):
        cands, texts = candidates_fixture()

        class DropMiddle:
            def judge(self, query, candidate, similarity):
                return candidate == "text 2"

        kept, _ = filter_false_negatives("q", cands, DropMiddle(), texts)
        assert [c.passage_id for c in kept] == ["c0", "c1", "c3", "c4"]

    def test_missing_candidate_text_rejected(self):
        cands, _ = candidates_fixture()
        with pytest.raises(ValueError, match="c0"):
            filter_false_negatives("q", cands, AlwaysIrrelevantJudge(), {})


class TestAssembleDataset:
    def test_counts_and_round_trip(self, tmp_path):
        queries = [(f"q{i}", f"question {i}") for i in range(10)]
        positives = {f"q{i}": f"pos{i}" for i in range(10)}
        mined = {
            f"q{i}": [MinedCandidate(f"n{i}-{j}", 0.5 - 0.01 * j) for j in range(5)]
            for i in range(10)
        }
        path = tmp_path / "dataset.jsonl"
        stats = assemble_dataset(queries, positives, mined, path)
        assert stats.examples_written == 10
        assert stats.negatives_written == 50
        assert stats.zero_negative_queries == 0

        rows = read_dataset(path)
        assert len(rows) == 10
        for i, row in enumerate(rows):
            assert row.query_id == f"q{i}"
            assert row.positive_id == f"pos{i}"
            assert row.negative_ids == tuple(f"n{i}-{j}" for j in range(5))

    def test_zero_negative_query_still_written(self, tmp_path):
        path = tmp_path / "dataset.jsonl"
        stats = assemble_dataset(
            [("q0", "question")], {"q0": "pos"}, {"q0": []}, path
        )
        assert stats.examples_written == 1
        assert stats.zero_negative_queries == 1
        rows = read_dataset(path)
        assert rows[0].negative_ids == ()

    def test_dropped_counts_reported(self, tmp_path):
        stats = assemble_dataset(
            [("q0", "question")],
            {"q0": "pos"},
            {"q0": [MinedCandidate("n0", 0.4)]},
            tmp_path / "d.jsonl",
            dropped={"q0": 3},
        )
        assert stats.negatives_dropped == 3

    def test_duplicate_query_id_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="dup"):
            assemble_dataset(
                [("dup", "a"), ("dup", "b")],
                {"dup": "p"},
                {},
                tmp_path / "d.jsonl",
            )

    def test_query_without_positive_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="q0"):
            assemble_dataset([("q0", "a")], {}, {}, tmp_path / "d.jsonl")
