"""Round-trip and validation tests for the on-disk formats."""

import json
import re

import numpy as np
import pytest

from progemb.dataio import (
    read_bench_report,
    read_corpus,
    read_dataset,
    read_embeddings,
    read_finetune_audit,
    read_loss_curve,
    read_metrics_report,
    read_mining_audit,
    read_qrels,
    read_queries,
    write_bench_report,
    write_corpus,
    write_dataset,
    write_embeddings,
    write_finetune_audit,
    write_loss_curve,
    write_metrics_report,
    write_mining_audit,
    write_qrels,
    write_queries,
)
from progemb.evaluation import MetricReport
from progemb.mining import Passage
from progemb.training import StepAudit


class TestHeaders:
    def test_wrong_format_name_rejected(self, tmp_path):
        path = tmp_path / "f.jsonl"
        write_queries(path, [("q0", "text")])
        with pytest.raises(ValueError, match="expected format 'corpus'"):
            read_corpus(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text(json.dumps({"format": "corpus", "version": 99}) + "\n")
        with pytest.raises(ValueError, match="version"):
            read_corpus(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_corpus(path)

    def test_malformed_row_names_line_number(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text(
            json.dumps({"format": "corpus", "version": 1})
            + "\n{not json}\n"
        )
        with pytest.raises(ValueError, match=r":2: invalid JSON"):
            read_corpus(path)

    def test_non_object_row_rejected(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text(
            json.dumps({"format": "corpus", "version": 1}) + "\n[1, 2]\n"
        )
        with pytest.raises(ValueError, match="expected an object"):
            read_corpus(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_corpus(tmp_path / "absent.jsonl")


class TestCorpus:
    def test_round_trip(self, tmp_path):
        passages = [
            Passage("p0", "first text", "docA"),
            Passage("p1", "second text", "docB"),
        ]
        path = tmp_path / "corpus.jsonl"
        write_corpus(path, passages)
        assert read_corpus(path) == passages

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_corpus(path, [Passage("p0", "a", "d"), Passage("p0", "b", "d")])
        with pytest.raises(ValueError, match="duplicate passage id"):
            read_corpus(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            json.dumps({"format": "corpus", "version": 1})
            + "\n"
            + json.dumps({"id": "p0", "text": "a"})
            + "\n"
        )
        with pytest.raises(ValueError, match="source_doc"):
            read_corpus(path)

    @pytest.mark.parametrize("key, value", [
        ("id", 7), ("text", 123), ("text", None), ("source_doc", ["d"]),
    ])
    def test_field_that_is_not_a_string_rejected(self, tmp_path, key, value):
        row = {"id": "p0", "text": "a", "source_doc": "d", key: value}
        path = tmp_path / "corpus.jsonl"
        write_corpus(path, [])
        with open(path, "a") as fh:
            fh.write(json.dumps(row) + "\n")
        message = f"{path}: row key '{key}' must be a string"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_corpus(path)

    def test_writes_are_deterministic(self, tmp_path):
        passages = [Passage("p0", "some text", "doc")]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_corpus(a, passages)
        write_corpus(b, passages)
        assert a.read_bytes() == b.read_bytes()


class TestDataset:
    def test_round_trip(self, tmp_path):
        rows = [
            {
                "query_id": "q0",
                "query": "what is it",
                "positive_id": "p0",
                "negative_ids": ["n0", "n1"],
                "provenance": {"similarities": [0.4, 0.3], "filtered_out": 1},
            }
        ]
        path = tmp_path / "dataset.jsonl"
        write_dataset(path, rows)
        got = read_dataset(path)
        assert got[0].query_id == "q0"
        assert got[0].negative_ids == ("n0", "n1")
        assert got[0].provenance["filtered_out"] == 1

    def test_duplicate_query_rejected(self, tmp_path):
        rows = [
            {"query_id": "q0", "query": "a", "positive_id": "p", "negative_ids": []},
            {"query_id": "q0", "query": "b", "positive_id": "p", "negative_ids": []},
        ]
        path = tmp_path / "dataset.jsonl"
        write_dataset(path, rows)
        with pytest.raises(ValueError, match="duplicate query id"):
            read_dataset(path)

    @pytest.mark.parametrize("key, value, expected", [
        ("query_id", 0, "a string"), ("query", 1.5, "a string"),
        ("positive_id", None, "a string"), ("negative_ids", "n0", "a list of strings"),
        ("negative_ids", ["n0", 3], "a list of strings"),
    ])
    def test_field_of_the_wrong_type_rejected(self, tmp_path, key, value, expected):
        row = {"query_id": "q0", "query": "a", "positive_id": "p", "negative_ids": ["n0"]}
        row[key] = value
        path = tmp_path / "dataset.jsonl"
        write_dataset(path, [row])
        message = f"{path}: row key '{key}' must be {expected}"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_dataset(path)

    def test_provenance_optional(self, tmp_path):
        rows = [
            {"query_id": "q0", "query": "a", "positive_id": "p", "negative_ids": []}
        ]
        path = tmp_path / "dataset.jsonl"
        write_dataset(path, rows)
        assert read_dataset(path)[0].provenance == {}


class TestQrelsAndQueries:
    def test_qrels_round_trip(self, tmp_path):
        qrels = {"q1": {"d2": 1, "d1": 3}, "q0": {"d9": 2}}
        path = tmp_path / "qrels.jsonl"
        write_qrels(path, qrels)
        assert read_qrels(path) == qrels

    def test_qrels_emitted_sorted(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_qrels(a, {"q1": {"x": 1, "a": 1}, "q0": {"d": 1}})
        write_qrels(b, {"q0": {"d": 1}, "q1": {"a": 1, "x": 1}})
        assert a.read_bytes() == b.read_bytes()

    def test_bad_grade_rejected(self, tmp_path):
        path = tmp_path / "qrels.jsonl"
        path.write_text(
            json.dumps({"format": "qrels", "version": 1})
            + "\n"
            + json.dumps({"query_id": "q", "doc_id": "d", "grade": 0})
            + "\n"
        )
        with pytest.raises(ValueError, match="grade"):
            read_qrels(path)

    def test_queries_round_trip(self, tmp_path):
        pairs = [("q0", "first question"), ("q1", "second question")]
        path = tmp_path / "queries.jsonl"
        write_queries(path, pairs)
        assert read_queries(path) == pairs

    @pytest.mark.parametrize("key, value", [("query_id", 4), ("text", ["a", "b"])])
    def test_query_field_that_is_not_a_string_rejected(self, tmp_path, key, value):
        row = {"query_id": "q0", "text": "a", key: value}
        path = tmp_path / "queries.jsonl"
        path.write_text(json.dumps({"format": "queries", "version": 1}) + "\n"
                        + json.dumps(row) + "\n")
        message = f"{path}: row key '{key}' must be a string"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_queries(path)

    def test_duplicate_query_id_rejected(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        write_queries(path, [("q0", "a"), ("q0", "b")])
        with pytest.raises(ValueError, match="duplicate query id"):
            read_queries(path)


class TestAuditLogs:
    def test_mining_audit_round_trip(self, tmp_path):
        rows = [
            {"query_id": "q0", "candidate_id": "c1", "reason": "judged_relevant"},
            {"query_id": "q1", "candidate_id": "c2", "reason": "judge_error: boom"},
        ]
        path = tmp_path / "audit.jsonl"
        write_mining_audit(path, rows)
        got = read_mining_audit(path)
        assert [r["candidate_id"] for r in got] == ["c1", "c2"]

    def test_finetune_audit_round_trip_keeps_loss_mode(self, tmp_path):
        audit = [
            StepAudit(step=1, epoch=1, sigma=0.2, mean_weight=0.9, t=0.15, loss=1.5),
            StepAudit(step=2, epoch=1, sigma=0.25, mean_weight=1.0, t=0.2, loss=1.2),
        ]
        path = tmp_path / "audit.jsonl"
        write_finetune_audit(path, "infonce", audit)
        mode, got = read_finetune_audit(path)
        assert mode == "infonce"
        assert got == audit

    def test_loss_curve_round_trip(self, tmp_path):
        path = tmp_path / "curve.jsonl"
        write_loss_curve(path, [2.5, 1.25, 0.5])
        assert read_loss_curve(path) == [2.5, 1.25, 0.5]

    def test_loss_curve_epoch_order_enforced(self, tmp_path):
        path = tmp_path / "curve.jsonl"
        path.write_text(
            json.dumps({"format": "loss-curve", "version": 1})
            + "\n"
            + json.dumps({"epoch": 2, "loss": 1.0})
            + "\n"
        )
        with pytest.raises(ValueError, match="out of order"):
            read_loss_curve(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_loss_is_not_written(self, tmp_path, bad):
        path = tmp_path / "curve.jsonl"
        write_loss_curve(path, [3.0])
        before = path.read_text()
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_loss_curve(path, [2.5, bad])
        text = path.read_text()
        assert "NaN" not in text and "Infinity" not in text
        assert text == before


class TestReports:
    def test_metrics_report_round_trip(self, tmp_path):
        report = MetricReport(
            per_query={
                "q0": {"ndcg@10": 1.0, "map": 1.0, "mrr@10": 1.0,
                       "recall@1": 1.0, "recall@10": 1.0, "recall@50": 1.0},
                "q1": {"ndcg@10": 0.5, "map": 0.25, "mrr@10": 0.5,
                       "recall@1": 0.0, "recall@10": 1.0, "recall@50": 1.0},
            },
            macro={"ndcg@10": 0.75, "map": 0.625, "mrr@10": 0.75,
                   "recall@1": 0.5, "recall@10": 1.0, "recall@50": 1.0},
            excluded=("q9",),
            errors={"q8": "missing embedding"},
        )
        path = tmp_path / "metrics.jsonl"
        write_metrics_report(path, report)
        got = read_metrics_report(path)
        assert got.per_query == report.per_query
        assert got.macro == report.macro
        assert got.excluded == report.excluded
        assert got.errors == report.errors

    def test_bench_report_round_trip(self, tmp_path):
        runs = [
            {"seed": 0, "loss_mode": "progressive", "recall@1": 0.95},
            {"seed": 0, "loss_mode": "infonce", "recall@1": 0.90},
        ]
        summary = {"seeds": 1, "noise_rate": 0.2,
                   "progressive": {"recall@1": 0.95},
                   "infonce": {"recall@1": 0.90},
                   "delta": {"recall@1": 0.05}}
        path = tmp_path / "bench.jsonl"
        write_bench_report(path, runs, summary)
        got_runs, got_summary = read_bench_report(path)
        assert [r["loss_mode"] for r in got_runs] == ["progressive", "infonce"]
        assert got_summary["delta"]["recall@1"] == 0.05

    def test_bench_requires_single_summary(self, tmp_path):
        path = tmp_path / "bench.jsonl"
        path.write_text(json.dumps({"format": "bench", "version": 1}) + "\n")
        with pytest.raises(ValueError, match="summary"):
            read_bench_report(path)


class TestEmbeddings:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(7, 5))
        ids = [f"p{i}" for i in range(7)]
        path = tmp_path / "emb.bin"
        write_embeddings(path, ids, matrix)
        got_ids, got = read_embeddings(path)
        assert got_ids == ids
        np.testing.assert_array_equal(got, matrix)

    def test_writes_are_deterministic(self, tmp_path):
        matrix = np.arange(6.0).reshape(2, 3)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        write_embeddings(a, ["x", "y"], matrix)
        write_embeddings(b, ["x", "y"], matrix)
        assert a.read_bytes() == b.read_bytes()

    def test_id_count_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="ids"):
            write_embeddings(tmp_path / "e.bin", ["only-one"], np.ones((2, 3)))

    def test_truncated_block_rejected(self, tmp_path):
        path = tmp_path / "emb.bin"
        write_embeddings(path, ["a", "b"], np.ones((2, 3)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="bytes"):
            read_embeddings(path)

    def test_not_an_embeddings_file_rejected(self, tmp_path):
        path = tmp_path / "emb.bin"
        path.write_bytes(
            json.dumps({"format": "corpus", "version": 1}).encode() + b"\n"
        )
        with pytest.raises(ValueError, match="not an embeddings file"):
            read_embeddings(path)

    def test_one_dimensional_matrix_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="2-d"):
            write_embeddings(tmp_path / "e.bin", ["a"], np.ones(3))


class _FailingSecondWrite:
    """A file whose second write raises, after the first reached the disk."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def write(self, data):
        self.writes += 1
        if self.writes == 2:
            raise OSError(28, "No space left on device")
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)


class TestAtomicWrites:
    """A writer that fails midway leaves the previous artifact byte for byte
    and no temporary file beside it."""

    @staticmethod
    def assert_untouched(path, before):
        assert path.read_bytes() == before
        assert [p.name for p in path.parent.iterdir()] == [path.name]

    def test_row_that_fails_to_dump_midway(self, tmp_path):
        path = tmp_path / "dataset.jsonl"
        rows = [{"query_id": f"q{i}", "query": "b", "positive_id": "p1",
                 "negative_ids": [], "score": float("nan") if i == 2 else 0.5}
                for i in range(4)]
        with pytest.raises(ValueError, match="JSON compliant"):
            write_dataset(path, rows)
        assert list(tmp_path.iterdir()) == []
        write_dataset(path, [{"query_id": "q0", "query": "a", "positive_id": "p0",
                              "negative_ids": []}])
        before = path.read_bytes()
        with pytest.raises(ValueError, match="JSON compliant"):
            write_dataset(path, rows)
        self.assert_untouched(path, before)

    @pytest.fixture
    def failing_write(self, monkeypatch):
        import progemb.encoder

        def failing_open(*args, **kwargs):
            return _FailingSecondWrite(open(*args, **kwargs))

        monkeypatch.setattr(progemb.encoder, "open", failing_open, raising=False)

    def test_failing_write_of_rows(self, tmp_path, request):
        path = tmp_path / "queries.jsonl"
        write_queries(path, [("q0", "old text")])
        before = path.read_bytes()
        request.getfixturevalue("failing_write")
        with pytest.raises(OSError, match="No space"):
            write_queries(path, [("q1", "new"), ("q2", "newer")])
        self.assert_untouched(path, before)

    def test_failing_write_of_embeddings(self, tmp_path, request):
        path = tmp_path / "embeddings.bin"
        write_embeddings(path, ["a"], np.ones((1, 3)))
        before = path.read_bytes()
        request.getfixturevalue("failing_write")
        with pytest.raises(OSError, match="No space"):
            write_embeddings(path, ["b", "c"], np.zeros((2, 3)))
        self.assert_untouched(path, before)

    def test_failing_write_of_checkpoint(self, tmp_path, request):
        from progemb.encoder import Tokenizer, ToyEncoder, save_checkpoint

        tok = Tokenizer.from_texts(["a b c"])
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(path, ToyEncoder.create(tok.vocab_size, 3, seed=0), tok)
        before = path.read_bytes()
        request.getfixturevalue("failing_write")
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(path, ToyEncoder.create(tok.vocab_size, 3, seed=1), tok)
        self.assert_untouched(path, before)
