"""Round-trip and validation tests for the on-disk formats."""

import gc
import json
import re
import sys
import tracemalloc

import numpy as np
import pytest

from progemb import _files, dataio
from progemb.dataio import (
    DatasetRow,
    MetricReport,
    Passage,
    StepAudit,
    iter_corpus,
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

    @pytest.mark.parametrize("bad", [0, 2, 4])
    def test_malformed_row_anywhere_names_its_line(self, tmp_path, bad):
        """The first, a middle and the last of five rows; the header is line 1."""
        lines = [json.dumps({"id": f"p{i}", "text": "a", "source_doc": "d"}) for i in range(5)]
        lines[bad] = lines[bad][:-1]
        path = tmp_path / "f.jsonl"
        path.write_text(json.dumps({"format": "corpus", "version": 1}) + "\n"
                        + "\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}:{bad + 2}: invalid JSON"):
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


class TestDump:
    def test_lines_are_json_dumps_with_sorted_keys(self):
        rows = [
            {"text": "naïve café — 東京", "id": "p1", "nested": [[1, 2.5], ["x", None]]},
            {"b": 1, "a": -0.0, "c": 1e-300, "d": [True, False], "e": {"z": 1, "y": 2}},
            {},
        ]
        for row in rows:
            assert _files.dump(row) == json.dumps(row, sort_keys=True, allow_nan=False)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_number_rejected(self, bad):
        with pytest.raises(ValueError):
            _files.dump({"loss": [1.0, bad]})


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

    @pytest.mark.parametrize("separator", ["\x85", "\u2028", "\u2029"])
    def test_line_separator_inside_a_text_is_kept(self, tmp_path, separator):
        """A raw separator that str.splitlines breaks at but a JSON string
        may hold; the file is split at newlines only."""
        path = tmp_path / "corpus.jsonl"
        write_corpus(path, [Passage("p0", "first", "d")])
        row = {"id": "p1", "text": f"one{separator}two", "source_doc": "d"}
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
        assert separator in path.read_text(encoding="utf-8")
        assert read_corpus(path) == [Passage("p0", "first", "d"),
                                     Passage("p1", f"one{separator}two", "d")]

    def test_writes_are_deterministic(self, tmp_path):
        passages = [Passage("p0", "some text", "doc")]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_corpus(a, passages)
        write_corpus(b, passages)
        assert a.read_bytes() == b.read_bytes()


class TestCorpusStream:
    """iter_corpus reads one line at a time and closes its file on every path."""

    @pytest.fixture
    def opened(self, monkeypatch):
        """Every file dataio opens, plus every exception raised while an
        object is finalized (where an unclosed file's ResourceWarning lands)."""
        files, unraisable = [], []

        def tracking_open(*args, **kwargs):
            files.append(open(*args, **kwargs))
            return files[-1]

        monkeypatch.setattr(dataio, "open", tracking_open, raising=False)
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        yield files
        gc.collect()
        assert not unraisable
        assert files and all(fh.closed for fh in files)

    def write(self, path, n):
        write_corpus(path, [Passage(f"p{i}", f"text {i}", "d") for i in range(n)])

    @pytest.mark.filterwarnings("error::ResourceWarning")
    def test_abandoned_stream_closes_its_file(self, tmp_path, opened):
        path = tmp_path / "corpus.jsonl"
        self.write(path, 10)
        stream = iter_corpus(path)
        assert [next(stream).passage_id for _ in range(3)] == ["p0", "p1", "p2"]
        assert not opened[0].closed
        del stream
        gc.collect()

    @pytest.mark.filterwarnings("error::ResourceWarning")
    def test_header_error_closes_the_file(self, tmp_path, opened):
        path = tmp_path / "f.jsonl"
        write_queries(path, [("q0", "text")])
        with pytest.raises(ValueError, match="expected format 'corpus'"):
            next(iter_corpus(path))

    @pytest.mark.filterwarnings("error::ResourceWarning")
    def test_row_error_closes_the_file(self, tmp_path, opened):
        path = tmp_path / "corpus.jsonl"
        write_corpus(path, [Passage("p0", "a", "d"), Passage("p1", "b", "d"),
                            Passage("p0", "c", "d")])
        with pytest.raises(ValueError, match="duplicate passage id 'p0'"):
            read_corpus(path)

    def test_stream_is_read_corpus_one_passage_at_a_time(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        self.write(path, 7)
        stream = iter_corpus(path)
        assert next(stream) == Passage("p0", "text 0", "d")
        assert [next(stream) for _ in range(6)] == read_corpus(path)[1:]
        assert next(stream, None) is None


class TestDataset:
    def test_round_trip(self, tmp_path):
        rows = [
            DatasetRow("q0", "what is it", "p0", ("n0", "n1"),
                       {"similarities": [0.4, 0.3], "filtered_out": 1})
        ]
        path = tmp_path / "dataset.jsonl"
        write_dataset(path, rows)
        got = read_dataset(path)
        assert got[0].query_id == "q0"
        assert got[0].negative_ids == ("n0", "n1")
        assert got[0].provenance["filtered_out"] == 1

    def test_duplicate_query_rejected(self, tmp_path):
        rows = [DatasetRow("q0", "a", "p", (), {}), DatasetRow("q0", "b", "p", (), {})]
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
        dataio._write_rows(path, "dataset", [row])
        message = f"{path}: row key '{key}' must be {expected}"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_dataset(path)

    @pytest.mark.parametrize("negatives, message", [
        (("n1", "n2", "n3", "n4", "n5", "n6"), "q1: at most 5 hard negatives allowed"),
        (("n1", "p1"), "q1: positive p1 appears among negatives"),
        (("n1", "n2", "n1"), "q1: negative n1 appears twice"),
    ], ids=["too_many_negatives", "positive_among_negatives", "repeated_negative"])
    def test_rule_breaking_row_rejected(self, tmp_path, negatives, message):
        rows = [DatasetRow("q0", "a", "p0", (), {}),
                DatasetRow("q1", "b", "p1", negatives, {})]
        path = tmp_path / "dataset.jsonl"
        write_dataset(path, rows)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_dataset(path)

    @pytest.mark.parametrize("first", [0, 1])
    def test_first_fault_in_file_order_wins(self, tmp_path, first):
        faulty = [DatasetRow("q0", "a", "p0", ("n1", "n1"), {}),
                  DatasetRow("q1", "b", "p1", ("n1", "p1"), {})]
        messages = ["q0: negative n1 appears twice", "q1: positive p1 appears among negatives"]
        path = tmp_path / "dataset.jsonl"
        write_dataset(path, [faulty[first], faulty[1 - first]])
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {messages[first]}')}$"):
            read_dataset(path)

    @pytest.mark.parametrize("provenance", [[1, 2], "a", 3, None])
    def test_provenance_that_is_not_an_object_rejected(self, tmp_path, provenance):
        row = {"query_id": "q0", "query": "a", "positive_id": "p", "negative_ids": [],
               "provenance": provenance}
        path = tmp_path / "dataset.jsonl"
        dataio._write_rows(path, "dataset", [row])
        message = f"{path}: row key 'provenance' must be an object"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_dataset(path)

    def test_provenance_optional(self, tmp_path):
        rows = [
            {"query_id": "q0", "query": "a", "positive_id": "p", "negative_ids": []}
        ]
        path = tmp_path / "dataset.jsonl"
        dataio._write_rows(path, "dataset", rows)
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

    @pytest.mark.parametrize("grade", [0, -2])
    def test_writer_refuses_a_grade_the_reader_refuses(self, tmp_path, grade):
        """A grade below 1 is refused with the reader's message, and the
        file written before stays as it was."""
        path = tmp_path / "qrels.jsonl"
        write_qrels(path, {"q0": {"d0": 2}})
        before = path.read_bytes()
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: grade for (q1, d1) must be an int >= 1")):
            write_qrels(path, {"q0": {"d0": 1}, "q1": {"d0": 1, "d1": grade}})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["qrels.jsonl"]

    @pytest.mark.parametrize("key, value, message", [
        ("grade", True, "grade for (q, d) must be an int >= 1"),
        ("doc_id", 5, "row key 'doc_id' must be a string, got 5"),
        ("query_id", ["q"], "row key 'query_id' must be a string, got ['q']"),
    ])
    def test_qrels_field_of_the_wrong_type_rejected(self, tmp_path, key, value, message):
        """A JSON true is not grade 1; a numeric doc id can never match a
        gallery id; a list query id cannot key the qrels."""
        row = {"query_id": "q", "doc_id": "d", "grade": 1, key: value}
        path = tmp_path / "qrels.jsonl"
        path.write_text(json.dumps({"format": "qrels", "version": 1}) + "\n"
                        + json.dumps(row) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            read_qrels(path)

    def test_repeated_qrels_pair_rejected(self, tmp_path):
        """A pair judged twice is refused, whatever its grades: the later
        row used to overwrite the earlier grade, which moved the metrics."""
        rows = [{"query_id": "q0", "doc_id": "d0", "grade": 1},
                {"query_id": "q1", "doc_id": "d0", "grade": 1},
                {"query_id": "q0", "doc_id": "d0", "grade": 3}]
        path = tmp_path / "qrels.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in
                                [{"format": "qrels", "version": 1}, *rows]))
        with pytest.raises(ValueError, match=re.escape(f"{path}: duplicate qrels pair (q0, d0)")):
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


class TestRowKeys:
    """Every text reader refuses a row without a key it needs, or with one of
    another JSON type, with a ValueError naming the file: no KeyError and no
    coercion of a string or a bool into a number."""

    @pytest.mark.parametrize("fmt, row, message", [
        ("metrics", {"kind": "query", "ndcg@10": 1.0}, "row missing key 'query_id'"),
        ("metrics", {"kind": "query", "query_id": "q", "map": "0.5"},
         "row key 'map' must be a number, got '0.5'"),
        ("metrics", {"kind": "excluded", "query_id": 7}, "row key 'query_id' must be a string"),
        ("metrics", {"kind": "error", "query_id": "q"}, "row missing key 'message'"),
        ("metrics", {"kind": "macro", "recall@1": True}, "row key 'recall@1' must be a number"),
        ("finetune-audit", {"step": "3", "epoch": 1, "sigma": 0.5, "mean_weight": 1.0,
                            "t": 0.1, "loss": 1.0}, "row key 'step' must be an int, got '3'"),
        ("finetune-audit", {"step": 3, "epoch": True, "sigma": 0.5, "mean_weight": 1.0,
                            "t": 0.1, "loss": 1.0}, "row key 'epoch' must be an int, got True"),
        ("finetune-audit", {"step": 3, "epoch": 1, "sigma": "0.5", "mean_weight": 1.0,
                            "t": 0.1, "loss": 1.0}, "row key 'sigma' must be a number"),
        ("finetune-audit", {"step": 3, "epoch": 1, "sigma": 0.5, "mean_weight": 1.0,
                            "t": "nan", "loss": 1.0}, "row key 't' must be a number"),
        ("finetune-audit", {"step": 3, "epoch": 1, "sigma": 0.5, "mean_weight": 1.0,
                            "t": 0.1}, "row missing key 'loss'"),
        ("loss-curve", {"epoch": 1, "loss": "12.5"}, "row key 'loss' must be a number"),
        ("loss-curve", {"epoch": 1.0, "loss": 12.5}, "row key 'epoch' must be an int"),
        ("mining-audit", {"query_id": "q", "candidate_id": 3, "reason": "r"},
         "row key 'candidate_id' must be a string"),
    ])
    def test_missing_or_mistyped_key_rejected(self, tmp_path, fmt, row, message):
        read = {"metrics": read_metrics_report, "finetune-audit": read_finetune_audit,
                "loss-curve": read_loss_curve, "mining-audit": read_mining_audit}[fmt]
        path = tmp_path / f"{fmt}.jsonl"
        header = {"format": fmt, "version": 1, "loss_mode": "infonce"}
        path.write_text(json.dumps(header) + "\n" + json.dumps(row) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            read(path)

    @pytest.mark.parametrize("loss_mode", [None, 1])
    def test_finetune_audit_header_needs_its_loss_mode(self, tmp_path, loss_mode):
        path = tmp_path / "audit.jsonl"
        header = {"format": "finetune-audit", "version": 1, "loss_mode": loss_mode}
        if loss_mode is None:
            del header["loss_mode"]
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: header ")):
            read_finetune_audit(path)


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
        with pytest.raises(ValueError, match="expected format 'embeddings', found 'corpus'"):
            read_embeddings(path)

    def test_one_dimensional_matrix_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="2-d"):
            write_embeddings(tmp_path / "e.bin", ["a"], np.ones(3))

    def test_write_does_not_copy_the_matrix(self, tmp_path):
        """The matrix's own buffer is written: a 4 MB matrix traces about
        0.1 MB while it is saved, where a bytes copy of it traced 4.1 MB.
        The file is the header line plus the matrix's bytes."""
        matrix = np.random.default_rng(0).normal(size=(1000, 512))
        ids = [f"p{i:04d}" for i in range(1000)]
        path = tmp_path / "emb.bin"
        tracemalloc.start()
        try:
            write_embeddings(path, ids, matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * matrix.nbytes
        raw = path.read_bytes()
        assert raw[raw.index(b"\n") + 1:] == matrix.tobytes()

    def test_read_holds_the_body_twice_at_most(self, tmp_path):
        """Reading a 4 MB body holds the file's bytes and the returned copy,
        2.0 times the body traced, and no bytes slice of the body beside
        them, which made it 3."""
        matrix = np.random.default_rng(0).normal(size=(1000, 512))
        path = tmp_path / "emb.bin"
        write_embeddings(path, [f"p{i:04d}" for i in range(1000)], matrix)
        tracemalloc.start()
        try:
            _, got = read_embeddings(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.2 * matrix.nbytes
        assert got.flags.owndata and got.flags.writeable
        np.testing.assert_array_equal(got, matrix)


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
        rows = [DatasetRow(f"q{i}", "b", "p1", (), {"score": float("nan") if i == 2 else 0.5})
                for i in range(4)]
        with pytest.raises(ValueError, match="JSON compliant"):
            write_dataset(path, rows)
        assert list(tmp_path.iterdir()) == []
        write_dataset(path, [DatasetRow("q0", "a", "p0", (), {})])
        before = path.read_bytes()
        with pytest.raises(ValueError, match="JSON compliant"):
            write_dataset(path, rows)
        self.assert_untouched(path, before)

    @pytest.fixture
    def failing_write(self, monkeypatch):
        import progemb._files

        def failing_open(*args, **kwargs):
            return _FailingSecondWrite(open(*args, **kwargs))

        monkeypatch.setattr(progemb._files, "open", failing_open, raising=False)

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
