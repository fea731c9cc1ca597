"""End-to-end tests for the command-line pipeline.

Each test drives main(argv) in-process against files in tmp_path, then
inspects exit codes and the files written under the output directory.
"""

import json
import math
import os
import sys
import subprocess
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import progemb
from progemb import dataio
from progemb.cli import main
from progemb.encoder import (
    MaeDecoder,
    Tokenizer,
    ToyEncoder,
    load_checkpoint,
    save_checkpoint,
)
from progemb.mining import Passage


def write_cfg(path, **options):
    lines = [f"{key} = {value}" for key, value in options.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


DOC_WORDS = [
    ["alpha", "beta", "gamma"],
    ["delta", "epsilon", "zeta"],
    ["eta", "theta", "iota"],
    ["kappa", "lam", "mu"],
    ["nu", "xi", "omicron"],
    ["pi", "rho", "sigma"],
]


def corpus_passages(n=6):
    return [
        Passage(f"d{i}", " ".join(DOC_WORDS[i % 6]) + f" common{i % 3}", "src")
        for i in range(n)
    ]


def make_checkpoint(path, texts, dim=8, seed=0, with_decoder=False):
    tok = Tokenizer.from_texts(texts)
    enc = ToyEncoder.create(len(tok.id_to_token), dim, seed=seed)
    dec = None
    if with_decoder:
        dec = MaeDecoder.create(64, dim, len(tok.id_to_token), seed=seed)
    save_checkpoint(path, enc, tok, dec)
    return tok


def assert_same_files(first, second):
    """Both output directories hold the same file names with the same bytes."""
    names = sorted(p.name for p in first.iterdir())
    assert names and names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


class TestArgumentParsing:
    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_missing_config_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["pretrain"])
        assert exc.value.code == 2

    def test_unknown_loss_mode_flag_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path / "run.cfg")
        with pytest.raises(SystemExit):
            main(["finetune", "--config", cfg, "--loss-mode", "triplet"])

    def test_module_entry_point(self, tmp_path):
        # the child imports the same progemb as this process, installed or not
        src = str(Path(progemb.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-m", "progemb", "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert out.returncode == 0
        assert "pretrain" in out.stdout


class TestExitCodes:
    def test_missing_config_file_is_io_error(self, tmp_path, capsys):
        rc = main(["pretrain", "--config", str(tmp_path / "absent.cfg")])
        assert rc == 2
        assert "absent.cfg" in capsys.readouterr().err

    def test_invalid_config_is_validation_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "run.cfg", mining_k=0)
        rc = main(["mine", "--config", cfg])
        assert rc == 1
        assert "mining_k" in capsys.readouterr().err

    def test_missing_corpus_file_is_io_error(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "run.cfg",
            corpus_path=str(tmp_path / "gone.jsonl"),
            out_dir=str(tmp_path / "out"),
        )
        rc = main(["pretrain", "--config", cfg])
        assert rc == 2
        assert "gone.jsonl" in capsys.readouterr().err

    def test_missing_required_path_is_validation_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "run.cfg", out_dir=str(tmp_path / "out"))
        rc = main(["pretrain", "--config", cfg])
        assert rc == 1
        assert "corpus_path" in capsys.readouterr().err

    def test_failure_happens_before_outputs_are_written(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path / "run.cfg", mining_k=0, out_dir=str(out))
        assert main(["mine", "--config", cfg]) == 1
        assert not out.exists()


class TestPretrain:
    def run(self, tmp_path, *extra, epochs=2, name="run.cfg", out="out", n_docs=6,
            optimizer="sgd", **options):
        corpus = tmp_path / "corpus.jsonl"
        if not corpus.exists():
            dataio.write_corpus(corpus, corpus_passages(n_docs))
        cfg = write_cfg(
            tmp_path / name,
            corpus_path=str(corpus),
            out_dir=str(tmp_path / out),
            embed_dim=8,
            max_passage_len=16,
            pretrain_epochs=epochs,
            pretrain_batch_size=4,
            optimizer=optimizer,
            **options,
        )
        return main(["pretrain", "--config", cfg, *extra]), tmp_path / out

    def test_writes_checkpoint_and_curve(self, tmp_path, capsys):
        rc, out = self.run(tmp_path, epochs=3)
        assert rc == 0
        assert (out / "checkpoint.bin").exists()
        curve = dataio.read_loss_curve(out / "loss_curve.jsonl")
        assert len(curve) == 3
        assert all(math.isfinite(v) for v in curve)
        assert "wrote" in capsys.readouterr().out

    def test_same_seed_reproduces_bytes(self, tmp_path):
        rc1, out1 = self.run(tmp_path, out="out1")
        rc2, out2 = self.run(tmp_path, out="out2")
        assert rc1 == rc2 == 0
        assert (out1 / "checkpoint.bin").read_bytes() == (
            out2 / "checkpoint.bin"
        ).read_bytes()
        assert (out1 / "loss_curve.jsonl").read_bytes() == (
            out2 / "loss_curve.jsonl"
        ).read_bytes()

    def test_seed_override_changes_result(self, tmp_path):
        _, out1 = self.run(tmp_path, out="out1")
        _, out2 = self.run(tmp_path, "--seed", "9", out="out2")
        assert (out1 / "checkpoint.bin").read_bytes() != (
            out2 / "checkpoint.bin"
        ).read_bytes()

    def test_out_flag_overrides_config(self, tmp_path):
        rc, _ = self.run(tmp_path, "--out", str(tmp_path / "elsewhere"))
        assert rc == 0
        assert (tmp_path / "elsewhere" / "checkpoint.bin").exists()

    @pytest.mark.parametrize("optimizer", ["adamw", "sgd"])
    def test_huge_learning_rate_fails_at_its_step_and_writes_nothing(
        self, tmp_path, capsys, optimizer
    ):
        with np.errstate(all="ignore"):
            rc, out = self.run(tmp_path, n_docs=49, pretrain_lr="1e200",
                               optimizer=optimizer)
        assert rc == 1
        assert "error: pretrain step " in capsys.readouterr().err
        assert not out.exists()

    def test_corpus_text_that_is_not_a_string_is_validation_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        dataio.write_corpus(corpus, corpus_passages(3))
        lines = corpus.read_text().splitlines()
        lines[2] = json.dumps({"id": "d1", "source_doc": "src", "text": 123})
        corpus.write_text("\n".join(lines) + "\n")
        rc, out = self.run(tmp_path)
        assert rc == 1
        assert f"{corpus}: row key 'text' must be a string, got 123" in capsys.readouterr().err
        assert not out.exists()


class TestMine:
    def setup_inputs(self, tmp_path, n_docs=20, **overrides):
        passages = corpus_passages(n_docs)
        corpus = tmp_path / "corpus.jsonl"
        dataio.write_corpus(corpus, passages)
        ckpt = tmp_path / "ckpt.bin"
        make_checkpoint(ckpt, [p.text for p in passages])
        options = {
            "corpus_path": str(corpus),
            "checkpoint_path": str(ckpt),
            "out_dir": str(tmp_path / "out"),
            "embed_dim": 8,
            "max_passage_len": 16,
        }
        options.update(overrides)
        return write_cfg(tmp_path / "run.cfg", **options), tmp_path / "out"

    def test_one_example_per_passage_with_full_negatives(self, tmp_path):
        cfg, out = self.setup_inputs(tmp_path)
        assert main(["mine", "--config", cfg]) == 0
        rows = dataio.read_dataset(out / "dataset.jsonl")
        assert len(rows) == 20
        assert all(len(r.negative_ids) == 5 for r in rows)
        for row in rows:
            assert row.positive_id not in row.negative_ids
            assert row.query_id.startswith(row.positive_id)

    def test_passages_and_embeddings_align(self, tmp_path):
        cfg, out = self.setup_inputs(tmp_path)
        main(["mine", "--config", cfg])
        passages = dataio.read_corpus(out / "passages.jsonl")
        ids, embs = dataio.read_embeddings(out / "passage_embeddings.bin")
        assert [p.passage_id for p in passages] == ids
        assert embs.shape == (len(ids), 8)

    def test_always_relevant_judge_drops_everything(self, tmp_path):
        cfg, out = self.setup_inputs(tmp_path, judge="always_relevant")
        assert main(["mine", "--config", cfg]) == 0
        rows = dataio.read_dataset(out / "dataset.jsonl")
        assert len(rows) == 20
        assert all(r.negative_ids == () for r in rows)
        audit = dataio.read_mining_audit(out / "mining_audit.jsonl")
        assert len(audit) == 20 * 5
        assert all(r["reason"] == "judged_relevant" for r in audit)

    def test_irrelevant_judge_leaves_audit_empty(self, tmp_path):
        cfg, out = self.setup_inputs(tmp_path)
        main(["mine", "--config", cfg])
        assert dataio.read_mining_audit(out / "mining_audit.jsonl") == []

    def test_provenance_records_similarities(self, tmp_path):
        cfg, out = self.setup_inputs(tmp_path)
        main(["mine", "--config", cfg])
        rows = dataio.read_dataset(out / "dataset.jsonl")
        for row in rows:
            sims = row.provenance["similarities"]
            assert len(sims) == len(row.negative_ids)
            assert sims == sorted(sims, reverse=True)

    def test_similarity_judge_removes_exactly_what_an_oracle_scores_above(
        self, tmp_path
    ):
        """Every mined candidate, removed or kept, re-encoded one sequence at
        a time from the checkpoint: the judge removes exactly those whose
        cosine with the prefixed query exceeds judge_threshold."""
        threshold = 0.75
        passages = corpus_passages(20)
        corpus = tmp_path / "corpus.jsonl"
        dataio.write_corpus(corpus, passages)
        ckpt = tmp_path / "ckpt.bin"
        make_checkpoint(ckpt, [p.text for p in passages] + ["find:"])
        cfg = write_cfg(
            tmp_path / "run.cfg", corpus_path=str(corpus), checkpoint_path=str(ckpt),
            out_dir=str(tmp_path / "out"), embed_dim=8, max_passage_len=16,
            query_prefix="find:", judge="similarity", judge_threshold=threshold,
        )
        assert main(["mine", "--config", cfg]) == 0
        out = tmp_path / "out"
        rows = dataio.read_dataset(out / "dataset.jsonl")
        texts = {p.passage_id: p.text for p in dataio.read_corpus(out / "passages.jsonl")}
        query_of = {r.query_id: r.query for r in rows}
        removed = {(a["query_id"], a["candidate_id"])
                   for a in dataio.read_mining_audit(out / "mining_audit.jsonl")}
        kept = {(r.query_id, n) for r in rows for n in r.negative_ids}

        model = load_checkpoint(ckpt)

        def oracle(text, max_len):
            seq = model.tokenizer.encode_text(text, max_len)
            pooled = model.encoder.token_table[seq.ids].mean(axis=0)
            u = pooled @ model.encoder.projection
            return u / np.linalg.norm(u)

        scores = {
            (qid, cid): float(np.dot(oracle("find: " + query_of[qid], 64),
                                     oracle(texts[cid], 16)))
            for qid, cid in removed | kept
        }
        assert min(abs(s - threshold) for s in scores.values()) > 1e-6
        assert removed == {pair for pair, s in scores.items() if s > threshold}
        # the cut runs through distinct texts, not only verbatim copies
        assert kept and any(s < 0.999 for pair, s in scores.items() if pair in removed)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg, _ = self.setup_inputs(tmp_path, judge="similarity", judge_threshold=0.9)
        for out in ("out1", "out2"):
            assert main(["mine", "--config", cfg, "--out", str(tmp_path / out)]) == 0
        assert_same_files(tmp_path / "out1", tmp_path / "out2")

    def test_long_doc_splits_into_multiple_passages(self, tmp_path):
        long_doc = Passage(
            "big", ("words here. " * 30).strip(), "src"
        )
        corpus = tmp_path / "corpus.jsonl"
        dataio.write_corpus(corpus, [long_doc])
        ckpt = tmp_path / "ckpt.bin"
        make_checkpoint(ckpt, [long_doc.text])
        cfg = write_cfg(
            tmp_path / "run.cfg",
            corpus_path=str(corpus),
            checkpoint_path=str(ckpt),
            out_dir=str(tmp_path / "out"),
            embed_dim=8,
            passage_max_chars=60,
        )
        assert main(["mine", "--config", cfg]) == 0
        passages = dataio.read_corpus(tmp_path / "out" / "passages.jsonl")
        assert len(passages) > 1
        assert all(p.passage_id.startswith("big-p") for p in passages)


def finetune_fixture(tmp_path, with_decoder=False, n_queries=4):
    passages = corpus_passages(6)
    texts = [p.text for p in passages]
    ckpt = tmp_path / "ckpt.bin"
    make_checkpoint(ckpt, texts, with_decoder=with_decoder)
    passages_path = tmp_path / "passages.jsonl"
    dataio.write_corpus(passages_path, passages)
    rows = []
    for i in range(n_queries):
        pos = passages[i]
        negs = [passages[(i + 1) % 6].passage_id, passages[(i + 2) % 6].passage_id]
        rows.append(
            {
                "query_id": f"q{i}",
                "query": pos.text.split()[0],
                "positive_id": pos.passage_id,
                "negative_ids": negs,
            }
        )
    dataset_path = tmp_path / "dataset.jsonl"
    dataio.write_dataset(dataset_path, rows)
    return ckpt, passages_path, dataset_path


class TestFinetune:
    def make_cfg(self, tmp_path, ckpt, passages_path, dataset_path, out="out", **extra):
        options = {
            "checkpoint_path": str(ckpt),
            "passages_path": str(passages_path),
            "dataset_path": str(dataset_path),
            "out_dir": str(tmp_path / out),
            "embed_dim": 8,
            "max_passage_len": 16,
            "finetune_epochs": 3,
            "finetune_batch_size": 2,
            "optimizer": "sgd",
        }
        options.update(extra)
        return write_cfg(tmp_path / f"{out}.cfg", **options), tmp_path / out

    def test_writes_checkpoint_and_audit(self, tmp_path):
        ckpt, ppath, dpath = finetune_fixture(tmp_path)
        cfg, out = self.make_cfg(tmp_path, ckpt, ppath, dpath)
        assert main(["finetune", "--config", cfg]) == 0
        mode, audit = dataio.read_finetune_audit(out / "finetune_audit.jsonl")
        assert mode == "progressive"
        # 4 examples, batch 2, 3 epochs; steps count from 0
        assert [a.step for a in audit] == list(range(6))
        assert [a.epoch for a in audit] == [0, 0, 1, 1, 2, 2]
        assert (out / "checkpoint.bin").exists()

    def test_audit_t_column_replays_momentum_recursion(self, tmp_path):
        ckpt, ppath, dpath = finetune_fixture(tmp_path)
        cfg, out = self.make_cfg(tmp_path, ckpt, ppath, dpath, alpha=0.5, beta=0.1)
        main(["finetune", "--config", cfg])
        _, audit = dataio.read_finetune_audit(out / "finetune_audit.jsonl")
        t = 0.0
        for row in audit:
            mean_pos = row.sigma + 0.1
            t = 0.5 * mean_pos + 0.5 * t
            assert abs(row.t - t) <= 1e-12

    def test_zero_epochs_round_trips_checkpoint_bytes(self, tmp_path):
        ckpt, ppath, dpath = finetune_fixture(tmp_path, with_decoder=True)
        cfg, out = self.make_cfg(tmp_path, ckpt, ppath, dpath, finetune_epochs=0)
        assert main(["finetune", "--config", cfg]) == 0
        assert (out / "checkpoint.bin").read_bytes() == ckpt.read_bytes()

    def test_loss_mode_flag_lands_in_audit_header(self, tmp_path):
        ckpt, ppath, dpath = finetune_fixture(tmp_path)
        cfg, out = self.make_cfg(tmp_path, ckpt, ppath, dpath)
        main(["finetune", "--config", cfg, "--loss-mode", "infonce"])
        mode, audit = dataio.read_finetune_audit(out / "finetune_audit.jsonl")
        assert mode == "infonce"
        assert all(a.mean_weight == 1.0 for a in audit)

    def test_deterministic_across_runs(self, tmp_path):
        ckpt, ppath, dpath = finetune_fixture(tmp_path)
        cfg1, out1 = self.make_cfg(tmp_path, ckpt, ppath, dpath, out="out1")
        cfg2, out2 = self.make_cfg(tmp_path, ckpt, ppath, dpath, out="out2")
        assert main(["finetune", "--config", cfg1]) == 0
        assert main(["finetune", "--config", cfg2]) == 0
        assert (out1 / "checkpoint.bin").read_bytes() == (
            out2 / "checkpoint.bin"
        ).read_bytes()
        assert (out1 / "finetune_audit.jsonl").read_bytes() == (
            out2 / "finetune_audit.jsonl"
        ).read_bytes()

    def test_unknown_negative_id_is_validation_error(self, tmp_path, capsys):
        ckpt, ppath, dpath = finetune_fixture(tmp_path)
        rows = [
            {
                "query_id": "q0",
                "query": "alpha",
                "positive_id": "d0",
                "negative_ids": ["ghost"],
            }
        ]
        dataio.write_dataset(dpath, rows)
        cfg, _ = self.make_cfg(tmp_path, ckpt, ppath, dpath)
        assert main(["finetune", "--config", cfg]) == 1
        assert "dataset: unknown negative id 'ghost'" in capsys.readouterr().err

    def test_unknown_positive_id_is_validation_error(self, tmp_path, capsys):
        ckpt, ppath, dpath = finetune_fixture(tmp_path)
        rows = [
            {
                "query_id": "q0",
                "query": "alpha",
                "positive_id": "phantom",
                "negative_ids": ["d1"],
            }
        ]
        dataio.write_dataset(dpath, rows)
        cfg, out = self.make_cfg(tmp_path, ckpt, ppath, dpath)
        assert main(["finetune", "--config", cfg]) == 1
        assert "dataset: unknown positive id 'phantom'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("optimizer", ["adamw", "sgd"])
    def test_huge_learning_rate_fails_at_its_step_and_writes_nothing(
        self, tmp_path, capsys, optimizer
    ):
        ckpt, ppath, dpath = finetune_fixture(tmp_path)
        cfg, out = self.make_cfg(tmp_path, ckpt, ppath, dpath, finetune_lr="1e200",
                                 optimizer=optimizer)
        with np.errstate(all="ignore"):
            rc = main(["finetune", "--config", cfg])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: fine-tune step " in err
        assert "non-finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("header", [
        b'["checkpoint", 1]',
        b'{"format": "checkpoint", "version": 1, "dim": 8, "vocab": [], "has_decoder": false}',
    ])
    def test_malformed_checkpoint_header_is_validation_error(self, tmp_path, capsys, header):
        ckpt, ppath, dpath = finetune_fixture(tmp_path)
        ckpt.write_bytes(header + b"\n")
        cfg, out = self.make_cfg(tmp_path, ckpt, ppath, dpath)
        assert main(["finetune", "--config", cfg]) == 1
        assert str(ckpt) in capsys.readouterr().err
        assert not out.exists()


class TestEvaluate:
    def setup_inputs(self, tmp_path, **overrides):
        passages = corpus_passages(6)
        gallery = tmp_path / "gallery.jsonl"
        dataio.write_corpus(gallery, passages)
        ckpt = tmp_path / "ckpt.bin"
        make_checkpoint(ckpt, [p.text for p in passages])
        # each query is its positive passage verbatim, so it must rank first
        queries = [(f"q{i}", passages[i].text) for i in range(4)]
        queries.append(("q-oov", "wordthatnobodyhasseen"))
        queries.append(("q-unjudged", passages[4].text))
        qpath = tmp_path / "queries.jsonl"
        dataio.write_queries(qpath, queries)
        qrels = {f"q{i}": {f"d{i}": 1} for i in range(4)}
        qrels["q-oov"] = {"d0": 1}
        rpath = tmp_path / "qrels.jsonl"
        dataio.write_qrels(rpath, qrels)
        options = {
            "checkpoint_path": str(ckpt),
            "gallery_path": str(gallery),
            "queries_path": str(qpath),
            "qrels_path": str(rpath),
            "out_dir": str(tmp_path / "out"),
            "embed_dim": 8,
            "max_passage_len": 16,
        }
        options.update(overrides)
        return write_cfg(tmp_path / "run.cfg", **options), tmp_path / "out"

    def test_identity_queries_score_perfectly(self, tmp_path, capsys):
        cfg, out = self.setup_inputs(tmp_path)
        assert main(["evaluate", "--config", cfg]) == 0
        report = dataio.read_metrics_report(out / "metrics.jsonl")
        for i in range(4):
            assert report.per_query[f"q{i}"]["ndcg@10"] == pytest.approx(1.0, abs=1e-12)
            assert report.per_query[f"q{i}"]["recall@1"] == 1.0
        assert report.macro["mrr@10"] == pytest.approx(1.0, abs=1e-12)
        assert "ndcg@10" in capsys.readouterr().out

    def test_oov_query_lands_in_errors(self, tmp_path):
        cfg, out = self.setup_inputs(tmp_path)
        main(["evaluate", "--config", cfg])
        report = dataio.read_metrics_report(out / "metrics.jsonl")
        assert "q-oov" in report.errors
        assert "q-oov" not in report.per_query

    def test_gallery_without_records_is_validation_error(self, tmp_path, capsys):
        empty = tmp_path / "empty_gallery.jsonl"
        dataio.write_corpus(empty, [])
        cfg, out = self.setup_inputs(tmp_path, gallery_path=str(empty))
        assert main(["evaluate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert f"{empty}: gallery has no records" in err
        assert not (out / "metrics.jsonl").exists()

    def test_checkpoint_header_with_a_mistyped_dim_is_validation_error(self, tmp_path, capsys):
        cfg, out = self.setup_inputs(tmp_path)
        ckpt = tmp_path / "ckpt.bin"
        head, body = ckpt.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        header["dim"] = str(header["dim"])
        ckpt.write_bytes(json.dumps(header).encode() + b"\n" + body)
        assert main(["evaluate", "--config", cfg]) == 1
        assert f"{ckpt}: 'dim' must be int, got str" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg, _ = self.setup_inputs(tmp_path)
        for out in ("out1", "out2"):
            assert main(["evaluate", "--config", cfg, "--out", str(tmp_path / out)]) == 0
        assert_same_files(tmp_path / "out1", tmp_path / "out2")

    def test_unjudged_query_lands_in_exclusions(self, tmp_path):
        cfg, out = self.setup_inputs(tmp_path)
        main(["evaluate", "--config", cfg])
        report = dataio.read_metrics_report(out / "metrics.jsonl")
        assert "q-unjudged" in report.excluded


class TestStreamedGallery:
    """evaluate reads, tokenizes and embeds its gallery GALLERY_BLOCK
    passages at a time, keeping only ids and embedding rows."""

    def setup_inputs(self, tmp_path, n, words_per_text=6):
        rng = np.random.default_rng(7)
        words = [f"w{i}" for i in range(40)]
        passages = [
            Passage(f"p{i:05d}", " ".join(rng.choice(words, size=words_per_text)), "src")
            for i in range(n)
        ]
        gallery = tmp_path / "gallery.jsonl"
        dataio.write_corpus(gallery, passages)
        make_checkpoint(tmp_path / "ckpt.bin", [" ".join(words)])
        picks = sorted({0, 5, n // 2, n - 1})
        queries = [(f"q{i}", passages[i].text) for i in picks] + [("q-oov", "unseen")]
        dataio.write_queries(tmp_path / "queries.jsonl", queries)
        dataio.write_qrels(tmp_path / "qrels.jsonl",
                           {f"q{i}": {passages[i].passage_id: 1} for i in picks})
        cfg = write_cfg(
            tmp_path / "run.cfg",
            checkpoint_path=tmp_path / "ckpt.bin",
            gallery_path=gallery,
            queries_path=tmp_path / "queries.jsonl",
            qrels_path=tmp_path / "qrels.jsonl",
            out_dir=tmp_path / "out",
            embed_dim=8,
            max_passage_len=5,
        )
        return cfg, tmp_path / "out", gallery

    def test_metrics_match_a_whole_gallery_oracle(self, tmp_path):
        """The streamed pass writes the bytes of one read_corpus plus one
        _embed_passages over the whole gallery."""
        from progemb import cli
        from progemb.config import load_config
        from progemb.evaluation import evaluate_run

        cfg_path, out, gallery = self.setup_inputs(tmp_path, 3 * cli.GALLERY_BLOCK + 7)
        assert main(["evaluate", "--config", cfg_path]) == 0

        cfg = load_config(cfg_path)
        ckpt = load_checkpoint(cfg.checkpoint_path)
        passages = dataio.read_corpus(gallery)
        ids, embs = cli._embed_passages(
            ckpt.encoder, cli._passage_tokens(ckpt.tokenizer, cfg, passages), passages
        )
        queries = []
        for qid, text in dataio.read_queries(cfg.queries_path):
            try:
                queries.append((qid, cli._encode_query(ckpt.encoder, ckpt.tokenizer, cfg, text)))
            except ValueError:
                queries.append((qid, None))
        report = evaluate_run(queries, ids, embs, dataio.read_qrels(cfg.qrels_path),
                              depth=cfg.eval_depth)
        dataio.write_metrics_report(tmp_path / "oracle.jsonl", report)
        assert (out / "metrics.jsonl").read_bytes() == (tmp_path / "oracle.jsonl").read_bytes()
        assert len(report.per_query) == 4 and "q-oov" in report.errors

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_malformed_row_is_named_by_its_line(self, tmp_path, capsys, where):
        from progemb.cli import GALLERY_BLOCK

        n = 2 * GALLERY_BLOCK + 3
        cfg, out, gallery = self.setup_inputs(tmp_path, n)
        lines = gallery.read_text().splitlines(keepends=True)
        row = {"first": 0, "middle": GALLERY_BLOCK + 1, "last": n - 1}[where]
        lines[row + 1] = "{not json\n"
        gallery.write_text("".join(lines))
        assert main(["evaluate", "--config", cfg]) == 1
        assert f"{gallery}:{row + 2}: invalid JSON" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fault, code, message", [
        ("duplicate", 1, "duplicate passage id 'p00003'"),
        ("empty", 1, "empty file, expected a corpus header"),
        ("missing", 2, "No such file or directory"),
    ])
    def test_gallery_faults_keep_their_message_and_exit_code(
        self, tmp_path, capsys, fault, code, message
    ):
        """A header-only gallery is TestEvaluate's no-records case."""
        cfg, out, gallery = self.setup_inputs(tmp_path, 40)
        lines = gallery.read_text().splitlines(keepends=True)
        if fault == "duplicate":
            lines.append(lines[4])
            gallery.write_text("".join(lines))
        elif fault == "empty":
            gallery.write_text("")
        else:
            gallery.unlink()
        assert main(["evaluate", "--config", cfg]) == code
        err = capsys.readouterr().err
        assert str(gallery) in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("separator", ["\x85", "\u2028", "\u2029"])
    def test_line_separator_inside_a_gallery_text(self, tmp_path, separator):
        cfg, out, gallery = self.setup_inputs(tmp_path, 20)
        row = {"id": "p-sep", "text": f"w1 w2{separator}w3", "source_doc": "src"}
        with open(gallery, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
        dataio.write_queries(tmp_path / "queries.jsonl", [("q", "w1 w2 w3")])
        dataio.write_qrels(tmp_path / "qrels.jsonl", {"q": {"p-sep": 1}})
        assert main(["evaluate", "--config", cfg]) == 0
        report = dataio.read_metrics_report(out / "metrics.jsonl")
        assert report.per_query["q"]["recall@1"] == 1.0

    @pytest.mark.parametrize("key, value, message", [
        ("grade", True, "grade for (q0, p00000) must be an int >= 1"),
        ("doc_id", 5, "row key 'doc_id' must be a string"),
        ("query_id", ["q0"], "row key 'query_id' must be a string"),
    ])
    def test_mistyped_qrels_field_is_validation_error(
        self, tmp_path, capsys, key, value, message
    ):
        cfg, out, _ = self.setup_inputs(tmp_path, 20)
        row = {"query_id": "q0", "doc_id": "p00000", "grade": 1, key: value}
        (tmp_path / "qrels.jsonl").write_text(
            json.dumps({"format": "qrels", "version": 1}) + "\n" + json.dumps(row) + "\n"
        )
        assert main(["evaluate", "--config", cfg]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_gallery_pass_memory_does_not_grow_with_the_text(self, tmp_path):
        """4,000 passages of 80 words (a 1.4 MB file). The streamed command
        traces about 1.6 MB at its peak: the kept ids and embeddings, about
        0.5 MB, plus one block's passages and tokens. Keeping the gallery's
        Passage list traced 2.6 MB; holding the file's lines, rows and
        passages at once, as a whole-file read does, traced 4.9 MB."""
        cfg, _, _ = self.setup_inputs(tmp_path, 4000, words_per_text=80)
        tracemalloc.start()
        try:
            assert main(["evaluate", "--config", cfg]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.2e6


class TestBench:
    def make_cfg(self, tmp_path, **extra):
        options = {
            "out_dir": str(tmp_path / "out"),
            "embed_dim": 8,
            "bench_seeds": 1,
            "bench_clusters": 4,
            "bench_gallery": 40,
            "bench_train": 32,
            "bench_heldout": 8,
            "bench_epochs": 1,
            "finetune_batch_size": 16,
            "optimizer": "sgd",
        }
        options.update(extra)
        return write_cfg(tmp_path / "run.cfg", **options), tmp_path / "out"

    def test_single_seed_writes_two_runs_and_summary(self, tmp_path, capsys):
        cfg, out = self.make_cfg(tmp_path)
        assert main(["bench", "--config", cfg]) == 0
        runs, summary = dataio.read_bench_report(out / "bench.jsonl")
        assert [r["loss_mode"] for r in runs] == ["progressive", "infonce"]
        assert summary["seeds"] == 1
        for mode in ("progressive", "infonce"):
            row = next(r for r in runs if r["loss_mode"] == mode)
            assert summary[mode]["recall@1"] == pytest.approx(row["recall@1"])
        assert "delta" in summary
        assert "mean recall@1" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg, _ = self.make_cfg(tmp_path, bench_noise_rate=0.2)
        for out in ("out1", "out2"):
            assert main(["bench", "--config", cfg, "--out", str(tmp_path / out)]) == 0
        assert_same_files(tmp_path / "out1", tmp_path / "out2")

    def test_gallery_tokenized_once_per_seed(self, tmp_path, monkeypatch):
        """bench tokenizes each seed's gallery once, before its loss-mode
        loop, and both modes embed the passages that store was made from."""
        import progemb.cli as cli

        tokenize, embed = cli._passage_tokens, cli._embed_passages
        stores, embeds = [], []

        def spy_tokens(tok, cfg, passages):
            stores.append((tokenize(tok, cfg, passages), list(passages)))
            return stores[-1][0]

        def spy_embed(enc, tokens, passages):
            embeds.append((tokens, list(passages)))
            return embed(enc, tokens, passages)

        monkeypatch.setattr(cli, "_passage_tokens", spy_tokens)
        monkeypatch.setattr(cli, "_embed_passages", spy_embed)
        cfg, _ = self.make_cfg(tmp_path, bench_seeds=2)
        assert main(["bench", "--config", cfg]) == 0
        assert len(stores) == 2 and len(embeds) == 4
        for k, (tokens, passages) in enumerate(embeds):
            store, tokenized = stores[k // 2]
            assert tokens is store and passages == tokenized

    def test_two_seeds_average_into_summary(self, tmp_path):
        cfg, out = self.make_cfg(tmp_path, bench_seeds=2)
        assert main(["bench", "--config", cfg]) == 0
        runs, summary = dataio.read_bench_report(out / "bench.jsonl")
        assert len(runs) == 4
        assert sorted({r["seed"] for r in runs}) == [0, 1]
        for mode in ("progressive", "infonce"):
            values = [r["recall@1"] for r in runs if r["loss_mode"] == mode]
            assert summary[mode]["recall@1"] == pytest.approx(sum(values) / 2)
        assert summary["delta"]["recall@1"] == pytest.approx(
            summary["progressive"]["recall@1"] - summary["infonce"]["recall@1"]
        )
