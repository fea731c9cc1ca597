"""End-to-end tests for the command-line pipeline.

Each test drives main(argv) in-process against files in tmp_path, then
inspects exit codes and the files written under the output directory.
"""

import gc
import json
import math
import os
import signal
import sys
import subprocess
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import progemb
from progemb import cli, dataio, training
from progemb.cli import main
from progemb.encoder import (
    MaeDecoder,
    Tokenizer,
    ToyEncoder,
    load_checkpoint,
    save_checkpoint,
)
from progemb.dataio import DatasetRow, Passage


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


def python(*args, cwd=None, **env):
    """A fresh interpreter run with args, its stdout and stderr piped. It
    imports the same progemb as this process, installed or not; env adds to
    this process's environment."""
    src = str(Path(progemb.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path, **env},
    )


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
        out = python("-m", "progemb", "--help")
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


# OpenBLAS's own thread count, as the library numpy loaded reads it; prints
# nothing where numpy carries no OpenBLAS
BLAS_THREADS = """
import ctypes, glob, os
import progemb
import numpy
libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
for lib in glob.glob(os.path.join(libs, "*openblas*")):
    handle = ctypes.CDLL(lib)
    for symbol in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        count = getattr(handle, symbol, None)
        if count is not None:
            count.argtypes, count.restype = [], ctypes.c_int
            print(count())
            raise SystemExit
"""

TOPK_UNDER_A_KERNEL = """
import ctypes, glob, json, os
import progemb
import numpy as np
from progemb.similarity import top_k
libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
core = None
for lib in glob.glob(os.path.join(libs, "*openblas*")):
    handle = ctypes.CDLL(lib)
    for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                   "openblas_get_corename"):
        name = getattr(handle, symbol, None)
        if name is not None and core is None:
            name.argtypes, name.restype = [], ctypes.c_char_p
            core = name().decode()
rng = np.random.default_rng(3)
d = 32
control = rng.normal(size=(64, d)) @ rng.normal(size=(d, d))
rows = rng.normal(size=(1500, d))
# ten exact copies each of 30 rows, and 300 rows moved an ulp
gallery = np.concatenate([rows, np.repeat(rows[:30], 10, axis=0),
                          np.nextafter(rows[30:330], np.inf)])
gallery = gallery[rng.permutation(len(gallery))]
ids = [f"p{i:05d}" for i in range(len(gallery))]
# 101 queries: 32-row query blocks at d = 32, the last one 5 rows; 40 of
# them copy a gallery row and score the +1 clip, and 30 are near one
queries = np.concatenate([rows[:40], rng.normal(size=(31, d)),
                          rows[30:60] + 1e-9 * rng.normal(size=(30, d))])
blocks = [(ids[lo : lo + 97], gallery[lo : lo + 97]) for lo in range(0, len(gallery), 97)]
lists = [[list(names), [s.hex() for s in scores]] for names, scores in top_k(queries, blocks, 10)]
print(json.dumps({"core": core, "control": control.tobytes().hex(), "lists": lists}))
"""


def clustered_corpus(path, clusters=16, words=72, docs=256):
    """Documents of two 6-word sentences, each from one cluster's words:
    document i takes 12 consecutive words of cluster i % clusters from its
    own start, so every word is used and the vocabulary holds
    clusters * words of them."""
    passages = []
    for i in range(docs):
        start = 5 * (i // clusters)
        picked = [f"k{i % clusters}w{(start + k) % words}" for k in range(12)]
        text = " ".join(picked[:6]) + " . " + " ".join(picked[6:]) + " ."
        passages.append(Passage(f"d{i:03d}", text, "gen"))
    dataio.write_corpus(path, passages)


class TestProcess:
    """Commands run as `python -m progemb` in a fresh interpreter."""

    def test_blas_is_pinned_to_one_thread(self):
        out = python("-c", BLAS_THREADS, OPENBLAS_NUM_THREADS="4")
        assert out.returncode == 0, out.stderr
        if not out.stdout:
            pytest.skip("numpy carries no OpenBLAS")
        assert int(out.stdout) == 1

    def test_artifacts_do_not_depend_on_the_callers_blas_threads(self, tmp_path):
        # products with a vocabulary-long side (V > 1,000 at d = 32) are the
        # ones OpenBLAS splits differently at 1 thread than at 2
        for threads in ("1", "2"):
            run = tmp_path / threads
            run.mkdir()
            clustered_corpus(run / "corpus.jsonl")
            write_cfg(
                run / "run.cfg", corpus_path="corpus.jsonl",
                checkpoint_path="pretrain/checkpoint.bin",
                passages_path="mine/passages.jsonl", dataset_path="mine/dataset.jsonl",
                embed_dim=32, pretrain_epochs=1, finetune_epochs=1,
                finetune_batch_size=64, mining_k=5,
            )
            for command in ("pretrain", "mine", "finetune"):
                out = python("-m", "progemb", command, "--config", "run.cfg",
                             "--out", command, cwd=run, OPENBLAS_NUM_THREADS=threads)
                assert out.returncode == 0, out.stderr
        tok = load_checkpoint(tmp_path / "1" / "pretrain" / "checkpoint.bin").tokenizer
        assert len(tok.id_to_token) > 16 * 72
        for command in ("pretrain", "mine", "finetune"):
            assert_same_files(tmp_path / "1" / command, tmp_path / "2" / command)

    def test_top_k_does_not_depend_on_the_blas_kernel(self):
        """top_k's lists and score bytes are the same under every OpenBLAS
        CPU kernel: its BLAS product only screens, and einsum scores. The
        control, a BLAS product, shows that a kernel with other arithmetic
        was compared. A kernel is compared only where the child reports it
        by name, so a library without the name, or a CPU that cannot run
        the kernel, skips it."""
        default = python("-c", TOPK_UNDER_A_KERNEL, OPENBLAS_CORETYPE="")
        assert default.returncode == 0, default.stderr
        want = json.loads(default.stdout)
        if want["core"] is None:
            pytest.skip("the BLAS library does not report its kernel")
        compared, controls = [], []
        for core in ("Sandybridge", "Haswell"):
            out = python("-c", TOPK_UNDER_A_KERNEL, OPENBLAS_CORETYPE=core)
            if out.returncode == -signal.SIGILL:
                continue
            assert out.returncode == 0, out.stderr
            got = json.loads(out.stdout)
            if got["core"] != core or got["core"] == want["core"]:
                continue
            assert got["lists"] == want["lists"], core
            compared.append(core)
            controls.append(got["control"] != want["control"])
        if not compared:
            pytest.skip(f"no kernel other than {want['core']} could be selected")
        assert any(controls), compared

    def test_piped_output_holds_every_wrote_line(self, tmp_path):
        dataio.write_corpus(tmp_path / "docs.jsonl", corpus_passages())
        cfg = write_cfg(
            tmp_path / "run.cfg", corpus_path=str(tmp_path / "docs.jsonl"),
            checkpoint_path=str(tmp_path / "pretrain" / "checkpoint.bin"),
            embed_dim=8, pretrain_epochs=1, mining_k=2,
        )
        for command, count in (("pretrain", 2), ("mine", 4)):
            out_dir = tmp_path / command
            # block-buffered, as a pipe is unless the caller asks otherwise
            out = python("-m", "progemb", command, "--config", cfg, "--out", str(out_dir),
                         PYTHONUNBUFFERED="")
            assert out.returncode == 0, out.stderr
            wrote = [line[len("wrote "):] for line in out.stdout.splitlines()
                     if line.startswith("wrote ")]
            assert len(wrote) == count
            assert sorted(wrote) == sorted(str(path) for path in out_dir.iterdir())
        load_checkpoint(tmp_path / "pretrain" / "checkpoint.bin")
        assert len(dataio.read_loss_curve(tmp_path / "pretrain" / "loss_curve.jsonl")) == 1
        assert len(dataio.read_corpus(tmp_path / "mine" / "passages.jsonl")) == 6
        assert len(dataio.read_dataset(tmp_path / "mine" / "dataset.jsonl")) == 6
        assert len(dataio.read_embeddings(tmp_path / "mine" / "passage_embeddings.bin")[0]) == 6
        dataio.read_mining_audit(tmp_path / "mine" / "mining_audit.jsonl")

    @pytest.mark.parametrize("options, code, message", [
        ({"mining_k": 0}, 1, "error: {path}: config: mining_k must be > 0, got 0\n"),
        (None, 2, "i/o error: [Errno 2] No such file or directory: '{path}'\n"),
    ], ids=["invalid", "missing"])
    def test_failures_exit_with_their_code_and_message(self, tmp_path, options, code, message):
        path = tmp_path / "run.cfg"
        if options is not None:
            write_cfg(path, **options)
        out = python("-m", "progemb", "mine", "--config", str(path))
        assert (out.returncode, out.stdout, out.stderr) == (code, "", message.format(path=path))

    def test_a_command_ends_without_atexit_handlers(self, tmp_path):
        out = python("-c", (
            "import atexit, sys; atexit.register(print, 'teardown'); "
            "from progemb.cli import run; "
            f"sys.argv[1:] = ['mine', '--config', {str(tmp_path / 'absent.cfg')!r}]; run()"
        ))
        assert out.returncode == 2
        assert "absent.cfg" in out.stderr
        assert "teardown" not in out.stdout


    @pytest.mark.parametrize("argv, code, stream, text", [
        (["--help"], 0, "stdout", "usage: progemb"),
        ([], 2, "stderr", "error: the following arguments are required: command"),
    ], ids=["help", "missing_subcommand"])
    def test_argument_exits_end_without_atexit_handlers(self, argv, code, stream, text):
        """argparse's exits inside main leave through run's flush and
        os._exit too: their output reaches a pipe and teardown is skipped."""
        out = python("-c", (
            "import atexit, sys; atexit.register(print, 'teardown'); "
            f"from progemb.cli import run; sys.argv[1:] = {argv!r}; run()"
        ), PYTHONUNBUFFERED="")
        assert out.returncode == code
        assert text in getattr(out, stream)
        assert "teardown" not in out.stdout


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

    def test_vocabulary_holds_the_corpus_and_the_query_prefix(self, tmp_path):
        rc, out = self.run(tmp_path, query_prefix="find: now")
        assert rc == 0
        vocab = load_checkpoint(out / "checkpoint.bin").tokenizer.id_to_token
        words = {w for p in corpus_passages() for w in p.text.split()}
        assert set(vocab[2:]) == words | {"find:", "now"}

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

    def test_non_finite_embedding_fails_and_writes_no_dataset(self, tmp_path, capsys):
        """encode_batch lets a NaN token row through; top-k rejects the NaN
        embeddings, so no query is written without its negatives."""
        cfg, out = self.setup_inputs(tmp_path)
        model = load_checkpoint(tmp_path / "ckpt.bin")
        model.encoder.token_table[5, 0] = np.nan
        save_checkpoint(tmp_path / "ckpt.bin", model.encoder, model.tokenizer)
        with np.errstate(invalid="ignore"):
            assert main(["mine", "--config", cfg]) == 1
        assert "non-finite vector" in capsys.readouterr().err
        assert not (out / "dataset.jsonl").exists()

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

    def test_judge_errors_keep_their_candidates_and_are_not_dropped(
        self, tmp_path, monkeypatch, capsys
    ):
        """A judge that removes the `common1` passages and raises on the
        `common2` ones: each query keeps its other candidates, failed ones
        included, in mining order; its audit pairs follow candidate order;
        and `filtered_out` counts only the removed candidates."""
        def judge(query, candidate, similarity):
            if candidate.endswith("common2"):
                raise TimeoutError("no verdict")
            return candidate.endswith("common1")

        calls = []

        def spy(query, candidates, judge, texts):
            kept, audit = cli_filter(query, candidates, judge, texts)
            calls.append((list(candidates), kept, audit))
            return kept, audit

        cli_filter = cli.filter_false_negatives
        monkeypatch.setattr(cli, "judge_for", lambda name, threshold: judge)
        monkeypatch.setattr(cli, "filter_false_negatives", spy)
        cfg, out = self.setup_inputs(tmp_path)
        assert main(["mine", "--config", cfg]) == 0
        texts = {p.passage_id: p.text for p in dataio.read_corpus(out / "passages.jsonl")}
        rows = dataio.read_dataset(out / "dataset.jsonl")
        audit_rows = dataio.read_mining_audit(out / "mining_audit.jsonl")
        assert len(calls) == len(rows) == 20
        removed_total, failed_total = 0, 0
        for row, (candidates, kept, audit) in zip(rows, calls):
            assert len(candidates) == 5
            suffix = {pid: texts[pid].rsplit(" ", 1)[1] for pid, _ in candidates}
            assert kept == [c for c in candidates if suffix[c[0]] != "common1"]
            assert audit == [
                (pid, "judged_relevant" if suffix[pid] == "common1"
                 else "judge_error: no verdict")
                for pid, _ in candidates if suffix[pid] != "common0"
            ]
            removed = sum(suffix[pid] == "common1" for pid, _ in candidates)
            removed_total += removed
            failed_total += sum(suffix[pid] == "common2" for pid, _ in candidates)
            assert row.negative_ids == tuple(pid for pid, _ in kept)
            assert row.provenance == {"similarities": [s for _, s in kept],
                                      "filtered_out": removed}
        assert removed_total and failed_total
        assert audit_rows == [
            {"query_id": row.query_id, "candidate_id": cid, "reason": reason}
            for row, (_, _, audit) in zip(rows, calls) for cid, reason in audit
        ]
        assert f"{100 - removed_total} negatives kept, {removed_total} dropped" in (
            capsys.readouterr().out
        )

    @pytest.mark.parametrize("options, summary", [
        ({"judge": "similarity", "judge_threshold": 0.99, "mining_k": 3},
         "12 negatives kept, 48 dropped, 8 queries with no negatives"),
        ({"mining_k": 7}, "100 negatives kept, 0 dropped, 0 queries with no negatives"),
        ({"judge": "always_relevant", "mining_k": 7},
         "0 negatives kept, 140 dropped, 20 queries with no negatives"),
    ], ids=["some_dropped", "truncated", "all_dropped"])
    def test_summary_counts_the_written_rows_and_the_judges_drops(
        self, tmp_path, capsys, options, summary
    ):
        """Passage i's text is passage i + 6's, so at 0.99 the judge drops a
        query's verbatim copies: the 8 queries of a text held 4 times keep
        none of their 3 candidates, the 12 of a text held 3 times keep one.
        Kept negatives are those written, at most 5 a row; dropped ones are
        the judge's."""
        cfg, out = self.setup_inputs(tmp_path, **options)
        assert main(["mine", "--config", cfg]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line == f"mined 20 queries over 20 passages: {summary}"
        rows = dataio.read_dataset(out / "dataset.jsonl")
        audit = dataio.read_mining_audit(out / "mining_audit.jsonl")
        counts = (sum(len(r.negative_ids) for r in rows), len(audit),
                  sum(not r.negative_ids for r in rows))
        assert summary == "{} negatives kept, {} dropped, {} queries with no negatives".format(
            *counts)

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
        negs = (passages[(i + 1) % 6].passage_id, passages[(i + 2) % 6].passage_id)
        rows.append(DatasetRow(f"q{i}", pos.text.split()[0], pos.passage_id, negs, {}))
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

    def test_inputs_are_freed_before_training(self, tmp_path, monkeypatch):
        """Training sees only the compiled set: when `finetune` starts, no
        decoded dataset row or passage of the run is alive."""
        ckpt, ppath, dpath = finetune_fixture(tmp_path)
        cfg, _ = self.make_cfg(tmp_path, ckpt, ppath, dpath)

        def live():
            gc.collect()
            return sum(isinstance(o, (DatasetRow, Passage)) for o in gc.get_objects())

        before, seen, real = live(), [], cli.finetune

        def counting(*args, **kwargs):
            seen.append(live() - before)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "finetune", counting)
        assert main(["finetune", "--config", cfg]) == 0
        assert seen == [0]

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
        dataio.write_dataset(dpath, [DatasetRow("q0", "alpha", "d0", ("ghost",), {})])
        cfg, _ = self.make_cfg(tmp_path, ckpt, ppath, dpath)
        assert main(["finetune", "--config", cfg]) == 1
        assert "dataset: unknown negative id 'ghost'" in capsys.readouterr().err

    def test_unknown_positive_id_is_validation_error(self, tmp_path, capsys):
        ckpt, ppath, dpath = finetune_fixture(tmp_path)
        dataio.write_dataset(dpath, [DatasetRow("q0", "alpha", "phantom", ("d1",), {})])
        cfg, out = self.make_cfg(tmp_path, ckpt, ppath, dpath)
        assert main(["finetune", "--config", cfg]) == 1
        assert "dataset: unknown positive id 'phantom'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("negatives, message", [
        (["d1", "d2", "d3", "d4", "d5", "d6"], "q0: at most 5 hard negatives allowed"),
        (["d1", "d0"], "q0: positive d0 appears among negatives"),
        (["d1", "d2", "d1"], "q0: negative d1 appears twice"),
    ], ids=["too_many_negatives", "positive_among_negatives", "repeated_negative"])
    def test_bad_negatives_are_validation_errors(self, tmp_path, capsys, negatives, message):
        """A dataset row with more than five negatives, its positive among
        them, or one negative twice stops finetune before any output."""
        ckpt, ppath, dpath = finetune_fixture(tmp_path)
        dataio.write_corpus(ppath, corpus_passages(7))
        rows = [
            DatasetRow("q1", "delta", "d1", (), {}),
            DatasetRow("q0", "alpha", "d0", tuple(negatives), {}),
        ]
        dataio.write_dataset(dpath, rows)
        cfg, out = self.make_cfg(tmp_path, ckpt, ppath, dpath)
        assert main(["finetune", "--config", cfg]) == 1
        assert capsys.readouterr().err == f"error: {dpath}: {message}\n"
        assert not out.exists()

    def test_training_set_rows_follow_the_dataset_ids(self, tmp_path):
        """Each example's candidate rows are its positive's and its
        negatives' store rows, in order and padded with -1; the store holds
        each referenced passage once, in first-reference order, then each
        query."""
        from progemb.cli import _training_set
        from progemb.config import RunConfig

        ckpt, ppath, dpath = finetune_fixture(tmp_path)
        rows = dataio.read_dataset(dpath)
        passages = dataio.read_corpus(ppath)
        tok = load_checkpoint(ckpt).tokenizer
        cfg = RunConfig(max_passage_len=16)
        data, tokens = _training_set(rows, passages, tok, cfg)
        order = list(dict.fromkeys(
            key for r in rows for key in (r.positive_id, *r.negative_ids)
        ))
        row_of = {key: k for k, key in enumerate(order)}
        # one row per referenced passage, then one per query
        assert len(tokens) == len(order) + len(rows)
        texts = {p.passage_id: p.text for p in passages}
        for r, text in enumerate([*(texts[key] for key in order), *(row.query for row in rows)]):
            want = tok.encode_text(text, 16)
            np.testing.assert_array_equal(tokens.take([r]).ids, want.ids)
        np.testing.assert_array_equal(data.queries, len(order) + np.arange(len(rows)))
        for i, row in enumerate(rows):
            ids = (row.positive_id, *row.negative_ids)
            assert data.candidates[i, : len(ids)].tolist() == [row_of[key] for key in ids]
            assert (data.candidates[i, len(ids):] == -1).all()

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

    def test_nan_beta_is_refused_before_training_and_writes_nothing(self, tmp_path, capsys):
        """InfoNCE does not read beta, but the audit's header does: a NaN
        there trained every step, wrote the checkpoint, and then could not
        be written as JSON."""
        ckpt, ppath, dpath = finetune_fixture(tmp_path)
        cfg, out = self.make_cfg(tmp_path, ckpt, ppath, dpath, loss_mode="infonce",
                                 beta="nan")
        assert main(["finetune", "--config", cfg]) == 1
        assert f"error: {cfg}: config: beta must be finite, got nan" in capsys.readouterr().err
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
        message = f"{ckpt}: header key 'dim' must be an int, got {header['dim']!r}"
        assert message in capsys.readouterr().err
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

    def test_queries_are_embedded_in_one_call_around_their_error_rows(
        self, tmp_path, monkeypatch
    ):
        """An empty and an OOV query stay error rows; the queries that
        tokenize are embedded in one encode_batch call and rank the gallery
        exactly as their one-row embeddings do."""
        from progemb.config import load_config
        from progemb.encoder import encode
        from progemb.evaluation import rank_gallery

        cfg_path, out = self.setup_inputs(tmp_path)
        qpath = tmp_path / "queries.jsonl"
        rows = dataio.read_queries(qpath) + [("q-empty", "")]
        dataio.write_queries(qpath, rows)
        embedded, pairs = [], []
        encode_batch, evaluate_run = cli.encode_batch, cli.evaluate_run

        def spy_embed(enc, tokens):
            embedded.append(len(tokens))
            return encode_batch(enc, tokens)

        def spy_evaluate(queries, *args, **kwargs):
            pairs.extend(queries)
            return evaluate_run(queries, *args, **kwargs)

        monkeypatch.setattr(cli, "encode_batch", spy_embed)
        monkeypatch.setattr(cli, "evaluate_run", spy_evaluate)
        assert main(["evaluate", "--config", cfg_path]) == 0
        # every query that tokenized, then the gallery's one block as it is ranked
        assert embedded == [len(rows) - 2, 6]
        report = dataio.read_metrics_report(out / "metrics.jsonl")
        assert {"q-oov", "q-empty"} <= set(report.errors)
        got = dict(pairs)
        assert got["q-oov"] is None and got["q-empty"] is None

        cfg = load_config(cfg_path)
        ckpt = load_checkpoint(cfg.checkpoint_path)
        [(gallery_ids, gallery_embs)] = cli._embed_gallery(
            ckpt.encoder, ckpt.tokenizer, cfg, cfg.gallery_path
        )
        ids = [qid for qid, text in rows if got[qid] is not None]
        texts = dict(rows)
        one_row = np.array([
            encode(ckpt.encoder, ckpt.tokenizer.encode_text(texts[qid], cfg.max_query_len))
            for qid in ids
        ])
        batched = np.array([got[qid] for qid in ids])
        np.testing.assert_allclose(batched, one_row, rtol=0, atol=1e-15)
        depth = len(gallery_ids)
        gallery = [(gallery_ids, gallery_embs)]
        for a, b in zip(rank_gallery(ids, batched, gallery, depth),
                        rank_gallery(ids, one_row, gallery, depth), strict=True):
            assert a.doc_ids == b.doc_ids

    def test_queries_that_all_fail_to_tokenize_are_all_error_rows(self, tmp_path):
        cfg, out = self.setup_inputs(tmp_path)
        dataio.write_queries(tmp_path / "queries.jsonl", [("q-oov", "unseen"), ("q-empty", "")])
        assert main(["evaluate", "--config", cfg]) == 0
        report = dataio.read_metrics_report(out / "metrics.jsonl")
        assert sorted(report.errors) == ["q-empty", "q-oov"] and not report.per_query

    @pytest.mark.parametrize("value, message", [
        (0.0, "encoder produced a zero-norm embedding"),
        (1e300, "encoder produced a non-finite embedding (infinite norm)"),
    ])
    def test_degenerate_query_embedding_is_validation_error(
        self, tmp_path, capsys, value, message
    ):
        """A query whose embedding has zero or infinite norm, which only a
        hand-made checkpoint gives, fails the run as a degenerate gallery
        passage does; it is not an error row."""
        cfg, out = self.setup_inputs(tmp_path)
        ckpt_path = tmp_path / "ckpt.bin"
        make_checkpoint(ckpt_path, [p.text for p in corpus_passages(6)] + ["odd"])
        ckpt = load_checkpoint(ckpt_path)
        ckpt.encoder.token_table[ckpt.tokenizer.id_to_token.index("odd")] = value
        save_checkpoint(ckpt_path, ckpt.encoder, ckpt.tokenizer)
        qpath = tmp_path / "queries.jsonl"
        dataio.write_queries(qpath, dataio.read_queries(qpath) + [("q-odd", "odd")])
        with np.errstate(over="ignore"):
            assert main(["evaluate", "--config", cfg]) == 1
        assert message in capsys.readouterr().err
        assert not (out / "metrics.jsonl").exists()


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
        from progemb.encoder import Tokens, encode_batch
        from progemb.evaluation import evaluate_run

        cfg_path, out, gallery = self.setup_inputs(tmp_path, 3 * cli.GALLERY_BLOCK + 7)
        assert main(["evaluate", "--config", cfg_path]) == 0

        cfg = load_config(cfg_path)
        ckpt = load_checkpoint(cfg.checkpoint_path)
        passages = dataio.read_corpus(gallery)
        ids = [p.passage_id for p in passages]
        embs = np.concatenate([e for _, e in cli._embed_passages(
            ckpt.encoder, cli._passage_tokens(ckpt.tokenizer, cfg, passages), passages
        )])
        stores, queries = {}, []
        for qid, text in dataio.read_queries(cfg.queries_path):
            try:
                stores[qid] = ckpt.tokenizer.encode_text(text, cfg.max_query_len)
            except ValueError:
                queries.append((qid, None))
        queries += zip(stores, encode_batch(ckpt.encoder, Tokens.concat(stores.values())).embs)
        report = evaluate_run(queries, [(ids, embs)], dataio.read_qrels(cfg.qrels_path),
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

    def test_repeated_qrels_pair_is_validation_error(self, tmp_path, capsys):
        cfg, out, _ = self.setup_inputs(tmp_path, 20)
        qrels = tmp_path / "qrels.jsonl"
        lines = qrels.read_text().splitlines(keepends=True)
        qrels.write_text("".join(lines + lines[1:2]))
        assert main(["evaluate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert str(qrels) in err and "duplicate qrels pair (q0, p00000)" in err
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

    def test_query_prefix_runs(self, tmp_path):
        cfg, out = self.make_cfg(tmp_path, query_prefix="find: now")
        assert main(["bench", "--config", cfg]) == 0
        runs, _ = dataio.read_bench_report(out / "bench.jsonl")
        assert [r["loss_mode"] for r in runs] == ["progressive", "infonce"]

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg, _ = self.make_cfg(tmp_path, bench_noise_rate=0.2)
        for out in ("out1", "out2"):
            assert main(["bench", "--config", cfg, "--out", str(tmp_path / out)]) == 0
        assert_same_files(tmp_path / "out1", tmp_path / "out2")

    def test_gallery_tokenized_once_per_seed(self, tmp_path, monkeypatch):
        """bench tokenizes each seed's gallery once, before its loss-mode
        loop, and both modes embed the passages that store was made from.
        Both modes run in this process, where the spies see them."""
        import progemb.cli as cli

        monkeypatch.setattr(cli, "_modes", cli._modes_in_process)
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

    def test_heldout_queries_tokenized_once_per_seed(self, tmp_path, monkeypatch):
        """bench tokenizes each seed's held-out queries into one store before
        its loss-mode loop, and each mode embeds that whole store in one
        encode_batch call. Both modes run in this process, where the spies
        see them."""
        import progemb.cli as cli
        from progemb.synthetic import make_clustered_corpus

        monkeypatch.setattr(cli, "_modes", cli._modes_in_process)
        encode_texts, encode_batch = Tokenizer.encode_texts, cli.encode_batch
        stores, embedded = [], []

        def spy_texts(tok, texts, max_len=0):
            texts = list(texts)
            stores.append((texts, encode_texts(tok, texts, max_len)))
            return stores[-1][1]

        def spy_embed(enc, tokens):
            embedded.append(tokens)
            return encode_batch(enc, tokens)

        monkeypatch.setattr(Tokenizer, "encode_texts", spy_texts)
        monkeypatch.setattr(cli, "encode_batch", spy_embed)
        cfg, _ = self.make_cfg(tmp_path, bench_seeds=2)
        assert main(["bench", "--config", cfg]) == 0
        # per seed and mode: the 8 held-out queries, then the 40-passage
        # gallery as it is ranked
        assert [len(tokens) for tokens in embedded] == [8, 40] * 4
        for seed in (0, 1):
            heldout = [q.text for q in make_clustered_corpus(
                n_clusters=4, gallery_size=40, n_train=32, n_heldout=8, seed=seed
            ).heldout]
            (store,) = [tokens for texts, tokens in stores if texts == heldout]
            assert not any(texts[0] in heldout for texts, _ in stores if len(texts) == 1)
            queries = embedded[4 * seed : 4 * seed + 4 : 2]
            assert all(tokens is store for tokens in queries)

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


@pytest.mark.skipif(not hasattr(os, "fork"), reason="bench forks only where os.fork exists")
class TestBenchFork:
    """bench's InfoNCE run in a forked child, against the in-process runner."""

    make_cfg = TestBench.make_cfg

    def test_forked_and_in_process_runs_are_byte_identical(self, tmp_path, capfd, monkeypatch):
        cfg, out = self.make_cfg(tmp_path, bench_seeds=2, bench_noise_rate=0.2)
        infonce, info_nce = [], training.info_nce

        def count(*args, **kwargs):
            infonce.append(1)
            return info_nce(*args, **kwargs)

        monkeypatch.setattr(training, "info_nce", count)
        assert main(["bench", "--config", cfg]) == 0
        forked_out, forked_err = capfd.readouterr()
        forked = (out / "bench.jsonl").read_bytes()
        # the parent ran no InfoNCE step: both seeds' InfoNCE runs were children
        assert infonce == []
        monkeypatch.setattr(cli, "_modes", cli._modes_in_process)
        assert main(["bench", "--config", cfg]) == 0
        assert infonce
        assert capfd.readouterr() == (forked_out, forked_err)
        assert (out / "bench.jsonl").read_bytes() == forked
        assert forked_out.count("infonce") == 3

    @pytest.mark.parametrize("error, code", [(ValueError("injected"), 1),
                                             (OSError(5, "injected"), 2),
                                             (KeyError("injected"), 3)])
    def test_infonce_error_exits_with_the_in_process_code_and_message(
        self, tmp_path, capsys, monkeypatch, error, code
    ):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(training, "info_nce", fail)
        cfg, out = self.make_cfg(tmp_path)
        assert main(["bench", "--config", cfg]) == code
        forked = capsys.readouterr()
        monkeypatch.setattr(cli, "_modes", cli._modes_in_process)
        assert main(["bench", "--config", cfg]) == code
        assert capsys.readouterr() == forked
        assert "injected" in forked.err and forked.out == ""
        assert not (out / "bench.jsonl").exists()

    def test_child_that_dies_exits_three(self, tmp_path, capsys, monkeypatch):
        import signal

        test_pid = os.getpid()

        def die(*args, **kwargs):
            # only a forked child kills itself; this process fails the test
            if os.getpid() == test_pid:
                raise AssertionError("the InfoNCE run did not fork")
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(training, "info_nce", die)
        cfg, out = self.make_cfg(tmp_path)
        assert main(["bench", "--config", cfg]) == 3
        assert "internal error: RuntimeError: the infonce run ended without a result" in (
            capsys.readouterr().err
        )
        assert not (out / "bench.jsonl").exists()

    def test_progressive_failure_exits_one_and_reaps_the_child(self, tmp_path, capsys,
                                                               monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("injected")

        monkeypatch.setattr(training, "progressive_loss", fail)
        cfg, out = self.make_cfg(tmp_path)
        assert main(["bench", "--config", cfg]) == 1
        assert "error: fine-tune step 0 (epoch 0): injected" in capsys.readouterr().err
        assert not (out / "bench.jsonl").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
