"""Tests of the benchmark harness itself: span arithmetic, wrapper hygiene,
the input digest gate and the compare verdicts."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_covered_child_time():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["training.finetune", 1.0, 7.0, 0],
        ["training.build_batch", 2.0, 3.0, 1],
        ["loss.progressive_loss", 4.0, 4.5, 1],
        ["similarity.sim_matrix", 2.2, 2.7, 2],
        ["dataio.write", 8.0, 9.0, 0],
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 4.5, 0.5, 0.5, 0.5, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [["a.x", 0.0, 4.0, -1], ["b.y", 1.0, 3.0, 0], ["b.z", 2.0, 5.0, 0]]
    assert tracer.self_times(spans)[0] == pytest.approx(1.0)


def test_layer_self_times_and_remainder_account_for_wall_time():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["training.finetune", 1.0, 7.0, 0],
        ["training.build_batch", 2.0, 3.0, 1],
        ["loss.progressive_loss", 4.0, 4.5, 1],
    ]
    m = tracer.layer_metrics([{"spans": spans, "counters": {}, "missing": [],
                               "wall_s": 11.5}])
    layers = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert layers + m["trace.unattributed_s"] == pytest.approx(11.5)
    assert m["training.finetune_self_s"] == pytest.approx(4.5)
    assert m["training.build_batch_s"] == pytest.approx(1.0)
    assert m["cli.self_s"] == pytest.approx(4.0)


def test_missing_entry_point_is_left_out_not_zero():
    missing = ["progemb.training.build_batch"]
    m = tracer.layer_metrics([{"spans": [["cli.main", 0.0, 1.0, -1]],
                               "counters": {}, "missing": missing, "wall_s": 1.0}])
    assert "training.build_batch_s" not in m
    assert "training.pool_mb_per_step" not in m
    assert m["training.finetune_self_s"] == 0.0


def test_mechanism_shares_are_kept_per_command():
    def command(name, downweighted, amplified):
        counters = {"loss.positives": 10, "loss.positives_downweighted": downweighted,
                    "loss.negatives": 100, "loss.negatives_amplified": amplified}
        return {"name": name, "spans": [["cli.main", 0.0, 1.0, -1]],
                "counters": counters, "missing": [], "wall_s": 1.0}

    m = tracer.layer_metrics([command("finetune", 0, 3), command("bench", 2, 0)])
    assert m["loss.finetune.positives_downweighted_share"] == 0.0
    assert m["loss.finetune.negatives_amplified_share"] == pytest.approx(0.03)
    assert m["loss.bench.positives_downweighted_share"] == pytest.approx(0.2)
    assert m["loss.bench.negatives_amplified_share"] == 0.0


def test_wrappers_record_spans_and_restore_the_originals():
    import progemb.cli
    import progemb.training
    from progemb.encoder import Tokenizer
    from progemb.optim import AdamW

    before = {
        "finetune": progemb.cli.finetune,
        "build_batch": progemb.training.build_batch,
        "from_texts": vars(Tokenizer)["from_texts"],
        "step": vars(AdamW)["step"],
    }
    rec = tracer.Recorder()
    patches, missing = tracer.install(rec)
    try:
        assert missing == []
        assert progemb.cli.finetune is not before["finetune"]
        tok = Tokenizer.from_texts(["alpha beta"])
        tok.encode_text("alpha beta")
    finally:
        tracer.restore(patches)
    assert [s[0] for s in rec.spans] == ["encoder.build_vocab", "encoder.tokenize"]
    assert progemb.cli.finetune is before["finetune"]
    assert progemb.training.build_batch is before["build_batch"]
    assert vars(Tokenizer)["from_texts"] is before["from_texts"]
    assert vars(AdamW)["step"] is before["step"]


def test_digest_mismatch_fails_the_run(tmp_path, monkeypatch, capsys):
    name = "paper-bench-noisy"
    recorded = json.loads(workloads.DIGESTS_PATH.read_text())
    tampered = tmp_path / "digests.json"
    tampered.write_text(json.dumps({**recorded, name: "0" * 64}))
    monkeypatch.setattr(workloads, "DIGESTS_PATH", tampered)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    rc = run.main(["--workload", name, "--seed", "3", "--seconds", "1"])
    out, err = capsys.readouterr()
    assert rc != 0
    assert "default-seed inputs hash to" in err
    assert out == ""


def test_default_seed_inputs_match_the_recorded_digest():
    workload = workloads.WORKLOADS["paper-bench-noisy"]
    workloads.check_default_digest(workload, extra=run._bench_corpus(workload))


def test_inputs_depend_on_the_seed_only():
    workload = workloads.WORKLOADS["paper-bench-noisy"]
    a = workloads.generate(workload, 5)
    assert a == workloads.generate(workload, 5)
    assert a["corpus.jsonl"] != workloads.generate(workload, 6)["corpus.jsonl"]


@pytest.mark.parametrize(
    "old, new, better, expected",
    [
        ([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.0], "lower", "worse"),
        ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "lower", "better"),
        ([10.0, 10.1, 9.9, 10.0], [10.3, 10.4, 10.2, 10.3], "lower", "same"),
        ([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.0], "higher", "better"),
        # spread wider than the bound, runs overlap: unresolved
        ([8.0, 12.0, 9.0, 11.0], [9.5, 13.0, 10.0, 12.5], "lower", "unresolved"),
        # spread wider than the bound, but every new run beats every old one
        ([20.0, 30.0, 24.0, 27.0], [10.0, 15.0, 12.0, 13.0], "lower", "better"),
        ([10.0], [10.0], "lower", "unresolved"),
    ],
)
def test_compare_verdicts(old, new, better, expected):
    assert compare.verdict(old, new, 0.1, better) == expected


def test_compare_reads_result_sets(tmp_path):
    def write(path, values):
        path.write_text("".join(
            json.dumps({"workload": "w", "metrics": {"pipeline_s": v, "x.s": v}}) + "\n"
            for v in values))

    write(tmp_path / "old.jsonl", [10.0, 10.1, 9.9])
    write(tmp_path / "new.jsonl", [13.0, 13.1, 12.9])
    spec = {"end_to_end": [{"name": "pipeline_s", "unit": "s", "better": "lower",
                            "bound": 0.1}]}
    rows = compare.compare(tmp_path / "old.jsonl", tmp_path / "new.jsonl", spec)
    assert [(r["metric"], r["verdict"]) for r in rows] == [
        ("pipeline_s", "worse"), ("x.s", "-")]
    assert rows[0]["old"][1] == pytest.approx(10.0)
