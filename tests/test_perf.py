"""The layer harness runs at tiny shapes and writes its file's schema."""

import json
import subprocess
import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent.parent / "perf" / "layers.py"


def test_tiny_run_writes_the_schema_and_compares(tmp_path):
    old = tmp_path / "old.json"
    old.write_text(json.dumps({"cases": {"topk/g300/k5": {"median_s": 1.0, "peak_rss_mb": 10.0}}}))
    out = tmp_path / "BENCH_1.json"
    proc = subprocess.run(
        [sys.executable, str(PERF), "--out", str(out), "--repeats", "1", "--queries", "20",
         "--galleries", "300", "--ks", "5", "--mine-topk", "30,40,3", "--eval-galleries", "200",
         "--steps", "8", "--compare", str(old)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert set(result["stamp"]) == {"nproc", "python", "numpy", "blas_threads", "blas_core",
                                    "commit"}
    assert result["stamp"]["blas_threads"] == 1
    core = result["stamp"]["blas_core"]
    assert isinstance(core, str) and core
    assert set(result["cases"]) == {"topk/g300/k5", "mine/q30/g40/k3", "evaluate/g200",
                                    "step/b8/progressive", "step/b8/infonce"}
    for case in result["cases"].values():
        assert set(case) == {"repeats", "median_s", "iqr_s", "first_s", "seconds",
                             "peak_rss_mb"}
        assert case["repeats"] == len(case["seconds"]) == 1
        assert case["first_s"] == case["seconds"][0] == case["median_s"] > 0
        assert case["iqr_s"] == 0 and case["peak_rss_mb"] > 0
    assert "topk/g300/k5" in proc.stdout and " x" in proc.stdout
    assert "evaluate/g200            new" in proc.stdout
