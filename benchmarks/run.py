"""Pipeline benchmark for the progemb command line.

Run one workload:

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

It writes the workload's inputs for seed N under ``.bench_work/``, times
several no-op ``progemb`` starts (``setup_s``), then runs the workload's
command chain as separate ``progemb`` processes, one after another, for
about S seconds, checks every pipeline's outputs and prints each metric by
name and unit. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones, medians over the pipelines run; with
``--trace 1`` every pipeline runs once untraced and once under
``tracer.py``, and the metrics are the per-layer ones.

Compare two result sets (see compare.py):

    python3 benchmarks/run.py compare OLD.jsonl NEW.jsonl

Each run appends its record to ``.bench_work/results.jsonl``; copy that file
aside to keep a result set.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import workloads  # noqa: E402
from checks import check_pipeline  # noqa: E402
from tracer import layer_metrics  # noqa: E402

# No-op starts are spread over the run (a warm-up, then some before and
# some after every pipeline) so that their median follows the host's speed
# over the whole run rather than over two seconds of it.
SETUP_STARTS_FIRST = 3
SETUP_STARTS_BETWEEN = 2
RUN_LIMIT_S = 170.0   # a run must end within 180 s


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _spawn(argv, cwd: Path, log: Path, timeout: float):
    """Run one process; return (exit code, wall seconds, peak RSS in MB).

    The peak RSS is the child's own, read from its rusage when it is reaped.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def measure_setup(run_dir: Path, deadline: float, starts: int) -> list[float]:
    """Wall times of no-op ``progemb --help`` starts."""
    argv = [sys.executable, "-m", "progemb", "--help"]
    times = []
    for _ in range(starts):
        rc, wall, _ = _spawn(argv, run_dir, run_dir / "setup.log",
                             deadline - time.perf_counter())
        if rc != 0:
            raise RuntimeError(f"progemb --help exited {rc}; see {run_dir / 'setup.log'}")
        times.append(wall)
    return times


def run_pipeline(run_dir: Path, traced: bool, deadline: float) -> dict:
    """Run the command chain once; return timings, exit codes and spans."""
    commands = []
    for name in workloads.COMMANDS:
        shutil.rmtree(run_dir / name, ignore_errors=True)
        args = [name, "--config", f"{name}.cfg"]
        spans_path = run_dir / f"{name}.spans.json"
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path), *args]
        else:
            argv = [sys.executable, "-m", "progemb", *args]
        rc, wall, rss = _spawn(argv, run_dir, run_dir / f"{name}.log",
                               deadline - time.perf_counter())
        cmd = {"name": name, "rc": rc, "wall_s": wall, "rss_mb": rss}
        if traced and rc == 0:
            cmd.update(json.loads(spans_path.read_text()))
        commands.append(cmd)
    return {"pipeline_s": sum(c["wall_s"] for c in commands), "commands": commands}


def _work_counts(run_dir: Path) -> dict[str, float]:
    """Items each command processes, for its throughput."""
    from progemb.config import load_config

    chain = load_config(run_dir / "finetune.cfg")
    bench = load_config(run_dir / "bench.cfg")
    docs = _rows(run_dir / "corpus.jsonl")
    mined = _rows(run_dir / "mine/dataset.jsonl")
    return {
        "pretrain": docs * chain.pretrain_epochs,
        "mine": mined,
        "finetune": mined * chain.finetune_epochs,
        "evaluate": _rows(run_dir / "queries.jsonl"),
        "bench": bench.bench_train * bench.bench_epochs * 2 * bench.bench_seeds,
    }


def _rows(path: Path) -> int:
    """Data rows of a line-JSON file, not counting its header."""
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


THROUGHPUT = {
    "pretrain": "pretrain_seq_per_s",
    "mine": "mine_queries_per_s",
    "finetune": "finetune_examples_per_s",
    "evaluate": "evaluate_queries_per_s",
    "bench": "bench_examples_per_s",
}

# Per-command throughputs and the failure rate are printed and recorded for
# every workload but are not in BENCHMARK.json: a command that is short on a
# workload gives too noisy a figure there to gate on.
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
UNITS.update({name: "1/s" for name in THROUGHPUT.values()}, op_failure_rate="ratio")


def end_to_end(result: dict, counts: dict, quality: dict) -> dict[str, float]:
    m = {"pipeline_s": result["pipeline_s"],
         "peak_rss_mb": max(c["rss_mb"] for c in result["commands"])}
    for cmd in result["commands"]:
        m[THROUGHPUT[cmd["name"]]] = counts[cmd["name"]] / cmd["wall_s"]
    m.update(quality)
    return m


def _medians(samples: list[dict]) -> dict[str, float]:
    names = set().union(*samples)
    return {n: statistics.median(s[n] for s in samples if n in s) for n in sorted(names)}


def _blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _commit() -> str:
    """The checked-out commit, or ``unknown`` outside a git clone.

    Git is kept from searching above the checkout for a repository.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def stamp() -> dict:
    import numpy as np

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": _blas_threads(),
            "commit": _commit()}


def _bench_corpus(workload) -> bytes:
    """The bench command's synthetic corpus at the default seed, serialized."""
    from progemb.config import parse_config
    from progemb.synthetic import make_clustered_corpus

    cfg = parse_config(workloads.config_text(workload, "bench", workloads.DEFAULT_SEED))
    data = make_clustered_corpus(
        n_clusters=cfg.bench_clusters, gallery_size=cfg.bench_gallery,
        n_train=cfg.bench_train, n_heldout=cfg.bench_heldout,
        noise_rate=cfg.bench_noise_rate, seed=cfg.seed)
    rows = [[p.passage_id, p.text] for p in data.passages]
    rows += [[q.query_id, q.text, q.positive_id] for q in data.train + data.heldout]
    return json.dumps(rows).encode()


def run(args) -> int:
    begin = time.perf_counter()
    deadline = begin + RUN_LIMIT_S
    if not (SRC / "progemb" / "__init__.py").is_file():
        print(f"error: {SRC / 'progemb'} not found; run from a progemb checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]
    try:
        workloads.check_default_digest(workload, extra=_bench_corpus(workload))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    run_dir = WORK / workload.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    for name, data in workloads.generate(workload, args.seed).items():
        (run_dir / name).write_bytes(data)

    measure_setup(run_dir, deadline, 1)
    setup = measure_setup(run_dir, deadline, SETUP_STARTS_FIRST)
    plain, traced, failures, missing, spans = [], [], [], set(), []
    attempted = failed = 0
    measure_start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        for is_traced in ((False, True) if args.trace else (False,)):
            result = run_pipeline(run_dir, is_traced, deadline)
            quality, evaluated, problems = check_pipeline(
                run_dir, workload, args.seed)
            for cmd in result["commands"]:
                if cmd["rc"] != 0:
                    problems.append(f"{cmd['name']} exited {cmd['rc']}; "
                                    f"see {run_dir / (cmd['name'] + '.log')}")
            attempted += len(result["commands"]) + evaluated
            failed += len(problems)
            failures += problems
            if problems:
                break
            if is_traced:
                layer = layer_metrics(result["commands"])
                for c in result["commands"]:
                    missing.update(c["missing"])
                    spans += [{"command": f"{len(traced)}:{c['name']}", "name": name,
                               "start": start, "end": end, "parent": parent}
                              for name, start, end, parent in c["spans"]]
                layer["trace.overhead_s"] = result["pipeline_s"] - plain[-1]["pipeline_s"]
                traced.append(layer)
                for name in workload.expects:
                    if not layer.get(name, 0.0) > 0.0:
                        failures.append(f"{name} is not above 0: the mechanism never fired")
                        failed += 1
            else:
                plain.append(end_to_end(result, _work_counts(run_dir), quality))
        setup += measure_setup(run_dir, deadline, SETUP_STARTS_BETWEEN)
        now = time.perf_counter()
        if failures or now + (now - pair_start) > min(measure_start + args.seconds,
                                                      deadline):
            break

    e2e = _medians(plain) if plain else {}
    if plain:
        e2e["setup_s"] = statistics.median(setup)
        e2e["op_success_rate"] = 1.0 - failed / attempted
    per_layer = _medians(traced) if traced else {}
    metrics = per_layer if args.trace else e2e
    correct = not failures and bool(metrics)

    print(f"workload {workload.name}, seed {args.seed}, {len(plain)} pipelines "
          f"untraced, {len(traced)} traced, {time.perf_counter() - begin:.1f} s")
    for name, value in {**e2e, "op_failure_rate": failed / max(attempted, 1),
                        **per_layer}.items():
        print(f"  {name:<40} {value:>14.6g} {UNITS.get(name, '')}")
    for target in sorted(missing):
        print(f"  MISSING entry point: {target}")
    for problem in failures:
        print(f"  FAILED: {problem}")
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "pipelines": len(plain), "correct": correct,
              "attempted": attempted, "failed": failed, "metrics": metrics,
              "missing": sorted(missing), "stamp": stamp()}
    with open(WORK / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    if spans:
        (run_dir / "spans.jsonl").write_text("".join(json.dumps(x) + "\n" for x in spans))
    wanted = [m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": UNITS[n]}
                    for n in wanted if n in metrics},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare OLD.jsonl NEW.jsonl", file=sys.stderr)
            return 2
        compare.print_rows(compare.compare(argv[1], argv[2], SPEC))
        return 0
    return run(_parse(argv))


if __name__ == "__main__":
    sys.exit(main())
