"""Benchmark for l1conc: three workloads, end-to-end metrics with tracing off
and per-module metrics from a separate traced run.

    python3 bench/run.py --workload falsify-grid --seed 1 --seconds 30 --trace 0

Run from anywhere; the program under test is ``src/l1conc`` of the checkout
that holds this file.  Every repetition runs in a fresh interpreter.  The
last line of standard output is one JSON object with the metrics; a result
file per run goes to ``bench/results/``.  The exit code is 1 when a
correctness check fails and 2 when the program is missing.
"""

import argparse
import hashlib
import importlib.metadata
import json
import multiprocessing
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from statistics import median

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REP_TIMEOUT_S = 150
MIN_TIMED_REPS = 3

END_TO_END = {
    "wall_s": "s",
    "trials_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "_s": "s", "_rows": "count", "_x_floor": "ratio", "_bytes": "bytes",
    "_bytes_computed": "bytes", "_us_per_outcome": "us", "_ratio": "ratio",
    "_efficiency": "ratio",
}


def layer_unit(name: str) -> str:
    for suffix in sorted(PER_LAYER_UNITS, key=len, reverse=True):
        if name.endswith(suffix):
            return PER_LAYER_UNITS[suffix]
    return "count"


def run_rep(inputs_path: Path, mode: str, workers: int, out: Path) -> dict:
    """Run one repetition in a fresh interpreter and return its record."""
    cmd = [sys.executable, str(BENCH / "rep.py"), str(inputs_path), mode,
           str(workers), str(out), repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"repetition {mode} timed out after {REP_TIMEOUT_S} s")
    if code != 0:
        raise RuntimeError(f"repetition {mode} exited with code {code}")
    return json.loads(out.read_text())


def repeat(step, seconds: float, minimum: int) -> list:
    """Call ``step(i)`` until ``seconds`` have passed and ``minimum`` calls are made."""
    out = []
    start = time.monotonic()
    while len(out) < minimum or time.monotonic() - start < seconds:
        out.append(step(len(out)))
    return out


def end_to_end(reps: list) -> dict:
    return {
        "wall_s": median(r["wall_s"] for r in reps),
        "trials_per_s": median(r["trials"] / r["mc_s"] for r in reps),
        "setup_s": median(r["setup_s"] for r in reps),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
    }


def per_layer(rounds: list) -> dict:
    plain1 = median(r[0]["wall_s"] for r in rounds)
    pools2 = median(r[1]["wall_s"] for r in rounds)
    traced = median(r[2]["wall_s"] for r in rounds)
    names = rounds[0][2]["layers"]
    out = {k: median(r[2]["layers"][k] for r in rounds) for k in names}
    out["montecarlo.pool_starts"] = median(r[1]["pool_starts"] for r in rounds)
    out["montecarlo.parallel_efficiency"] = plain1 / (2.0 * pools2)
    out["trace.overhead_ratio"] = traced / plain1
    out["trace.single_process_wall_s"] = plain1
    return out


def environment(seed: int) -> dict:
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             text=True, capture_output=True, timeout=30).stdout.split()
    except (OSError, subprocess.TimeoutExpired):
        out = []
    # a checkout that is not itself a git repository records no commit
    if len(out) == 2 and Path(out[0]).resolve() == ROOT:
        commit = out[1]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "start_method": multiprocessing.get_context().get_start_method(),
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKERS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "l1conc" / "__init__.py").is_file():
        print(f"error: no l1conc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    started = datetime.now(timezone.utc)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{started:%Y%m%dT%H%M%S%f}"
    results = BENCH / "results"
    work = BENCH / "work" / stem
    work.mkdir(parents=True)
    try:
        inputs = workloads.make_inputs(args.workload, args.seed)
        inputs_path = work / "inputs.json"
        inputs_path.write_text(json.dumps(inputs))
        if args.trace:
            # rounds of untraced 1 worker, untraced 2 workers, traced 1 worker
            rounds = repeat(lambda i: (
                run_rep(inputs_path, "plain", 1, work / f"plain1-{i}.json"),
                run_rep(inputs_path, "pools", 2, work / f"pools2-{i}.json"),
                run_rep(inputs_path, "traced", 1, work / f"traced1-{i}.json"),
            ), args.seconds, 1)
            reps = [rep for rnd in rounds for rep in rnd]
            metrics = per_layer(rounds)
            units = {k: layer_unit(k) for k in metrics}
        else:
            workers = workloads.WORKERS[args.workload]
            reps = repeat(lambda i: run_rep(inputs_path, "plain", workers,
                                            work / f"plain-{i}.json"),
                          args.seconds, MIN_TIMED_REPS)
            metrics = end_to_end(reps)
            units = END_TO_END
        # the report must not depend on tracing, the worker count or the run
        digests = {rep["digest"] for rep in reps}
        checks = [c for rep in reps for c in rep["checks"]]
        checks.append(("report digest equal across repetitions", len(digests) == 1))
        failed = [name for name, ok in checks if not ok]
        results.mkdir(exist_ok=True)
        if args.trace:
            with open(results / f"{stem}.spans.jsonl", "w") as fh:
                for path in sorted(work.glob("*.spans.jsonl")):
                    fh.write(path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": started.isoformat(),
        "environment": environment(args.seed),
        "report_sha256": sorted(digests),
        "check_fail_ratio": len(failed) / len(checks),
        "failed_checks": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "repetitions": [{k: v for k, v in rep.items() if k != "checks"} for rep in reps],
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} repetitions = {len(reps)}")
    print(f"{args.workload} report_sha256 = {' '.join(record['report_sha256'])}")
    print(f"{args.workload} check_fail_ratio = {record['check_fail_ratio']:.6g}"
          f" ({len(failed)} of {len(checks)} checks failed)")
    for name in failed:
        print(f"FAILED {name}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
