"""Benchmark of fracground: the solve, mountain_pass and gl_cross workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload solve --seed 1 --seconds 30 --trace 0

The task list is generated from the seed and sized from --seconds (see
workloads.py).  Set-up time is measured in fresh interpreters, one of them
the measured process itself; the tasks then run in that one process.  The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1.  A run record (versions, seed, task-list hash, per-task results)
and the traced spans are written under .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

#: fresh interpreters whose set-up is timed, the measured process included
SETUP_SAMPLES = 3

#: every run must finish within this many seconds
DEADLINE_S = 170.0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("solve", "mountain_pass", "gl_cross"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    started = time.monotonic()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fracground", "__init__.py")):
        print(f"error: {src}/fracground not found; run from the root of a fracground checkout",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    env = dict(os.environ, PYTHONPATH=src)

    def spawn(result: str, setup_only: bool) -> dict:
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--src", src, "--result", result,
        ] + (["--setup-only"] if setup_only else [])
        if os.path.exists(result):
            os.remove(result)
        remaining = DEADLINE_S - (time.monotonic() - started)
        cmd += ["--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
        proc = subprocess.run(cmd, env=env, cwd=root, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=max(remaining, 1.0))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)

    try:
        setups = [spawn(stem + "-setup.json", True)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        res = spawn(stem + ".json", False)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    rows = res["traced"] if args.trace else res["untraced"]
    times = [r["seconds"] for r in res["untraced"] if r["seconds"] is not None]
    everything = res["untraced"] + (rows if args.trace else [])
    attempted = len(everything)
    failed = sum(not r["ok"] for r in everything)

    if args.trace:
        traced_times = [r["seconds"] for r in rows if r["seconds"] is not None]
        metrics = dict(res["layers"])
        metrics["setup.import_ms"] = res["import_ms"]
        metrics["trace.overhead_ratio"] = sum(traced_times) / sum(times) if times else 0.0
        metrics["host.llc_mb"] = llc_mb()
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(times),
            "task_s_p50": statistics.median(times) if times else 0.0,
            "pass_ratio": 1.0 - failed / attempted,
            "peak_rss_mb": res["peak_rss_mb"],
        }
    units = benchmark_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "versions": res["versions"],
        "task_list_sha256": hashlib.sha256(json.dumps(res["tasks"], sort_keys=True).encode()).hexdigest(),
        "task_iterations": [r["iterations"] for r in rows],
        "task_results": [r["result"] for r in rows],
        "task_seconds": [r["seconds"] for r in rows],
        "setup_samples_s": setups,
        "metrics": metrics,
    }
    with open(stem + "-record.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  tasks {len(rows)}  "
          f"task list sha256 {record['task_list_sha256'][:16]}  record {stem}-record.json")
    print(f"attempted {attempted}  failed {failed}  fail_ratio {failed / attempted:.4g}")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:14.6g} {units[name]}")
    if not args.trace:
        print(f"  (task_s_p50 over n = {len(times)} tasks; setup_s median of {len(setups)} interpreters)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def benchmark_units(section: str) -> dict[str, str]:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def git_sha(root: str) -> str:
    """HEAD of the checkout's .git directory, read without running git; 'unknown' if absent."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def llc_mb() -> float:
    """Last-level cache size as getconf reports it, in MiB; 0 if unknown."""
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip()) / 2 ** 20
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return 0.0


if __name__ == "__main__":
    sys.exit(main())
