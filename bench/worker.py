"""One measured process of the benchmark; started by run.py, never by hand.

It imports ``fracground`` from the checkout, builds the task inputs, and
reports its set-up time as the time since its parent spawned it.  With
``--setup-only`` it stops there.  Otherwise it runs the task list once
untraced; with ``--trace 1`` it then runs the same tasks again under the
tracer.  It writes one JSON result file and the traced spans.
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback
import warnings

import tracer as tracing
import workloads


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    t_import = time.perf_counter()
    import fracground
    import fracground.cli
    import fracground.errors
    import fracground.grid
    import fracground.operators
    import fracground.solver

    import_ms = 1e3 * (time.perf_counter() - t_import)
    if not os.path.abspath(fracground.__file__).startswith(os.path.abspath(args.src) + os.sep):
        sys.exit(f"fracground was imported from {fracground.__file__}, not from {args.src}")

    tasks = workloads.build_tasks(args.workload, args.seed, args.seconds)
    reference = workloads.load_reference()
    prepared = [workloads.prepare(args.workload, t, fracground) for t in tasks]
    # CLOCK_MONOTONIC is system-wide, so the parent's spawn reading is comparable
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at

    import numpy
    import scipy

    versions = {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}
    result = {"setup_s": setup_s, "import_ms": import_ms, "versions": versions}
    if not args.setup_only:
        out_dir = os.path.dirname(os.path.abspath(args.result))
        if args.trace:
            # per-layer numbers come from the first half of the list, run untraced then traced
            half = max(1, len(tasks) // 2)
            tasks, prepared = tasks[:half], prepared[:half]
        tracing.assert_untraced()
        untraced = run_pass(args.workload, tasks, prepared, fracground, reference, out_dir)
        tracing.assert_untraced()
        result.update(tasks=tasks, untraced=untraced)
        if args.trace:
            result["traced"], result["layers"] = traced_pass(
                args.workload, tasks, prepared, fracground, reference, out_dir, args.result
            )
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def run_pass(workload, tasks, prepared, fg, reference, out_dir, tracer=None):
    """Run every task once; a task that raises counts as failed and the run goes on."""
    rows = []
    for task, prep in zip(tasks, prepared):
        span = tracer.span("task") if tracer else contextlib.nullcontext()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                with span:
                    row = workloads.run_task(workload, task, prep, fg, reference, out_dir)
            except Exception:
                traceback.print_exc()
                row = dict(seconds=None, ok=False, iterations=None, result=None, bytes_written=0)
        row["tail_warnings"] = sum(issubclass(w.category, fg.errors.SpectralTailWarning) for w in caught)
        rows.append(row)
    return rows


def traced_pass(workload, tasks, prepared, fg, reference, out_dir, result_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rows = run_pass(workload, tasks, prepared, fg, reference, out_dir, tracer)
    finally:
        tracer.uninstall()
    tracing.assert_untraced()
    solver_iterations = sum(r["iterations"] or 0 for r in rows) if workload == "solve" else 0
    layers = tracing.layer_metrics(tracer, len(rows), solver_iterations)
    layers["cli.bytes_written"] = sum(r["bytes_written"] for r in rows) / len(rows)
    layers["operators.tail_warnings"] = sum(r["tail_warnings"] for r in rows) / len(rows)
    write_spans(tracer, os.path.splitext(result_path)[0] + "-spans.npz")
    return rows, layers


def write_spans(tracer, path):
    import numpy as np

    np.savez_compressed(
        path,
        names=np.array(tracer.names),
        name=np.array(tracer.name_of, dtype=np.int32),
        parent=np.array(tracer.parent, dtype=np.int64),
        start=np.array(tracer.start),
        end=np.array(tracer.end),
        fft=np.array(tracer.fft, dtype=np.int64).reshape(-1, 4),
    )


if __name__ == "__main__":
    main()
