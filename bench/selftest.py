"""Tests of the benchmark itself.

Run from the root of a checkout:  python3 -m pytest -q bench/selftest.py

The file name keeps these tests out of the package's own test run; the last
two tests start the benchmark and take about two minutes together.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import fracground  # noqa: E402
import fracground.grid  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

#: per-layer counts that must be zero on a workload because it bypasses that layer
PREDICTED_ZERO = {
    "solve": ["operators.gl_weights.calls", "solver.mountain_pass.energy_calls"],
    "mountain_pass": ["variational.nehari_project.calls", "operators.gl_weights.calls", "solver.iterations"],
    "gl_cross": ["variational.nehari_project.calls", "nonlinearity.eval_f.calls", "variational.energy.calls"],
}
PREDICTED_NONZERO = {
    "solve": ["variational.nehari_project.calls", "nonlinearity.eval_f.calls", "solver.fft_per_iter",
              "cli.bytes_written"],
    "mountain_pass": ["solver.mountain_pass.energy_calls", "variational.energy.calls", "grid.fft.calls"],
    "gl_cross": ["operators.gl_weights.calls", "operators.fftconvolve.calls", "grid.fft.max_array_mb"],
}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_task_list_is_a_function_of_the_seed(workload):
    tasks = workloads.build_tasks(workload, 5, 25)
    assert tasks == workloads.build_tasks(workload, 5, 25)
    assert tasks != workloads.build_tasks(workload, 6, 25)


@pytest.mark.parametrize("workload", ["solve", "mountain_pass"])
def test_every_cell_gets_the_same_number_of_tasks(workload):
    tasks = workloads.build_tasks(workload, 9, 25)
    counts = {}
    for t in tasks:
        key = (t["alpha"], t["autonomous"])
        counts[key] = counts.get(key, 0) + 1
    assert set(counts) == {(c["alpha"], c["autonomous"]) for c in workloads.WORKLOADS[workload][0]}
    assert len(set(counts.values())) == 1


def test_reference_holds_the_exact_soliton_level():
    reference = workloads.load_reference()
    assert workloads.reference_level(reference, 1.0, True) == 4.0 / 3.0
    for cell in workloads.WORKLOADS["solve"][0] + workloads.WORKLOADS["mountain_pass"][0]:
        assert workloads.reference_level(reference, cell["alpha"], cell["autonomous"]) > 0.0


def test_tracer_rejects_a_missing_binding(monkeypatch):
    monkeypatch.delattr(fracground.solver, "nehari_project")
    with pytest.raises(tracing.TraceError, match="nehari_project"):
        tracing.Tracer().install()
    tracing.assert_untraced()


def test_tracer_rejects_an_unlisted_consumer(monkeypatch):
    monkeypatch.setattr(fracground.grid, "energy", fracground.variational.energy, raising=False)
    with pytest.raises(tracing.TraceError, match="fracground.grid.energy"):
        tracing.Tracer().install()
    tracing.assert_untraced()


def test_untraced_check_sees_an_installed_wrapper():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with pytest.raises(tracing.TraceError):
            tracing.assert_untraced()
        u = fracground.grid.gaussian_field(fracground.grid.make_grid(8.0, 64))
        fracground.variational.energy(u, fracground.NonlinearitySpec(), 0.75)
    finally:
        tracer.uninstall()
    tracing.assert_untraced()
    names = {tracer.names[i] for i in tracer.name_of}
    assert {"variational.energy", "operators.h_alpha_norm_sq", "nonlinearity.eval_F"} <= names


def _run(workload, trace, cwd=ROOT, seconds=1):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_untraced_run_prints_the_end_to_end_metrics():
    result = _result(_run("solve", 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_shows_the_predicted_layers(workload):
    result = _result(_run(workload, 1))
    assert result["correct"]
    metrics = {m: v["value"] for m, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert all(metrics[m] == 0 for m in PREDICTED_ZERO[workload]), metrics
    assert all(metrics[m] > 0 for m in PREDICTED_NONZERO[workload]), metrics
    assert metrics["trace.overhead_ratio"] > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("solve", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
