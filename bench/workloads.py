"""Seeded task lists for the three workloads, one task's execution and its check.

Every workload is a closed loop with one client: its tasks run one after
another in a single thread of one process.  The task list depends only on
the workload, the seed and the run length.  Each categorical input (alpha,
autonomy) fills its cells equally, and each continuous input is drawn once
from each of k equal slices of its range (stratified sampling).  Different
seeds therefore give different inputs with the same mix, which keeps the
run-to-run spread of the timings small without fixing the inputs.

Functions that touch the program take the ``fracground`` package as an
argument and look every entry point up on its submodules at call time, so
they call the wrappers the tracer installs.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import tempfile
import time

#: grid of the solve and mountain_pass workloads
SOLVE_L, SOLVE_N = 64.0, 4096

#: grid of gl_cross; the oracle runs at N and 2N
GL_L, GL_N = 2048.0, 2 ** 20

#: fixed deformation sweep count and node count of the mountain_pass workload
MP_SWEEPS, MP_NODES = 25, 33

_INIT = dict(width=(1.0, 3.0), amplitude=(0.5, 2.0))


def _solve_cells() -> list[dict]:
    cells = []
    for alpha in (0.6, 0.75, 0.9, 1.0):
        cells += [dict(alpha=alpha, autonomous=True, offset=(0.0, 1.5), **_INIT)] * 2
        # a centred start converges in tens of iterations; any offset from the
        # perturbation's bump adds a slow translation phase of hundreds
        cells.append(dict(alpha=alpha, autonomous=False, offset=(0.0, 0.0), **_INIT))
        cells.append(dict(alpha=alpha, autonomous=False, offset=(0.25, 1.5), **_INIT))
    return cells


#: workload -> (cells, seed-code seconds for one task of each cell).  A cell
#: fixes the categorical inputs and the range of each continuous one; every
#: cell gets the same number of tasks.  The nominal time only sizes the task
#: list from --seconds; it is never measured.
WORKLOADS = {
    "solve": (_solve_cells(), 10.5),
    "mountain_pass": (
        [dict(alpha=a, autonomous=aut, **_INIT) for a in (0.6, 0.75, 0.9) for aut in (True, False)],
        21.6,
    ),
    # widths and centres keep gap(N)/gap(2N) in its first-order band and the
    # support well inside the oracle's L/4 margin
    "gl_cross": ([dict(alpha=(0.6, 0.95), center=(-512.0, 512.0), width=(0.25, 1.0))], 5.3),
}

#: correctness bands
LEVEL_RTOL = 1e-6  # solve: |level - reference| <= LEVEL_RTOL * reference
MP_BELOW_ABS = 1e-6  # mountain_pass: path max >= reference - MP_BELOW_ABS
MP_ABOVE_REL = 1.02  # mountain_pass: path max <= MP_ABOVE_REL * reference
GL_RATIO_BAND = (1.6, 2.4)  # gl_cross: gap(N) / gap(2N)

_HERE = os.path.dirname(os.path.abspath(__file__))


def load_reference() -> dict:
    with open(os.path.join(_HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def reference_level(reference: dict, alpha: float, autonomous: bool) -> float:
    return reference["levels"][level_key(alpha, autonomous)]


def level_key(alpha: float, autonomous: bool) -> str:
    return f"alpha={alpha}/{'autonomous' if autonomous else 'perturbed'}"


def _strata(rng: random.Random, k: int, lo: float, hi: float) -> list[float]:
    """k draws, one from each of k equal slices of [lo, hi), in random order."""
    draws = [round(lo + (hi - lo) * (i + rng.random()) / k, 6) for i in range(k)]
    rng.shuffle(draws)
    return draws


def n_tasks(workload: str, seconds: float) -> int:
    cells, round_s = WORKLOADS[workload]
    return max(1, round(seconds / round_s)) * len(cells)


def build_tasks(workload: str, seed: int, seconds: float) -> list[dict]:
    """The workload's task list as plain JSON-able parameter dicts."""
    cells, _ = WORKLOADS[workload]
    k = n_tasks(workload, seconds) // len(cells)
    rng = random.Random(f"{workload}/{seed}")
    tasks = []
    for cell in cells:
        draws = {key: _strata(rng, k, *v) if isinstance(v, tuple) else [v] * k for key, v in cell.items()}
        for i in range(k):
            task = {key: values[i] for key, values in draws.items()}
            if "offset" in task:
                offset = task.pop("offset")
                task["center"] = -offset if offset and rng.random() < 0.5 else offset
            tasks.append(task)
    rng.shuffle(tasks)
    return tasks


def prepare(workload: str, task: dict, fg) -> object:
    """Build the program inputs of one task that are cheap to hold: argv or SolveConfig."""
    if workload == "solve":
        sets = {
            "L": SOLVE_L,
            "N": SOLVE_N,
            "alpha": task["alpha"],
            "autonomous": "true" if task["autonomous"] else "false",
            "init.center": task["center"],
            "init.width": task["width"],
            "init.amplitude": task["amplitude"],
        }
        argv = ["solve"]
        for key, value in sets.items():
            argv += ["--set", f"{key}={value}"]
        return argv
    if workload == "mountain_pass":
        return fg.solver.SolveConfig(
            half_width=SOLVE_L,
            n_points=SOLVE_N,
            alpha=task["alpha"],
            autonomous=task["autonomous"],
            init=fg.solver.InitSpec(width=task["width"], amplitude=task["amplitude"]),
        )
    return None


def _gaussian(task: dict, n: int):
    import numpy as np

    h = 2.0 * GL_L / n
    nodes = -GL_L + h * np.arange(n)
    return np.exp(-((nodes - task["center"]) ** 2) / (2.0 * task["width"] ** 2))


def run_task(workload: str, task: dict, prepared, fg, reference: dict, scratch_dir: str) -> dict:
    """Run one task; return its timed seconds, pass/fail, result and counts.

    Only calls into the program are timed.  Input arrays, result checks and
    removal of the CLI's output directory happen outside the timed region.
    """
    if workload == "solve":
        out_dir = tempfile.mkdtemp(prefix="solve-", dir=scratch_dir)
        try:
            t0 = time.perf_counter()
            code = fg.cli.run(prepared + ["--output-dir", out_dir])
            seconds = time.perf_counter() - t0
            with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
                report = json.load(fh)
            written = sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))
        finally:
            shutil.rmtree(out_dir)
        ref = reference_level(reference, task["alpha"], task["autonomous"])
        ok = (
            code == 0
            and report["converged"]
            and abs(report["level"] - ref) <= LEVEL_RTOL * ref
        )
        return dict(seconds=seconds, ok=ok, iterations=report["iterations"],
                    result=report["level"], bytes_written=written)

    if workload == "mountain_pass":
        t0 = time.perf_counter()
        report = fg.solver.mountain_pass_path(prepared, n_nodes=MP_NODES, n_deform=MP_SWEEPS)
        seconds = time.perf_counter() - t0
        ref = reference_level(reference, task["alpha"], task["autonomous"])
        top = report.path_max_energy
        ok = ref - MP_BELOW_ABS <= top <= MP_ABOVE_REL * ref
        return dict(seconds=seconds, ok=ok, iterations=report.sweeps, result=top, bytes_written=0)

    import numpy as np

    seconds = 0.0
    gaps = []
    for n in (GL_N, 2 * GL_N):
        values = _gaussian(task, n)
        t0 = time.perf_counter()
        grid = fg.grid.make_grid(GL_L, n)
        u = fg.grid.SpectralField.from_values(grid, values)
        oracle = fg.operators.gl_oracle(u, task["alpha"], "left")
        spectral = fg.operators.fractional_derivative(u, task["alpha"], "left")
        seconds += time.perf_counter() - t0
        gaps.append(float(np.sqrt(grid.spacing * np.sum((oracle.values - spectral.values) ** 2))))
        del values, u, oracle, spectral
    ratio = gaps[0] / gaps[1]
    ok = GL_RATIO_BAND[0] <= ratio <= GL_RATIO_BAND[1]
    return dict(seconds=seconds, ok=ok, iterations=None, result=ratio, bytes_written=0)
