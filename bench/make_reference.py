"""Regenerate reference.json, the level table the correctness checks use.

Each (alpha, autonomous) cell of the solve and mountain_pass workloads is
solved once from the default centred start at a residual tolerance a
thousand times tighter than the workloads use.  The alpha = 1 autonomous
entry is the exact soliton level 4/3; the solve must reproduce it.

Run from the root of a checkout:  PYTHONPATH=src python3 bench/make_reference.py
"""

import json
import os

from fracground.solver import SolveConfig, solve_ground_state

import workloads

RESIDUAL_TOL = 5e-8
EXACT = {workloads.level_key(1.0, True): 4.0 / 3.0}


def main() -> None:
    levels = {}
    cells = {
        (c["alpha"], c["autonomous"]) for w in ("solve", "mountain_pass") for c in workloads.WORKLOADS[w][0]
    }
    for alpha, autonomous in sorted(cells):
        report = solve_ground_state(SolveConfig(
            half_width=workloads.SOLVE_L, n_points=workloads.SOLVE_N, alpha=alpha,
            autonomous=autonomous, residual_tol=RESIDUAL_TOL,
        ))
        if not report.converged:
            raise SystemExit(f"alpha={alpha} autonomous={autonomous} did not converge")
        key = workloads.level_key(alpha, autonomous)
        if key in EXACT:
            if abs(report.level - EXACT[key]) > 1e-9 * EXACT[key]:
                raise SystemExit(f"{key}: level {report.level!r} is not the exact {EXACT[key]!r}")
            levels[key] = EXACT[key]
        else:
            levels[key] = report.level
        print(key, repr(report.level), report.iterations)
    table = {"L": workloads.SOLVE_L, "N": workloads.SOLVE_N, "residual_tol": RESIDUAL_TOL,
             "exact": sorted(EXACT), "levels": levels}
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json"), "w",
              encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
