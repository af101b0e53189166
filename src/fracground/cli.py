"""Batch command-line front end.

Subcommands: solve, compare, fiber-scan, validate-ops, validate-hypotheses.
Every run writes a manifest echoing the fully resolved configuration (all
defaults included), then its own artifacts into the output directory.
Outputs carry no timestamps and all floats are written in shortest
round-trip form, so identical configurations produce byte-identical files.

Exit codes, mapped in ``run`` alone: 0 completed; 1 a solve that did not
converge (it still writes its artifacts and prints its status, ``max_iters``
or ``step_underflow``), a failed check row or a package error
(``FracgroundError``, e.g. ``NoPositivePartError``); 2 any invalid input
(``ValueError`` or ``OSError``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from .checks import conformance_checks
from .config import DEFAULTS, build_solve_config, build_spec, load_config
from .errors import FracgroundError
from .grid import field_to_csv, make_grid
from .nonlinearity import validate_hypotheses
from .solver import compare_levels, solve_ground_state
from .variational import fiber_map

SCHEMA_VERSION = 2

_CONFIG_HELP = "\n".join(
    f"  {key} (default {default!r})" for key, (default, _) in DEFAULTS.items()
)

_EPILOG = f"""configuration keys (file lines or --set key=value):
{_CONFIG_HELP}
  a non-empty init.path starts from that field.csv instead of the init.* Gaussian

output files per subcommand (all under --output-dir, plus manifest.json):
  solve                report.json, field.csv (columns t,u), residuals.csv (columns iteration,residual)
  compare              compare.json (c, c_bar, gap, strict, one-shot bound)
  fiber-scan           fiber.csv (columns sigma,psi)
  validate-ops         ops_residuals.csv (columns check,alpha,residual,tolerance,passed)
  validate-hypotheses  hypotheses.json (per-hypothesis pass/fail, margins, witnesses)

exit codes:
  0  converged / completed
  1  not converged (status=max_iters or status=step_underflow; compare prints one
     "<perturbed|autonomous> solve: residual=... status=..." line per such solve),
     a failed check row, or a package error (NoPositivePartError, ...)
  2  invalid input: a bad key, value, file or path (one "error:" line on stderr)
"""


def _write_json(path: str, payload: dict) -> None:
    """Write payload, stamped with the schema version, as sorted, indented JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema": SCHEMA_VERSION, **payload}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, header: str, rows) -> None:
    """Write a header line and one comma-joined line of ``str`` cells per row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def _write_manifest(out_dir: str, subcommand: str, values: dict) -> None:
    manifest = {
        "tool": "fracground",
        "version": __version__,
        "subcommand": subcommand,
        "config": values,
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


def _cmd_solve(values: dict, out_dir: str) -> int:
    report = solve_ground_state(build_solve_config(values))
    payload = {
        "level": report.level,
        "iterations": report.iterations,
        "converged": report.converged,
        "final_residual": report.residual_history[-1],
        "nehari_residual": report.nehari_residual,
        "sigma_history": report.sigma_history,
        "energy_history": report.energy_history,
        "residual_history": report.residual_history,
        "max_mass": report.max_mass,
        "argmax_y": report.argmax_y,
        "recentred_shift": report.recentred_shift,
    }
    _write_json(os.path.join(out_dir, "report.json"), payload)
    field_to_csv(report.field, os.path.join(out_dir, "field.csv"))
    residuals = enumerate(report.residual_history)
    _write_csv(os.path.join(out_dir, "residuals.csv"), "iteration,residual", residuals)
    print(
        f"level={report.level:.12g} residual={report.residual_history[-1]:.3e} "
        f"iterations={report.iterations} status={report.status}"
    )
    return 0 if report.converged else 1


def _cmd_compare(values: dict, out_dir: str) -> int:
    config = build_solve_config(values)
    result = compare_levels(config)
    payload = {
        "c": result.c,
        "c_bar": result.c_bar,
        "gap": result.gap,
        "strict": result.strict,
        "one_shot_level": result.one_shot_level,
        "one_shot_strict": result.one_shot_strict,
        "perturbed_converged": result.perturbed.converged,
        "autonomous_converged": result.autonomous.converged,
    }
    _write_json(os.path.join(out_dir, "compare.json"), payload)
    print(
        f"c={result.c:.12g} c_bar={result.c_bar:.12g} gap={result.gap:.6g} "
        f"strict={result.strict}"
    )
    for name, report in (("perturbed", result.perturbed), ("autonomous", result.autonomous)):
        if not report.converged:
            print(f"{name} solve: residual={report.residual_history[-1]:.3e} status={report.status}")
    return 0 if (result.perturbed.converged and result.autonomous.converged) else 1


def _cmd_fiber_scan(values: dict, out_dir: str) -> int:
    config = build_solve_config(values)
    sigmas = np.geomspace(0.01, 10.0, 200)
    seed_field = config.init.build(config.grid())
    scan = fiber_map(seed_field, config.nonlinearity(), config.alpha, sigmas)
    samples = zip(scan.sigmas.tolist(), scan.values.tolist())
    _write_csv(os.path.join(out_dir, "fiber.csv"), "sigma,psi", samples)
    print(
        f"fiber scan: {len(sigmas)} samples on [{sigmas[0]:g}, {sigmas[-1]:g}], "
        f"slope sign changes={scan.derivative_sign_changes}"
    )
    return 0


def _cmd_validate_ops(values: dict, out_dir: str) -> int:
    grid = make_grid(values["L"], values["N"])
    rows = conformance_checks(grid, values["alpha"])
    cells = [(row.name, row.alpha, row.residual, row.tolerance, row.passed) for row in rows]
    _write_csv(os.path.join(out_dir, "ops_residuals.csv"), "check,alpha,residual,tolerance,passed", cells)
    n_failed = sum(not row.passed for row in rows)
    print(f"validate-ops: {len(rows)} checks, {n_failed} failed")
    return 0 if n_failed == 0 else 1


def _cmd_validate_hypotheses(values: dict, out_dir: str) -> int:
    spec = build_spec(values)
    report = validate_hypotheses(spec)
    payload = {
        "all_passed": report.all_passed,
        # no finite constant (p0 <= p) is null, as strict JSON has no Infinity
        "c_epsilon": report.c_epsilon if np.isfinite(report.c_epsilon) else None,
        "epsilon": report.epsilon,
        "checks": [dataclasses.asdict(check) for check in report.checks],
    }
    _write_json(os.path.join(out_dir, "hypotheses.json"), payload)
    print(f"validate-hypotheses: all_passed={report.all_passed} C_eps={report.c_epsilon:.6g}")
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "compare": _cmd_compare,
    "fiber-scan": _cmd_fiber_scan,
    "validate-ops": _cmd_validate_ops,
    "validate-hypotheses": _cmd_validate_hypotheses,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracground",
        description="Fractional-operator library and ground-state solver (batch front end).",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("subcommand", choices=list(_COMMANDS), help="the workflow to run")
    parser.add_argument("--config", default=None, help="path to a key = value config file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )
    parser.add_argument("--output-dir", default="out", help="directory for run artifacts")
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        values = load_config(args.config, args.overrides)
        out_dir = args.output_dir
        os.makedirs(out_dir, exist_ok=True)
        _write_manifest(out_dir, args.subcommand, values)
        return _COMMANDS[args.subcommand](values, out_dir)
    except FracgroundError as exc:
        # first: some package errors are also ValueErrors
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
