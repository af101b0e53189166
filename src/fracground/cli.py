"""Batch command-line front end.

Subcommands: solve, compare, fiber-scan, validate-ops, validate-hypotheses.
Every run writes a manifest echoing the fully resolved configuration (all
defaults included) plus the seed, then its own artifacts into the output
directory.  Outputs carry no timestamps and all floats are written in
shortest round-trip form, so identical configuration and seed produce
byte-identical files.

Exit codes: 0 converged/completed, 1 not converged (or a failed check row),
2 invalid input.
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
from .config import DEFAULTS, ConfigError, build_sample_box, build_solve_config, build_spec, load_config
from .errors import DivergedError, FracgroundError
from .grid import field_to_csv, make_grid
from .nonlinearity import validate_hypotheses
from .operators import validate_order
from .solver import SolveReport, compare_levels, solve_ground_state
from .variational import fiber_map

SCHEMA_VERSION = 1

_CONFIG_HELP = "\n".join(
    f"  {key} (default {default!r})" for key, (default, _) in DEFAULTS.items()
)

_EPILOG = f"""configuration keys (file lines or --set key=value):
{_CONFIG_HELP}

output files per subcommand (all under --output-dir, plus manifest.json):
  solve                report.json, field.csv (columns t,u), residuals.csv (columns iteration,residual)
  compare              compare.json (c, c_bar, gap, strict, one-shot bound)
  fiber-scan           fiber.csv (columns sigma,psi)
  validate-ops         ops_residuals.csv (columns check,alpha,residual,tolerance,passed)
  validate-hypotheses  hypotheses.json (per-hypothesis pass/fail, margins, witnesses)
"""


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_dir: str, subcommand: str, values: dict) -> None:
    manifest = {
        "schema": SCHEMA_VERSION,
        "tool": "fracground",
        "version": __version__,
        "subcommand": subcommand,
        "config": {k: values[k] for k in sorted(values)},
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


def _write_solve_artifacts(report: SolveReport, out_dir: str) -> None:
    payload = {
        "schema": SCHEMA_VERSION,
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
        "vanishing_profile": report.vanishing_profile,
    }
    _write_json(os.path.join(out_dir, "report.json"), payload)
    field_to_csv(report.field, os.path.join(out_dir, "field.csv"))
    with open(os.path.join(out_dir, "residuals.csv"), "w", encoding="utf-8") as fh:
        fh.write("iteration,residual\n")
        for i, res in enumerate(report.residual_history):
            fh.write(f"{i},{res!r}\n")


def _cmd_solve(values: dict, out_dir: str) -> int:
    config = build_solve_config(values)
    try:
        report = solve_ground_state(config)
    except DivergedError as exc:
        # the run stopped at the energy-resolution floor: keep what it reached
        _write_solve_artifacts(exc.report, out_dir)
        raise
    _write_solve_artifacts(report, out_dir)
    print(
        f"level={report.level:.12g} residual={report.residual_history[-1]:.3e} "
        f"iterations={report.iterations} converged={report.converged}"
    )
    return 0 if report.converged else 1


def _cmd_compare(values: dict, out_dir: str) -> int:
    config = build_solve_config(values)
    result = compare_levels(config)
    payload = {
        "schema": SCHEMA_VERSION,
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
    return 0 if (result.perturbed.converged and result.autonomous.converged) else 1


def _cmd_fiber_scan(values: dict, out_dir: str) -> int:
    config = build_solve_config(values)
    lo, hi, count = values["fiber.sigma_min"], values["fiber.sigma_max"], values["fiber.count"]
    if not (0 < lo < hi) or count < 2:
        raise ConfigError("fiber.*: need 0 < fiber.sigma_min < fiber.sigma_max and fiber.count >= 2")
    sigmas = np.geomspace(lo, hi, count)
    seed_field = config.init.build(config.grid())
    scan = fiber_map(seed_field, config.nonlinearity(), config.alpha, sigmas)
    with open(os.path.join(out_dir, "fiber.csv"), "w", encoding="utf-8") as fh:
        fh.write("sigma,psi\n")
        for s, v in zip(scan.sigmas, scan.values):
            fh.write(f"{float(s)!r},{float(v)!r}\n")
    print(
        f"fiber scan: {count} samples on [{lo:g}, {hi:g}], "
        f"slope sign changes={scan.derivative_sign_changes}"
    )
    return 0


def _cmd_validate_ops(values: dict, out_dir: str) -> int:
    alpha = values["alpha"]
    try:
        validate_order(alpha)
    except ValueError as exc:
        raise ConfigError(f"alpha: {exc}") from exc
    grid = make_grid(values["L"], values["N"])
    rows = conformance_checks(grid, alpha, seed=values["seed"])
    with open(os.path.join(out_dir, "ops_residuals.csv"), "w", encoding="utf-8") as fh:
        fh.write("check,alpha,residual,tolerance,passed\n")
        for row in rows:
            fh.write(f"{row.name},{row.alpha!r},{row.residual!r},{row.tolerance!r},{row.passed}\n")
    n_failed = sum(not row.passed for row in rows)
    print(f"validate-ops: {len(rows)} checks, {n_failed} failed")
    return 0 if n_failed == 0 else 1


def _cmd_validate_hypotheses(values: dict, out_dir: str) -> int:
    spec = build_spec(values)
    box = build_sample_box(values)
    report = validate_hypotheses(spec, box)
    payload = {
        "schema": SCHEMA_VERSION,
        "all_passed": report.all_passed,
        "c_epsilon": report.c_epsilon,
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
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name, help=f"run the {name} workflow")
        cmd.add_argument("--config", default=None, help="path to a key = value config file")
        cmd.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )
        cmd.add_argument("--output-dir", default="out", help="directory for run artifacts")
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
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FracgroundError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
