import dataclasses
import json
import os
import re
import subprocess
import sys

import pytest

from fracground.cli import run
from fracground.config import _KEYS, DEFAULTS, build_solve_config, build_spec, load_config
from fracground.nonlinearity import NonlinearitySpec, Perturbation
from fracground.grid import field_from_csv
from fracground.solver import WINDOW_RADIUS, InitSpec, SolveConfig, vanishing_diagnostic

FAST = [
    "--set", "N=1024",
    "--set", "L=32",
    "--set", "residual_tol=1e-6",
    "--set", "max_iters=500",
]

#: a tolerance below the energy-resolution floor, reached at residual 4.2e-9
FLOOR = ["--set", "N=1024", "--set", "L=32", "--set", "residual_tol=1e-12"]


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestSolveCommand:
    def test_happy_path_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run(["solve", "--output-dir", str(out), *FAST])
        assert code == 0
        for name in ("manifest.json", "report.json", "field.csv", "residuals.csv"):
            assert (out / name).exists(), name
        summary = capsys.readouterr().out
        assert "level=" in summary and "iterations=" in summary
        report = json.loads((out / "report.json").read_text())
        assert report["schema"] == 3
        assert report["converged"] is True

    def test_report_mass_matches_field_csv(self, tmp_path):
        # the report keeps no per-node profile: field.csv and the solver's window restore it
        out = tmp_path / "run"
        assert run(["solve", "--output-dir", str(out), *FAST]) == 0
        report = json.loads((out / "report.json").read_text())
        assert "vanishing_profile" not in report
        diag = vanishing_diagnostic(field_from_csv(str(out / "field.csv")), WINDOW_RADIUS)
        assert report["max_mass"] == diag.max_mass
        assert report["argmax_y"] == diag.argmax_y

    def test_alpha_out_of_range_exits_2(self, tmp_path, capsys):
        code = run(["solve", "--output-dir", str(tmp_path / "x"), "--set", "alpha=0.4"])
        assert code == 2
        err = capsys.readouterr().err
        assert "(1/2, 1)" in err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        # recentre is no key: with a = 0 translation is an exact symmetry, so no start is moved;
        # init.kind is no key: a non-empty init.path alone names the start;
        # tau is no key: every descent step starts at the full Petviashvili step;
        # the mass window, the operator-check seed and the fiber-scan span (around the
        # start's fiber root) are constants; the hypotheses are checked in closed form,
        # so no hyp.* key exists
        for item in (
            "alpa=0.7", "recentre=true", "init.kind=custom", "tau=1", "window_radius=0.001", "seed=1",
            "fiber.sigma_min=0.01", "fiber.sigma_max=10", "fiber.count=50",
            "hyp.t_max=8", "hyp.xi_max=1e4", "hyp.n_samples=48",
        ):
            code = run(["solve", "--output-dir", str(tmp_path / "x"), "--set", item])
            assert code == 2
            assert item.split("=")[0] in assert_one_error_line(capsys)

    def test_restart_from_field_csv(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run(["solve", "--output-dir", str(first), *FAST]) == 0
        restart = ["--set", f"init.path={first / 'field.csv'}"]
        assert run(["solve", "--output-dir", str(second), *FAST, *restart]) == 0
        report = json.loads((first / "report.json").read_text())
        again = json.loads((second / "report.json").read_text())
        # the restart reads the converged field back exactly and stops at once
        assert again["converged"] is True and again["iterations"] == 0
        assert abs(again["level"] - report["level"]) <= 1e-12 * report["level"]

    def test_not_converged_exits_1(self, tmp_path):
        code = run(["solve", "--output-dir", str(tmp_path / "x"), *FAST, "--set", "max_iters=2"])
        assert code == 1

    def test_budget_of_exactly_the_needed_iterations_exits_0(self, tmp_path, capsys):
        # the stop test reads the last iterate too: a budget of k steps ends where the
        # uncapped run does, with the same histories, and k - 1 steps leave k residuals
        assert run(["solve", "--output-dir", str(tmp_path / "full")]) == 0
        k = json.loads((tmp_path / "full" / "report.json").read_text())["iterations"]
        assert run(["solve", "--output-dir", str(tmp_path / "exact"), "--set", f"max_iters={k}"]) == 0
        for name in ("report.json", "field.csv", "residuals.csv"):
            assert read(tmp_path / "full" / name) == read(tmp_path / "exact" / name)
        assert "status=converged" in capsys.readouterr().out
        assert run(["solve", "--output-dir", str(tmp_path / "short"), "--set", f"max_iters={k - 1}"]) == 1
        short = json.loads((tmp_path / "short" / "report.json").read_text())
        assert short["converged"] is False and short["iterations"] == k - 1
        assert len(short["residual_history"]) == k
        assert "status=max_iters" in capsys.readouterr().out

    def test_diverged_exits_1(self, tmp_path, capsys):
        # a tolerance far below the energy-resolution floor ends in step_underflow:
        # a normal end that writes its artifacts and prints its status, not an error
        out = tmp_path / "x"
        code = run(["solve", "--output-dir", str(out), *FLOOR])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        for name in ("report.json", "field.csv", "residuals.csv"):
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is False
        assert "status=step_underflow" in captured.out
        assert f"residual={report['final_residual']:.3e}" in captured.out

    def test_config_file_and_override_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\nalpha = 0.8\nN = 1024\nL = 32\nresidual_tol = 1e-6\n")
        out = tmp_path / "out"
        code = run(
            ["solve", "--config", str(cfg), "--output-dir", str(out), "--set", "alpha=0.9"]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["alpha"] == 0.9
        assert manifest["config"]["N"] == 1024

    def test_manifest_echoes_every_default(self, tmp_path):
        out = tmp_path / "out"
        run(["solve", "--output-dir", str(out), *FAST])
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["config"]) == set(DEFAULTS)
        assert manifest["subcommand"] == "solve"

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run(["solve", "--output-dir", str(out), *FAST]) == 0
        for name in ("manifest.json", "report.json", "field.csv", "residuals.csv"):
            assert read(out1 / name) == read(out2 / name), name


BAD_CSV = "t,u\n-1.0,0.5\n0.0,oops\n"


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "Traceback" not in err
    return err


#: a value other than the default for every key
NON_DEFAULT = {
    "L": "32", "N": "2048", "alpha": "0.6", "autonomous": "true", "p": "2.5", "theta": "3.5",
    "p0": "3", "a.kind": "rational", "a.amplitude": "2", "a.width": "3",
    "init.center": "1.5", "init.width": "3", "init.amplitude": "2", "init.path": "field.csv",
    "max_iters": "50", "residual_tol": "1e-6",
}


class TestKeyTable:
    def test_defaults_build_the_default_dataclasses(self):
        values = load_config(None, [])
        assert build_solve_config(values) == SolveConfig()
        assert build_spec(values) == NonlinearitySpec()

    @pytest.mark.parametrize("raw", ["false", "0", "no", "off", " OFF "])
    def test_false_spellings(self, raw):
        assert load_config(None, ["autonomous=true", f"autonomous={raw}"])["autonomous"] is False

    def test_every_key_lands_on_its_field(self):
        assert NON_DEFAULT.keys() == DEFAULTS.keys()
        for key, raw in NON_DEFAULT.items():
            owner, name, convert = _KEYS[key]
            value = convert(raw)
            assert value != DEFAULTS[key][0], key
            # the default of every owner, with this one field replaced
            parts = {cls: cls() for cls in (SolveConfig, NonlinearitySpec, Perturbation, InitSpec)}
            parts[owner] = dataclasses.replace(parts[owner], **{name: value})
            spec = dataclasses.replace(parts[NonlinearitySpec], perturbation=parts[Perturbation])
            expected = dataclasses.replace(parts[SolveConfig], spec=spec, init=parts[InitSpec])
            values = load_config(None, [f"{key}={raw}"])
            assert build_solve_config(values) == expected, key
            assert build_spec(values) == spec, key


class TestInvalidInput:
    """Every invalid input exits 2 with one ``error:`` line, whichever layer rejects it."""

    @pytest.mark.parametrize(
        "cmd, items",
        [
            ("solve", ["N=15"]),
            ("solve", ["L=-1"]),
            ("solve", ["init.path={missing}"]),
            ("solve", ["init.width=0"]),
            ("solve", ["init.center=inf"]),
            ("solve", ["init.path={csv}"]),
            ("validate-ops", ["N=15"]),
            ("solve", ["init.center=1e308"]),
            ("solve", ["a.kind=zero"]),
            ("solve", ["init.width=1e300"]),
            ("solve", ["init.width=1e-300"]),
        ],
    )
    def test_rejected_in_the_library_exits_2(self, tmp_path, capsys, cmd, items):
        csv = tmp_path / "bad.csv"
        csv.write_text(BAD_CSV)
        missing = tmp_path / "missing.csv"
        sets = [arg for item in items for arg in ("--set", item.format(csv=csv, missing=missing))]
        assert run([cmd, "--output-dir", str(tmp_path / "x"), *sets]) == 2
        err = assert_one_error_line(capsys)
        if "init.path={csv}" in items:
            # the malformed row is named by file and line
            assert f"{csv}:3:" in err

    @pytest.mark.parametrize(
        "cmd, item",
        [
            ("solve", "residual_tol=nan"),
            ("solve", "p=nan"),
            ("solve", "a.width=nan"),
            ("solve", "a.amplitude=inf"),
            ("validate-hypotheses", "theta=nan"),
            ("solve", "init.width=inf"),
            ("solve", "init.width=nan"),
        ],
    )
    def test_non_finite_parameter_exits_2(self, tmp_path, capsys, cmd, item):
        assert run([cmd, "--output-dir", str(tmp_path / "x"), "--set", item]) == 2
        assert item.split("=")[1] in assert_one_error_line(capsys)

    def test_package_error_still_exits_1(self, tmp_path, capsys):
        code = run(["solve", "--output-dir", str(tmp_path / "x"), "--set", "init.amplitude=-1"])
        assert code == 1
        assert "NoPositivePartError" in assert_one_error_line(capsys)

    @pytest.mark.parametrize("cmd", ["solve", "compare"])
    def test_flushed_potential_exits_1(self, tmp_path, capsys, cmd):
        # at p = 1e20 the potential of u / max(u) flushes to 0 and no fiber scale exists
        assert run([cmd, "--output-dir", str(tmp_path / "x"), "--set", "p=1e20"]) == 1
        assert "NoPositivePartError" in assert_one_error_line(capsys)

    def test_flushed_fiber_scan_exits_1(self, tmp_path, capsys):
        # at p = 1e20 every power of the seed flushes to 0: no fiber maximizer exists
        code = run(["fiber-scan", "--output-dir", str(tmp_path / "x"), "--set", "p=1e20"])
        assert code == 1
        assert "NoPositivePartError" in assert_one_error_line(capsys)

    @pytest.mark.parametrize(
        "text, lineno",
        [("alpha = 0.8\nN 1024\n", 2), ("autonomous = maybe\n", 1)],
    )
    def test_config_file_parse_error_names_the_line(self, tmp_path, capsys, text, lineno):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code = run(["solve", "--config", str(cfg), "--output-dir", str(tmp_path / "x")])
        assert code == 2
        assert f"{cfg}:{lineno}:" in assert_one_error_line(capsys)

    def test_set_without_equals_exits_2(self, tmp_path, capsys):
        assert run(["solve", "--output-dir", str(tmp_path / "x"), "--set", "L"]) == 2
        assert "key=value" in assert_one_error_line(capsys)


class TestOtherCommands:
    def test_compare(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = run(["compare", "--output-dir", str(out), *FAST])
        assert code == 0
        payload = json.loads((out / "compare.json").read_text())
        assert payload["c"] < payload["c_bar"]
        assert payload["strict"] is True
        assert "c_bar=" in capsys.readouterr().out

    def test_compare_at_the_floor_writes_compare_json(self, tmp_path, capsys):
        # both solves end at the energy-resolution floor: the comparison is still
        # written, with both flagged unconverged, stdout names each solve and how
        # it ended, and the run exits 1
        out = tmp_path / "cmp"
        assert run(["compare", "--output-dir", str(out), *FLOOR]) == 1
        payload = json.loads((out / "compare.json").read_text())
        assert payload["perturbed_converged"] is False
        assert payload["autonomous_converged"] is False
        assert payload["c"] < payload["c_bar"]
        captured = capsys.readouterr()
        assert captured.err == ""
        first, *solves = captured.out.splitlines()
        assert first.startswith("c=")
        assert len(solves) == 2
        for name, line in zip(("perturbed", "autonomous"), solves):
            assert re.fullmatch(rf"{name} solve: residual=\d\.\d{{3}}e-\d\d status=step_underflow", line), line

    def test_fiber_scan(self, tmp_path):
        out = tmp_path / "fiber"
        code = run(["fiber-scan", "--output-dir", str(out), *FAST])
        assert code == 0
        lines = (out / "fiber.csv").read_text().strip().splitlines()
        assert lines[0] == "sigma,psi"
        assert len(lines) == 201

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("amplitude", ["1e-200", "1e200"])
    def test_fiber_scan_of_a_huge_start(self, tmp_path, capsys, amplitude):
        # the scan reads the fiber root of u, so sigma u never overflows to NaN,
        # and its samples span that root, so they show the one maximum
        out = tmp_path / "fiber"
        args = ["fiber-scan", "--output-dir", str(out), "--set", f"init.amplitude={amplitude}"]
        assert run(args) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.rstrip().endswith("slope sign changes=1")
        assert "nan" not in (out / "fiber.csv").read_text()

    def test_validate_ops_all_rows_pass(self, tmp_path):
        out = tmp_path / "ops"
        code = run(["validate-ops", "--output-dir", str(out), "--set", "N=2048"])
        assert code == 0
        lines = (out / "ops_residuals.csv").read_text().strip().splitlines()
        header, rows = lines[0], lines[1:]
        assert header == "check,alpha,residual,tolerance,passed"
        assert rows
        for row in rows:
            check, alpha, residual, tolerance, passed = row.split(",")
            assert passed == "True", row
            assert float(residual) < float(tolerance)

    def test_validate_ops_accepts_validation_orders(self, tmp_path):
        # orders outside the solver range are fine for operator validation
        code = run(
            ["validate-ops", "--output-dir", str(tmp_path / "o"), "--set", "N=2048",
             "--set", "alpha=0.3"]
        )
        assert code == 0

    def test_validate_hypotheses_default_passes(self, tmp_path, capsys):
        out = tmp_path / "hyp"
        code = run(["validate-hypotheses", "--output-dir", str(out)])
        assert code == 0
        payload = json.loads((out / "hypotheses.json").read_text())
        assert payload["all_passed"] is True
        assert len(payload["checks"]) == 6
        assert "all_passed=True" in capsys.readouterr().out

    def test_validate_hypotheses_reports_failure_as_data(self, tmp_path):
        out = tmp_path / "hyp"
        code = run(["validate-hypotheses", "--output-dir", str(out), "--set", "theta=4.5"])
        assert code == 0  # hypothesis failures are data, not run errors
        payload = json.loads((out / "hypotheses.json").read_text())
        assert payload["all_passed"] is False
        failed = [c for c in payload["checks"] if not c["passed"]]
        assert any(c["name"] == "superquadratic" for c in failed)
        assert all(c["witness"] is not None for c in failed if c["name"] == "superquadratic")

    def test_validate_hypotheses_without_growth_constant_is_strict_json(self, tmp_path):
        # at p0 < p no finite C_eps exists; hypotheses.json says null, not Infinity
        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        out = tmp_path / "hyp"
        code = run(["validate-hypotheses", "--output-dir", str(out), "--set", "p0=2.5"])
        assert code == 0
        payload = json.loads((out / "hypotheses.json").read_text(), parse_constant=reject)
        assert payload["c_epsilon"] is None
        assert payload["all_passed"] is False

    def test_bad_nonlinearity_parameter_exits_2(self, tmp_path, capsys):
        code = run(
            ["validate-hypotheses", "--output-dir", str(tmp_path / "x"), "--set", "p=0.5"]
        )
        assert code == 2
        assert "p" in capsys.readouterr().err


def test_import_loads_no_scipy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys, fracground, fracground.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
