import json
import os
import subprocess
import sys

import pytest

from fracground.cli import run
from fracground.config import DEFAULTS

FAST = [
    "--set", "N=1024",
    "--set", "L=32",
    "--set", "residual_tol=1e-6",
    "--set", "max_iters=500",
]


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
        assert report["schema"] == 1
        assert report["converged"] is True

    def test_alpha_out_of_range_exits_2(self, tmp_path, capsys):
        code = run(["solve", "--output-dir", str(tmp_path / "x"), "--set", "alpha=0.4"])
        assert code == 2
        err = capsys.readouterr().err
        assert "(1/2, 1)" in err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        code = run(["solve", "--output-dir", str(tmp_path / "x"), "--set", "alpa=0.7"])
        assert code == 2
        assert "alpa" in capsys.readouterr().err

    def test_not_converged_exits_1(self, tmp_path):
        code = run(["solve", "--output-dir", str(tmp_path / "x"), *FAST, "--set", "max_iters=2"])
        assert code == 1

    def test_diverged_exits_1(self, tmp_path, capsys):
        # a tolerance far below the energy-resolution floor ends in DivergedError
        out = tmp_path / "x"
        code = run(
            [
                "solve", "--output-dir", str(out),
                "--set", "N=1024", "--set", "L=32", "--set", "residual_tol=1e-12",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "DivergedError" in err
        # the run up to the last accepted iterate is still written out
        for name in ("report.json", "field.csv", "residuals.csv"):
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is False
        assert f"at residual {report['final_residual']:.3e}," in err

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


class TestOtherCommands:
    def test_compare(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = run(["compare", "--output-dir", str(out), *FAST])
        assert code == 0
        payload = json.loads((out / "compare.json").read_text())
        assert payload["c"] < payload["c_bar"]
        assert payload["strict"] is True
        assert "c_bar=" in capsys.readouterr().out

    def test_fiber_scan(self, tmp_path):
        out = tmp_path / "fiber"
        code = run(["fiber-scan", "--output-dir", str(out), *FAST, "--set", "fiber.count=50"])
        assert code == 0
        lines = (out / "fiber.csv").read_text().strip().splitlines()
        assert lines[0] == "sigma,psi"
        assert len(lines) == 51

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
