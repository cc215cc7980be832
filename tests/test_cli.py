"""Tests for the batch experiment runner.

All invocations go through cli.main(argv) in-process; two subprocess tests
cover the installed entry point wiring and what importing the CLI loads.
"""

import csv
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import riplab
from riplab import cli
from riplab.numerics import NumericalError


def run_cli(*argv) -> int:
    return cli.main(list(argv))


def run_python(*args) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports the same riplab as these tests,
    installed or not."""
    package_root = str(Path(riplab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root,
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def read_csv(path):
    """Returns (comment_lines, field_names, data_rows)."""
    comments, body = [], []
    with open(path, newline="") as fh:
        for line in fh:
            (comments if line.startswith("#") else body).append(line)
    rows = list(csv.DictReader(body))
    fields = body[0].strip().split(",") if body else []
    return comments, fields, rows


class TestReports:
    def test_truncation_json_report(self, tmp_path):
        out = tmp_path / "trunc"
        code = run_cli("truncation", "--q", "2", "--s", "4", "--delta", "0.25",
                       "--C2", "1", "--out", str(out))
        assert code == 0
        doc = json.loads((tmp_path / "trunc.json").read_text())
        assert doc["result"]["l0"] == 5
        assert doc["result"]["meets_half_delta"] is True
        assert doc["config"]["command"] == "truncation"
        assert doc["config"]["q"] == "2"
        assert not (tmp_path / "trunc.csv").exists()

    def test_sp_opt_curve_and_optimum(self, tmp_path):
        out = tmp_path / "sp"
        code = run_cli("sp-opt", "--eta", "decaying", "--N", "256", "--Neta", "64",
                       "--alpha", "0.25", "--r", "8", "--out", str(out))
        assert code == 0
        comments, fields, rows = read_csv(tmp_path / "sp.csv")
        assert fields == ["q_prime", "value"]
        assert len(rows) == 201
        doc = json.loads((tmp_path / "sp.json").read_text())
        values = [float(r["value"]) for r in rows]
        assert abs(doc["result"]["value"] - min(values)) <= 1e-9 * min(values)
        q_opt = float(doc["result"]["q_opt"])
        assert any(abs(float(r["q_prime"]) - q_opt) < 1e-9 for r in rows)

    def test_isotropy_defect_is_tiny(self, tmp_path):
        out = tmp_path / "iso"
        code = run_cli("isotropy", "--eta", "flat", "--N", "4", "--out", str(out))
        assert code == 0
        doc = json.loads((tmp_path / "iso.json").read_text())
        assert doc["result"]["defect"] <= 1e-12
        assert doc["result"]["variant"] == "shiftmod"

    def test_rip_scan_rows_and_monotone_medians(self, tmp_path):
        out = tmp_path / "scan"
        code = run_cli("rip-scan", "--ensemble", "shiftmod", "--eta", "flat",
                       "--N", "16", "--k", "2", "--m", "4,8,16,32",
                       "--trials", "200", "--seed", "7", "--out", str(out))
        assert code == 0
        comments, fields, rows = read_csv(tmp_path / "scan.csv")
        assert fields == ["m", "delta_hat", "model", "seed"]
        by_m = {}
        for row in rows:
            by_m.setdefault(int(row["m"]), []).append(float(row["delta_hat"]))
        ms = sorted(by_m)
        assert ms == [4, 8, 16, 32]
        medians = [float(np.median(by_m[m])) for m in ms]
        assert all(a >= b for a, b in zip(medians, medians[1:]))

    def test_default_output_prefix(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run_cli("truncation", "--q", "2", "--s", "1", "--delta", "1",
                       "--C2", "0.5")
        assert code == 0
        assert (tmp_path / "riplab_truncation.json").exists()

    def test_entry_module_smoke(self, tmp_path):
        proc = run_python("-m", "riplab.cli", "table1", "--s", "2", "--n", "3",
                          "--d", "4", "--out", str(tmp_path / "t1"))
        assert proc.returncode == 0, proc.stderr
        doc = json.loads((tmp_path / "t1.json").read_text())
        assert doc["result"]["gauss"] == 24
        assert doc["result"]["group"] == 288
        assert doc["result"]["group_sign"] == 384
        assert doc["result"]["ratio_group_over_gauss"] == 12.0
        assert doc["result"]["ratio_sign_over_gauss"] == 16.0

    def test_cli_import_leaves_numpy_random_unloaded(self):
        # numpy.random costs about 15 ms to import; only a run that draws
        # should pay it, not building the parser.
        proc = run_python("-c", "import sys, riplab.cli; riplab.cli.build_parser(); "
                                "print('numpy.random' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


    def test_rosenthal_slope_fits_the_medians(self, tmp_path):
        code = run_cli("rosenthal", "--N", "8", "--d", "2", "--M", "4,16,64", "--trials", "5",
                       "--out", str(tmp_path / "r"))
        assert code == 0
        result = json.loads((tmp_path / "r.json").read_text())["result"]
        medians = [rec["median"] for rec in result["records"]]
        expected = np.polyfit(np.log([4, 16, 64]), np.log(medians), 1)[0]
        assert result["slope"] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("argv,reason", [
        (("--N", "8", "--d", "8", "--M", "4,16"), "a median deviation is 0"),
        (("--N", "8", "--d", "2", "--M", "4"), "one M value"),
        (("--N", "8", "--d", "2", "--M", "16,16"), "one M value"),
    ])
    def test_rosenthal_undefined_slope_is_null(self, tmp_path, capsys, argv, reason):
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("rosenthal", *argv, "--trials", "3", "--out", str(tmp_path / "r"))
        assert code == 0
        doc = json.loads((tmp_path / "r.json").read_text(), parse_constant=reject)
        assert doc["result"]["slope"] is None
        assert f"slope=null ({reason}" in capsys.readouterr().out

    @pytest.mark.parametrize("rows,doc,error", [
        ([{"a": 1.5}, {"a": None, "b": 2}], {"x": 1}, ValueError),  # a stray column
        ([{"a": 1.5}], {"x": object()}, TypeError),  # a value JSON cannot hold
    ])
    def test_render_failure_writes_nothing(self, tmp_path, rows, doc, error):
        config, _ = cli.resolve_config("table1", {"s": "1", "n": "2", "d": "2"})
        with pytest.raises(error):
            cli.write_outputs(config, cli.RunResult(rows, doc, ""), str(tmp_path / "x"), False)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("rho_argv,cell", [((), ""), (("--rho", "2"), "2")])
    def test_infdim_scan_rho_cell(self, tmp_path, rho_argv, cell):
        code = run_cli("infdim-scan", "--N", "16", "--L", "4", "--m", "16", "--trials", "2",
                       "--gamma", "0.0625", *rho_argv, "--out", str(tmp_path / "s"))
        assert code == 0
        _, fields, rows = read_csv(tmp_path / "s.csv")
        assert "rho" in fields and len(rows) == 4
        assert all(row["rho"] == cell for row in rows)
        cells = [value.lower() for row in rows for value in row.values()]
        assert not {"nan", "inf", "-inf"} & set(cells)


    def test_infdim_scan_grid_rows_match_single_cells(self, tmp_path):
        # One grid call serves every (mode, m) cell; its rows must be those of
        # the single-mode, single-m runs, in mode-major order, m as given.
        base = ("infdim-scan", "--N", "16", "--L", "4", "--trials", "3",
                "--gamma", "0.0625", "--seed", "5")

        def data_lines(name, *argv):
            assert run_cli(*base, *argv, "--out", str(tmp_path / name)) == 0
            lines = (tmp_path / f"{name}.csv").read_text().splitlines()
            return [line for line in lines if not line.startswith("#")]

        grid = data_lines("grid", "--mode", "both", "--m", "64,16,64")
        single = {(mode, m): data_lines(f"{mode}{m}", "--mode", mode, "--m", m)
                  for mode in ("deterministic", "rademacher") for m in ("64", "16")}
        header = grid[0]
        assert all(lines[0] == header for lines in single.values())
        expected = [row for mode in ("deterministic", "rademacher")
                    for m in ("64", "16", "64") for row in single[mode, m][1:]]
        assert grid[1:] == expected and len(expected) == 18


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        args = ("sp-opt", "--eta", "flat", "--N", "32", "--r", "4", "--seed", "11")
        assert run_cli(*args, "--out", str(tmp_path / "a")) == 0
        assert run_cli(*args, "--out", str(tmp_path / "b")) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_seed_changes_monte_carlo_output(self, tmp_path):
        base = ("rip-scan", "--eta", "flat", "--N", "8", "--k", "1", "--m", "3",
                "--trials", "20")
        assert run_cli(*base, "--seed", "1", "--out", str(tmp_path / "a")) == 0
        assert run_cli(*base, "--seed", "2", "--out", str(tmp_path / "b")) == 0
        _, _, rows_a = read_csv(tmp_path / "a.csv")
        _, _, rows_b = read_csv(tmp_path / "b.csv")
        assert rows_a[0]["seed"] != rows_b[0]["seed"]

    def test_stamp_adds_one_header_line(self, tmp_path):
        args = ("sp-opt", "--eta", "flat", "--N", "16", "--r", "2")
        assert run_cli(*args, "--out", str(tmp_path / "plain")) == 0
        assert run_cli(*args, "--stamp", "--out", str(tmp_path / "stamped")) == 0
        plain = (tmp_path / "plain.csv").read_text().splitlines()
        stamped = (tmp_path / "stamped.csv").read_text().splitlines()
        ts_lines = [l for l in stamped if l.startswith("# timestamp=")]
        assert len(ts_lines) == 1
        assert [l for l in plain if not l.startswith("# timestamp=")] == [
            l for l in stamped if not l.startswith("# timestamp=")
        ]
        doc = json.loads((tmp_path / "stamped.json").read_text())
        assert "timestamp" in doc

    def test_header_echoes_resolved_config(self, tmp_path):
        assert run_cli("sp-opt", "--eta", "flat", "--N", "16", "--r", "2",
                       "--out", str(tmp_path / "echo")) == 0
        comments, _, _ = read_csv(tmp_path / "echo.csv")
        text = "".join(comments)
        assert "# command=sp-opt\n" in comments
        assert "# N=16\n" in comments
        assert "# r=2\n" in comments
        assert "# qmin=2.001\n" in comments
        assert "timestamp" not in text


class TestConfigFile:
    def test_file_values_used_and_flags_override(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(
            "# sweep config\n"
            "N = 16\nk = 2\nm = 4,8\ntrials = 5\nseeds = 2\n"
            "ensemble = shiftmod\neta = flat\n"
        )
        out = tmp_path / "scan"
        code = run_cli("rip-scan", "--config", str(cfg), "--m", "4",
                       "--out", str(out))
        assert code == 0
        comments, _, rows = read_csv(tmp_path / "scan.csv")
        assert {row["m"] for row in rows} == {"4"}
        assert len(rows) == 2
        assert "# m=4\n" in comments
        assert "# seeds=2\n" in comments

    def test_sections_comments_and_dashed_keys(self, tmp_path):
        cfg = tmp_path / "gordon.cfg"
        cfg.write_text(
            "[run]\n; semicolon comment\n# hash comment\n"
            "N = 16\nk = 2\nwidth-trials = 50\ndraws = 2\n"
        )
        code = run_cli("gordon", "--config", str(cfg), "--validate-only")
        assert code == 0

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("N = 16\nk = 2\nm = 4\nbogus = 3\n")
        code = run_cli("rip-scan", "--config", str(cfg))
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_missing_file_rejected(self, tmp_path):
        code = run_cli("rip-scan", "--config", str(tmp_path / "nope.cfg"))
        assert code == 2

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("N 16\n")
        assert run_cli("rip-scan", "--config", str(cfg)) == 2

    def test_rip_scan_has_no_ascent_key(self, tmp_path, capsys):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("N = 16\nk = 2\nm = 4\nascent = 5\n")
        assert run_cli("rip-scan", "--config", str(cfg)) == 2
        assert "unknown config key: ascent" in capsys.readouterr().err

    @pytest.mark.parametrize("value,stamped", [("off", False), ("no", False), ("0", False),
                                               ("on", True)])
    def test_bool_values_from_file(self, tmp_path, value, stamped):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(f"s = 1\nn = 2\nd = 2\nstamp = {value}\n")
        assert run_cli("table1", "--config", str(cfg), "--out", str(tmp_path / "x")) == 0
        assert ("timestamp" in json.loads((tmp_path / "x.json").read_text())) == stamped

    def test_non_boolean_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("s = 1\nn = 2\nd = 2\nstamp = maybe\n")
        assert run_cli("table1", "--config", str(cfg), "--out", str(tmp_path / "x")) == 2
        assert "config error: stamp: not a boolean: 'maybe'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]


# One small valid config per command (the gaussian one has no --N: its rows
# never read --eta, so the dimension is n^2).  A later flag overrides an
# earlier one, so each invalid config below is a valid one plus one change.
_VALID = {
    "sp-opt": ("sp-opt", "--eta", "decaying", "--N", "16", "--Neta", "4", "--alpha", "0.25",
               "--r", "2", "--points", "5"),
    "isotropy": ("isotropy", "--eta", "schatten-decay", "--n", "2"),
    "rip-exact": ("rip-exact", "--eta", "flat", "--N", "8", "--k", "1", "--m", "2"),
    "rip-exact-gaussian-n": ("rip-exact", "--ensemble", "gaussian", "--n", "3", "--k", "1",
                             "--m", "2"),
    "rip-scan": ("rip-scan", "--eta", "flat", "--N", "8", "--k", "1", "--m", "2",
                 "--trials", "2"),
    "mrip": ("mrip", "--N", "8", "--m", "4", "--s", "2", "--delta", "0.3", "--trials", "2",
             "--ascent", "2"),
    "distance": ("distance", "--N", "8", "--m", "4", "--s", "2", "--pairs", "2",
                 "--trials", "2", "--ascent", "2"),
    "weakdiff": ("weakdiff", "--N", "8", "--m", "4", "--s", "2", "--pairs", "2",
                 "--trials", "2", "--ascent", "2", "--alpha", "6"),
    "gordon": ("gordon", "--N", "8", "--k", "1", "--width-trials", "4", "--draws", "1",
               "--trials", "2"),
    "rosenthal": ("rosenthal", "--N", "8", "--d", "2", "--M", "4", "--trials", "2"),
    "table1": ("table1", "--s", "1", "--n", "2", "--d", "2"),
    "infdim-scan": ("infdim-scan", "--N", "16", "--L", "4", "--gamma", "0.0625", "--m", "16",
                    "--trials", "2", "--mode", "deterministic"),
    "bump-check": ("bump-check", "--configs", "1"),
    "truncation": ("truncation", "--q", "2", "--s", "4", "--delta", "0.25", "--C2", "1"),
}

# (argv, part of the diagnostic): one config per rule that --validate-only
# checks, each of which the run must reject as well.
_INVALID = [
    (("sp-opt", "--eta", "flat", "--r", "2"), "--N is required for the flat instrument"),
    (("sp-opt", "--eta", "decaying", "--Neta", "4", "--alpha", "0.25", "--r", "2"),
     "--N is required for the decaying instrument"),
    (("sp-opt", "--eta", "decaying", "--N", "16", "--alpha", "0.25", "--r", "2"),
     "--Neta is required"),
    (("sp-opt", "--eta", "decaying", "--N", "16", "--Neta", "4", "--r", "2"),
     "--alpha is required"),
    ((*_VALID["sp-opt"], "--alpha", "0.7"), "decay exponent must lie in (0, 1/2)"),
    ((*_VALID["sp-opt"], "--Neta", "32"), "window length must lie in [1, N]"),
    (("isotropy", "--eta", "scaled-identity"), "--n is required for the scaled-identity"),
    (("isotropy", "--eta", "schatten-decay"), "--n is required for the schatten-decay"),
    ((*_VALID["isotropy"], "--n", "3", "--alpha", "0.7"), "decay exponent must lie in"),
    ((*_VALID["rip-exact"], "--ensemble", "doubleqft"), "doubleqft requires a matrix"),
    ((*_VALID["rip-scan"], "--eta", "scaled-identity", "--n", "3", "--ensemble", "signshift"),
     "requires a vector instrument"),
    (("rip-exact", "--eta", "scaled-identity", "--n", "3", "--ensemble", "doubleqft",
      "--sign", "absorbed", "--k", "1", "--m", "2"), "absorbed signs are defined for vector"),
    (("rip-exact", "--ensemble", "gaussian", "--k", "1", "--m", "2"),
     "--N or --n is required for the gaussian ensemble"),
    ((*_VALID["rip-exact"], "--k", "0"), "k: must exceed 0; got 0"),
    ((*_VALID["rip-exact"], "--m", "0"), "m: must exceed 0; got 0"),
    ((*_VALID["rip-scan"], "--trials", "0"), "trials: must exceed 0"),
    ((*_VALID["rip-scan"], "--seeds", "0"), "seeds: must exceed 0"),
    ((*_VALID["rip-scan"], "--m", "2,0"), "m: must exceed 0; got 0"),
    ((*_VALID["mrip"], "--N", "0"), "N: must exceed 0"),
    ((*_VALID["mrip"], "--trials", "0"), "trials: must exceed 0"),
    ((*_VALID["mrip"], "--delta", "0"), "delta: must exceed 0"),
    ((*_VALID["mrip"], "--s", "0"), "the l_q cap is empty for s < 1"),
    ((*_VALID["distance"], "--m", "0"), "m: must exceed 0"),
    ((*_VALID["distance"], "--q", "2.5"), "q must lie in [1, 2]"),
    ((*_VALID["distance"], "--pairs", "0"), "pairs: must exceed 0"),
    ((*_VALID["distance"], "--s", "0.5"), "the l_q cap is empty for s < 1"),
    ((*_VALID["weakdiff"], "--s", "0.5"), "the l_q cap is empty for s < 1"),
    ((*_VALID["weakdiff"], "--pairs", "0"), "pairs: must exceed 0"),
    ((*_VALID["weakdiff"], "--alpha", "3"), "lower sandwich factor non-positive"),
    ((*_VALID["weakdiff"], "--alpha", "-5"), "alpha must exceed 2 sqrt(2)"),
    ((*_VALID["gordon"], "--N", "0"), "N: must exceed 0"),
    ((*_VALID["gordon"], "--k", "0"), "k: must exceed 0"),
    ((*_VALID["gordon"], "--delta", "0"), "delta: must exceed 0"),
    ((*_VALID["gordon"], "--draws", "0"), "draws: must exceed 0"),
    ((*_VALID["gordon"], "--trials", "0"), "trials: must exceed 0"),
    ((*_VALID["gordon"], "--width-trials", "1"), "width-trials: must exceed 1"),
    ((*_VALID["gordon"], "--zeta", "3"), "zeta must lie in (0, 2]"),
    ((*_VALID["gordon"], "--k", "9"), "k cannot exceed N"),
    ((*_VALID["rosenthal"], "--N", "0"), "N: must exceed 0"),
    ((*_VALID["rosenthal"], "--d", "0"), "d: must exceed 0"),
    ((*_VALID["rosenthal"], "--trials", "0"), "trials: must exceed 0"),
    ((*_VALID["rosenthal"], "--M", "4,0"), "M: must exceed 0"),
    ((*_VALID["rosenthal"], "--d", "9"), "d cannot exceed N"),
    ((*_VALID["rosenthal"], "--variant", "doubleqft", "--N", "15"), "perfect square"),
    ((*_VALID["table1"], "--s", "0"), "s: must exceed 0"),
    ((*_VALID["table1"], "--n", "0"), "n: must exceed 0"),
    ((*_VALID["table1"], "--d", "0"), "d: must exceed 0"),
    ((*_VALID["infdim-scan"], "--N", "0"), "N: must exceed 0"),
    # make_block_instrument divides by L, so the schema bound must fire first.
    ((*_VALID["infdim-scan"], "--L", "0"), "L: must exceed 0"),
    ((*_VALID["infdim-scan"], "--L", "3"), "must divide 2 N"),
    ((*_VALID["infdim-scan"], "--trials", "0"), "trials: must exceed 0"),
    ((*_VALID["infdim-scan"], "--m", "16,0"), "m: must exceed 0"),
    ((*_VALID["infdim-scan"], "--gamma", "0.5"), "gamma must lie in (0, 1/2)"),
    ((*_VALID["infdim-scan"], "--nbig", "32"), "nbig must be at least 4N"),
    ((*_VALID["bump-check"], "--configs", "0"), "configs: must exceed 0"),
    ((*_VALID["bump-check"], "--tol", "0"), "tol: must exceed 0"),
    ((*_VALID["truncation"], "--q", "1"), "q must lie in (1, 2]"),
    ((*_VALID["truncation"], "--s", "0"), "s, delta, c2 must be positive"),
    ((*_VALID["truncation"], "--delta", "0"), "s, delta, c2 must be positive"),
    ((*_VALID["truncation"], "--C2", "0"), "s, delta, c2 must be positive"),
    (("mrip", "--N", "8", "--m", "4", "--s", "2", "--delta", "0.3", "--seed", "-1"),
     "seed: must exceed -1; got -1"),
    ((*_VALID["infdim-scan"], "--seed", "-3"), "seed: must exceed -1; got -3"),
    (("isotropy", "--eta", "flat", "--N", "4", "--variant", "doubleqft"),
     "doubleqft requires a matrix instrument"),
    ((*_VALID["rosenthal"], "--M", ","), "M: needs at least one value"),
    ((*_VALID["rip-scan"], "--m", ","), "m: needs at least one value"),
    ((*_VALID["infdim-scan"], "--m", ","), "m: needs at least one value"),
    ((*_VALID["mrip"], "--delta", "nan"), "delta: must be a finite number; got nan"),
    ((*_VALID["mrip"], "--s", "nan"), "s: must be a finite number; got nan"),
    ((*_VALID["truncation"], "--delta", "inf"), "delta: must be a finite number; got inf"),
    ((*_VALID["sp-opt"], "--r", "nan"), "r: must be a finite number; got nan"),
    (("truncation", "--q", "2", "--s", "1e300", "--delta", "1e-300", "--C2", "1e300"),
     "underflows to 0"),
    ((*_VALID["mrip"], "--ascent", "-3"), "ascent: must exceed -1; got -3"),
    # Draw d's ensemble stream 1 + d would meet draw 0's support stream 100000.
    ((*_VALID["gordon"], "--draws", "100000"), "draws cannot exceed 99999"),
]

# (argv, diagnostic): configs that --validate-only accepts because the rule is
# checked inside the experiment, which then exits 2 and writes nothing.
_RUN_ONLY_INVALID = {
    "rip-scan": (("rip-scan", "--ensemble", "gaussian", "--N", "4", "--k", "5", "--m", "2",
                  "--trials", "1"), "k=5 exceeds ambient dimension 4"),
    "rip-exact": (("rip-exact", "--eta", "flat", "--N", "4", "--k", "5", "--m", "2"),
                  "k must lie in [1, N]; got 5"),
    "mrip": (("mrip", "--N", "8", "--m", "4", "--s", "100", "--delta", "0.3", "--trials", "2",
              "--ascent", "2"), "s must lie in [1, s_max=8]; got 100.0"),
    "sp-opt": (("sp-opt", "--eta", "flat", "--N", "8", "--r", "2", "--qmin", "3",
                "--qmax", "2.5"), "need 2 < q_min < q_max"),
}


class TestValidation:
    def test_validate_only_runs_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = run_cli("sp-opt", "--eta", "flat", "--N", "16", "--r", "2",
                       "--validate-only")
        assert code == 0
        assert "configuration ok" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_missing_required_key_message(self):
        config, diags = cli.resolve_config("truncation", {})
        assert "missing required key q" in diags
        assert "missing required key C2" in diags

    def test_alpha_window_message(self):
        config, diags = cli.resolve_config(
            "sp-opt",
            {"eta": "decaying", "N": "256", "Neta": "64", "alpha": "0.7", "r": "8"},
        )
        assert diags == []
        assert cli.validate(config) == ["decay exponent must lie in (0, 1/2); got 0.7"]

    def test_valid_config_has_no_diagnostics(self):
        config, diags = cli.resolve_config(
            "sp-opt",
            {"eta": "decaying", "N": "256", "Neta": "64", "alpha": "0.25", "r": "8"},
        )
        assert diags == []
        assert cli.validate(config) == []

    def test_alpha_window_exit_code(self, tmp_path):
        code = run_cli("sp-opt", "--eta", "decaying", "--N", "256", "--Neta", "64",
                       "--alpha", "0.7", "--r", "8", "--out", str(tmp_path / "x"))
        assert code == 2

    def test_bad_choice_rejected(self, capsys):
        code = run_cli("rip-scan", "--eta", "flat", "--N", "8", "--k", "1",
                       "--m", "2", "--ensemble", "fourier")
        assert code == 2
        assert "ensemble" in capsys.readouterr().err

    def test_bad_int_rejected(self):
        assert run_cli("rip-scan", "--eta", "flat", "--N", "8.5", "--k", "1",
                       "--m", "2") == 2

    def test_matrix_group_needs_matrix_instrument(self):
        assert run_cli("rip-exact", "--eta", "flat", "--N", "8", "--k", "1",
                       "--m", "2", "--ensemble", "doubleqft") == 2

    @pytest.mark.parametrize("validate_only", [True, False])
    def test_doubleqft_rosenthal_needs_square_n(self, tmp_path, capsys, validate_only):
        flag = ("--validate-only",) if validate_only else ()
        code = run_cli("rosenthal", "--variant", "doubleqft", "--N", "15", "--d", "2",
                       "--M", "4", "--out", str(tmp_path / "r"), *flag)
        captured = capsys.readouterr()
        assert code == 2
        assert "N to be a perfect square" in captured.err
        assert "configuration ok" not in captured.out
        assert list(tmp_path.iterdir()) == []

    def test_doubleqft_rosenthal_square_n_validates(self, capsys):
        code = run_cli("rosenthal", "--variant", "doubleqft", "--N", "16", "--d", "2",
                       "--M", "4", "--validate-only")
        assert code == 0
        assert "configuration ok" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", _VALID.values(), ids=list(_VALID))
    def test_valid_config_validates_and_runs(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv, "--validate-only") == 0
        assert run_cli(*argv, "--out", str(tmp_path / "x")) == 0

    # s = 3 is not a power of two: its lowest dyadic level holds sparsity 1.5.
    # q = 1.999 puts the top level's witness size at 2^1999, past any float.
    @pytest.mark.parametrize("argv", [
        (*_VALID["mrip"], "--s", "3"),
        (*_VALID["distance"], "--s", "3"),
        (*_VALID["weakdiff"], "--s", "3"),
        (*_VALID["mrip"], "--s", "1", "--q", "1.999"),
    ], ids=["mrip", "distance", "weakdiff", "mrip-q-near-2"])
    def test_level_edge_configs_validate_and_run(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv, "--validate-only") == 0
        assert run_cli(*argv, "--out", str(tmp_path / "x")) == 0

    @pytest.mark.parametrize("argv,message", _INVALID)
    def test_validate_only_agrees_with_the_run(self, tmp_path, monkeypatch, capsys,
                                               argv, message):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv, "--validate-only", "--out", str(tmp_path / "x")) == 2
        assert message in capsys.readouterr().err
        assert run_cli(*argv, "--out", str(tmp_path / "x")) == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", _VALID.values(), ids=list(_VALID))
    def test_report_cells_and_config_echo(self, tmp_path, argv):
        assert run_cli(*argv, "--out", str(tmp_path / "x")) == 0
        labels = {c for opts in cli.SCHEMAS.values() for o in opts for c in o.choices}
        labels |= {"separated", "close", f"canonical_k{dict(zip(argv, argv[1:])).get('--k')}"}

        def rendered(cell):
            if re.fullmatch(r"-?\d+", cell) or cell in {"true", "false", "", "inf"} | labels:
                return True
            try:
                return format(float(cell), ".12g") == cell
            except ValueError:
                return False

        echo = None
        if (tmp_path / "x.csv").exists():
            comments, fields, rows = read_csv(tmp_path / "x.csv")
            assert rows and fields == list(rows[0])
            assert [cell for row in rows for cell in row.values() if not rendered(cell)] == []
            echo = dict(line[2:].rstrip("\n").split("=", 1) for line in comments)
            assert list(echo)[0] == "command"
        if (tmp_path / "x.json").exists():
            config = json.loads((tmp_path / "x.json").read_text())["config"]
            assert echo in (None, config)
        assert echo is not None or (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("argv,message", _RUN_ONLY_INVALID.values(),
                             ids=list(_RUN_ONLY_INVALID))
    def test_run_only_failures_exit_two(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv, "--validate-only") == 0
        assert run_cli(*argv, "--out", str(tmp_path / "x")) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_flag_values_are_trimmed(self):
        assert run_cli("sp-opt", "--eta", " flat ", "--N", " 16", "--r", "2 ",
                       "--validate-only") == 0

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate", "--N", "4")
        assert exc.value.code == 2

    def test_rip_scan_has_no_ascent_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*_VALID["rip-scan"], "--ascent", "5")
        assert exc.value.code == 2
        assert "unrecognized arguments: --ascent 5" in capsys.readouterr().err


class TestFailureExitCodes:
    def test_capacity_exit(self, tmp_path):
        code = run_cli("rip-exact", "--eta", "flat", "--N", "64", "--k", "8",
                       "--m", "4", "--out", str(tmp_path / "x"))
        assert code == 3

    def test_numerical_exit(self, tmp_path, monkeypatch):
        def boom(params):
            raise NumericalError("synthetic instability")

        monkeypatch.setitem(cli._RUNNERS, "table1", boom)
        code = run_cli("table1", "--s", "1", "--n", "2", "--d", "2",
                       "--out", str(tmp_path / "x"))
        assert code == 4

    def test_failed_rename_removes_the_temp_file(self, tmp_path, monkeypatch):
        renamed = []

        def refuse(src, dst):
            renamed.append(src)
            raise OSError("rename refused")

        monkeypatch.setattr(cli.os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            run_cli("table1", "--s", "1", "--n", "2", "--d", "2", "--out", str(tmp_path / "x"))
        assert [Path(src).name[:12] for src in renamed] == [".riplab_tmp_"]
        assert list(tmp_path.iterdir()) == []
