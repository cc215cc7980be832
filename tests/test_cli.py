"""Tests for the batch experiment runner.

All invocations go through cli.main(argv) in-process; two subprocess tests
cover the installed entry point wiring and what importing the CLI loads.
"""

import csv
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import riplab
import riplab.group_ops as go
from riplab import cli
from riplab.instruments import make_decaying_window, make_flat, make_schatten_decay
from riplab.numerics import NumericalError, SeededRng
from riplab.rip import empirical_rip
from riplab.sparsity import Canonical


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

    def test_sp_opt_json_report(self, tmp_path, capsys):
        # The AC05 window: its minimum is the q' = 2 endpoint, f(2) = 8 * 256.
        code = run_cli("sp-opt", "--eta", "decaying", "--N", "256", "--Neta", "64",
                       "--alpha", "0.25", "--r", "8", "--out", str(tmp_path / "sp"))
        assert code == 0
        assert [path.name for path in tmp_path.iterdir()] == ["sp.json"]
        result = json.loads((tmp_path / "sp.json").read_text())["result"]
        assert set(result) == {"q_opt", "value", "gain", "eta", "r"}
        assert (result["q_opt"], result["gain"]) == (2.0, 1.0)
        assert result["value"] == pytest.approx(2048.0, rel=1e-9)
        assert "q_opt=2 value=2048 gain=1 ->" in capsys.readouterr().out

    def test_gordon_report_and_seed_free_width(self, tmp_path):
        # The width is a quadrature: seeds 4 and 1004 move only the draws.
        results = []
        for seed in ("4", "1004"):
            out = tmp_path / f"g{seed}"
            assert run_cli("gordon", "--N", "64", "--k", "4", "--draws", "1", "--trials", "5",
                           "--seed", seed, "--out", str(out)) == 0
            results.append(json.loads((tmp_path / f"g{seed}.json").read_text())["result"])
        assert set(results[0]) == {"width_mean", "width_error", "predicted_m", "draws",
                                   "achieving", "fraction"}
        assert results[0]["width_mean"] == results[1]["width_mean"]
        assert results[0]["width_error"] <= 1e-6 * results[0]["width_mean"]
        assert results[0]["predicted_m"] == results[1]["predicted_m"] == 191

    def test_sp_opt_interior_optimum(self, tmp_path):
        # Flat N = 16 at r = 1e-300: q' = (2/3) ln(N / r) = 462.365 and f(2) = 128.
        code = run_cli("sp-opt", "--eta", "flat", "--N", "16", "--r", "1e-300",
                       "--out", str(tmp_path / "sp"))
        assert code == 0
        result = json.loads((tmp_path / "sp.json").read_text())["result"]
        assert result["q_opt"] == pytest.approx(462.365411, rel=1e-9)
        assert result["value"] == pytest.approx(1.98536087e-291, rel=1e-8)
        assert result["gain"] == pytest.approx(128.0 / result["value"], rel=1e-12)

    def test_sp_opt_gain_past_float_range_is_numerical(self, tmp_path, capsys):
        code = run_cli("sp-opt", "--eta", "flat", "--N", "16", "--r", "5e-324",
                       "--out", str(tmp_path / "sp"))
        assert code == 4
        assert "numerical error: the gain over q' = 2 overflows" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("argv,build", [
        (("--eta", "decaying", "--alpha", "0.25", "--N", "12", "--Neta", "6",
          "--sign", "random"),
         lambda m, rng: go.sample_ensemble(make_decaying_window(12, 6, 0.25), "shiftmod", m,
                                           "random", rng)),
        (("--eta", "flat", "--N", "12", "--ensemble", "signshift", "--sign", "absorbed"),
         lambda m, rng: go.sample_ensemble(make_flat(12), "signshift", m, "absorbed", rng)),
        (("--eta", "schatten-decay", "--n", "3", "--alpha", "0.25", "--ensemble", "doubleqft"),
         lambda m, rng: go.sample_ensemble(make_schatten_decay(3, 0.25, rng), "doubleqft", m,
                                           "none", rng)),
        (("--ensemble", "gaussian", "--N", "12"),
         lambda m, rng: go.gaussian_ensemble(12, m, rng)),
    ], ids=["shiftmod-random", "signshift-absorbed", "doubleqft-schatten", "gaussian"])
    def test_rip_scan_rows_equal_fresh_single_runs(self, tmp_path, monkeypatch, argv, build):
        # Each seed draws once for all m; its rows must be those of an
        # ensemble built afresh for every (m, seed), by m in list order, then
        # by seed.
        written = []
        write = cli.write_outputs

        def record(config, result, *args):
            written.append(result.csv_rows)
            return write(config, result, *args)

        monkeypatch.setattr(cli, "write_outputs", record)
        assert run_cli("rip-scan", *argv, "--k", "2", "--m", "8,3,8,5", "--seeds", "3",
                       "--trials", "20", "--seed", "40", "--out", str(tmp_path / "scan")) == 0
        expected = []
        for m in (8, 3, 8, 5):
            for seed in (40, 41, 42):
                report = empirical_rip(build(m, SeededRng(seed)), Canonical(2), 20,
                                       rng=SeededRng(seed, 1))
                expected.append((m, seed, "canonical_k2", report.delta_hat.hex()))
        [rows] = written
        assert [(r["m"], r["seed"], r["model"], r["delta_hat"].hex()) for r in rows] == expected
        _, _, csv_rows = read_csv(tmp_path / "scan.csv")
        assert [(int(r["m"]), int(r["seed"])) for r in csv_rows] == [e[:2] for e in expected]

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
        # should pay it, not building the parser.  numpy.polynomial (about
        # 3.5 ms) is not needed at all: the width rule builds its own nodes.
        proc = run_python("-c", "import sys, riplab.cli; riplab.cli.build_parser(); "
                                "print([name in sys.modules "
                                "for name in ('numpy.random', 'numpy.polynomial')])")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[False, False]"


    def test_distance_pairs_are_a_prefix(self, tmp_path):
        # Pair i is rows 2i and 2i + 1 of one block of witnesses, so 5 pairs
        # write the first 5 rows of 20.
        def data_lines(pairs):
            out = tmp_path / f"d{pairs}"
            assert run_cli("distance", "--N", "16", "--m", "64", "--s", "2", "--pairs", pairs,
                           "--trials", "3", "--ascent", "5", "--out", str(out)) == 0
            lines = out.with_suffix(".csv").read_text().splitlines()
            return [line for line in lines if not line.startswith("#")]

        few, many = data_lines("5"), data_lines("20")
        assert len(few) == 6 and len(many) == 21  # a header and one row per pair
        assert few == many[:6]

    def test_weakdiff_cells_are_squared_distances(self, tmp_path):
        # m = 256 on seed 0, the first seed from 0 that gives both verdicts,
        # with close radii r delta between sqrt(true_sq) and true_sq.
        code = run_cli("weakdiff", "--N", "16", "--m", "256", "--s", "2", "--pairs", "20",
                       "--trials", "3", "--ascent", "5", "--seed", "0",
                       "--out", str(tmp_path / "w"))
        assert code == 0
        _, _, rows = read_csv(tmp_path / "w.csv")
        delta = json.loads((tmp_path / "w.json").read_text())["result"]["delta_calibrated"]
        assert {row["verdict"] for row in rows} == {"separated", "close"}
        for row in rows:
            lower, upper, true_sq = float(row["lower"] or 0.0), float(row["upper"]), \
                float(row["true_sq"])
            assert (row["ok"] == "true") == (lower <= true_sq <= upper), row
            if row["verdict"] == "close":
                assert upper == pytest.approx((8.0 * delta) ** 2, rel=1e-11)

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
    ], ids=["argv0-a median deviation is 0", "argv1-one M value", "argv2-one M value"])
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
    ], ids=["rows0-doc0-ValueError", "rows1-doc1-TypeError"])
    def test_render_failure_writes_nothing(self, tmp_path, rows, doc, error):
        config, _ = cli.resolve_config("table1", {"s": "1", "n": "2", "d": "2"})
        with pytest.raises(error):
            cli.write_outputs(config, cli.RunResult(rows, doc, ""), str(tmp_path / "x"), False)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("rho_argv,cell", [((), ""), (("--rho", "2"), "2")],
                             ids=["rho_argv0-", "rho_argv1-2"])
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
        args = ("rosenthal", "--N", "4", "--d", "2", "--M", "2,4", "--trials", "2",
                "--seed", "11")
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
        args = ("rosenthal", "--N", "4", "--d", "2", "--M", "2,4", "--trials", "2")
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
        assert run_cli("rosenthal", "--N", "4", "--d", "2", "--M", "2,4", "--trials", "2",
                       "--out", str(tmp_path / "echo")) == 0
        comments, _, _ = read_csv(tmp_path / "echo.csv")
        text = "".join(comments)
        assert "# command=rosenthal\n" in comments
        assert "# N=4\n" in comments
        assert "# M=2,4\n" in comments
        assert "# variant=shiftmod\n" in comments  # a default the flags never set
        assert "timestamp" not in text


    def test_runs_in_one_process_do_not_share_options(self, tmp_path):
        # main reuses one parser; a flag or an error of one run must not reach
        # the next.
        args = ("rosenthal", "--N", "4", "--d", "2", "--M", "2,4", "--trials", "2")
        assert run_cli(*args, "--stamp", "--out", str(tmp_path / "a")) == 0
        with pytest.raises(SystemExit):
            run_cli(*args, "--bogus")
        assert run_cli(*args, "--validate-only", "--out", str(tmp_path / "b")) == 0
        assert not list(tmp_path.glob("b.*"))
        assert run_cli(*args, "--out", str(tmp_path / "c")) == 0
        assert "timestamp" not in (tmp_path / "c.csv").read_text()


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

    def test_sp_opt_has_no_points_key(self, tmp_path, capsys):
        cfg = tmp_path / "sp.cfg"
        cfg.write_text("eta = flat\nN = 16\nr = 2\npoints = 5\n")
        assert run_cli("sp-opt", "--config", str(cfg)) == 2
        assert "unknown config key: points" in capsys.readouterr().err

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
               "--r", "2"),
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
    "gordon": ("gordon", "--N", "8", "--k", "1", "--draws", "1", "--trials", "2"),
    "rosenthal": ("rosenthal", "--N", "8", "--d", "2", "--M", "4", "--trials", "2"),
    "table1": ("table1", "--s", "1", "--n", "2", "--d", "2"),
    "infdim-scan": ("infdim-scan", "--N", "16", "--L", "4", "--gamma", "0.0625", "--m", "16",
                    "--trials", "2", "--mode", "deterministic"),
    "bump-check": ("bump-check", "--configs", "1"),
    "truncation": ("truncation", "--q", "2", "--s", "4", "--delta", "0.25", "--C2", "1"),
}

# (case number, argv, part of the diagnostic): one config per rule that
# --validate-only checks, each of which the run must reject as well.  A case
# keeps its number, and with it its test id argv<number>-<diagnostic>, when
# other cases are added or removed.
_INVALID = [
    (0, ("sp-opt", "--eta", "flat", "--r", "2"), "--N is required for the flat instrument"),
    (1, ("sp-opt", "--eta", "decaying", "--Neta", "4", "--alpha", "0.25", "--r", "2"),
     "--N is required for the decaying instrument"),
    (2, ("sp-opt", "--eta", "decaying", "--N", "16", "--alpha", "0.25", "--r", "2"),
     "--Neta is required"),
    (3, ("sp-opt", "--eta", "decaying", "--N", "16", "--Neta", "4", "--r", "2"),
     "--alpha is required"),
    (4, (*_VALID["sp-opt"], "--alpha", "0.7"), "decay exponent must lie in (0, 1/2)"),
    (5, (*_VALID["sp-opt"], "--Neta", "32"), "window length must lie in [1, N]"),
    (6, ("isotropy", "--eta", "scaled-identity"), "--n is required for the scaled-identity"),
    (7, ("isotropy", "--eta", "schatten-decay"), "--n is required for the schatten-decay"),
    (8, (*_VALID["isotropy"], "--n", "3", "--alpha", "0.7"), "decay exponent must lie in"),
    (9, (*_VALID["rip-exact"], "--ensemble", "doubleqft"), "doubleqft requires a matrix"),
    (10, (*_VALID["rip-scan"], "--eta", "scaled-identity", "--n", "3", "--ensemble", "signshift"),
     "requires a vector instrument"),
    (11, ("rip-exact", "--eta", "scaled-identity", "--n", "3", "--ensemble", "doubleqft",
          "--sign", "absorbed", "--k", "1", "--m", "2"), "absorbed signs are defined for vector"),
    (12, ("rip-exact", "--ensemble", "gaussian", "--k", "1", "--m", "2"),
     "--N or --n is required for the gaussian ensemble"),
    (13, (*_VALID["rip-exact"], "--k", "0"), "k: must exceed 0; got 0"),
    (14, (*_VALID["rip-exact"], "--m", "0"), "m: must exceed 0; got 0"),
    (15, (*_VALID["rip-scan"], "--trials", "0"), "trials: must exceed 0"),
    (16, (*_VALID["rip-scan"], "--seeds", "0"), "seeds: must exceed 0"),
    (17, (*_VALID["rip-scan"], "--m", "2,0"), "m: must exceed 0; got 0"),
    (18, (*_VALID["mrip"], "--N", "0"), "N: must exceed 0"),
    (19, (*_VALID["mrip"], "--trials", "0"), "trials: must exceed 0"),
    (20, (*_VALID["mrip"], "--delta", "0"), "delta: must exceed 0"),
    (21, (*_VALID["mrip"], "--s", "0"), "the l_q cap is empty for s < 1"),
    (22, (*_VALID["distance"], "--m", "0"), "m: must exceed 0"),
    (23, (*_VALID["distance"], "--q", "2.5"), "q must lie in [1, 2]"),
    (24, (*_VALID["distance"], "--pairs", "0"), "pairs: must exceed 0"),
    (25, (*_VALID["distance"], "--s", "0.5"), "the l_q cap is empty for s < 1"),
    (26, (*_VALID["weakdiff"], "--s", "0.5"), "the l_q cap is empty for s < 1"),
    (27, (*_VALID["weakdiff"], "--pairs", "0"), "pairs: must exceed 0"),
    (28, (*_VALID["weakdiff"], "--alpha", "3"), "lower sandwich factor non-positive"),
    (29, (*_VALID["weakdiff"], "--alpha", "-5"), "alpha must exceed 2 sqrt(2)"),
    (30, (*_VALID["gordon"], "--N", "0"), "N: must exceed 0"),
    (31, (*_VALID["gordon"], "--k", "0"), "k: must exceed 0"),
    (32, (*_VALID["gordon"], "--delta", "0"), "delta: must exceed 0"),
    (33, (*_VALID["gordon"], "--draws", "0"), "draws: must exceed 0"),
    (34, (*_VALID["gordon"], "--trials", "0"), "trials: must exceed 0"),
    (35, (*_VALID["gordon"], "--width-trials", "1"), "width-trials: must exceed 1"),
    (36, (*_VALID["gordon"], "--zeta", "3"), "zeta must lie in (0, 2]"),
    (37, (*_VALID["gordon"], "--k", "9"), "k=9 exceeds ambient dimension 8"),
    (38, (*_VALID["rosenthal"], "--N", "0"), "N: must exceed 0"),
    (39, (*_VALID["rosenthal"], "--d", "0"), "d: must exceed 0"),
    (40, (*_VALID["rosenthal"], "--trials", "0"), "trials: must exceed 0"),
    (41, (*_VALID["rosenthal"], "--M", "4,0"), "M: must exceed 0"),
    (42, (*_VALID["rosenthal"], "--d", "9"), "d cannot exceed N"),
    (43, (*_VALID["rosenthal"], "--variant", "doubleqft", "--N", "15"), "perfect square"),
    (44, (*_VALID["table1"], "--s", "0"), "s: must exceed 0"),
    (45, (*_VALID["table1"], "--n", "0"), "n: must exceed 0"),
    (46, (*_VALID["table1"], "--d", "0"), "d: must exceed 0"),
    (47, (*_VALID["infdim-scan"], "--N", "0"), "N: must exceed 0"),
    # make_block_instrument divides by L, so the schema bound must fire first.
    (48, (*_VALID["infdim-scan"], "--L", "0"), "L: must exceed 0"),
    (49, (*_VALID["infdim-scan"], "--L", "3"), "must divide 2 N"),
    (50, (*_VALID["infdim-scan"], "--trials", "0"), "trials: must exceed 0"),
    (51, (*_VALID["infdim-scan"], "--m", "16,0"), "m: must exceed 0"),
    (52, (*_VALID["infdim-scan"], "--gamma", "0.5"), "gamma must lie in (0, 1/2)"),
    (54, (*_VALID["bump-check"], "--configs", "0"), "configs: must exceed 0"),
    (55, (*_VALID["bump-check"], "--tol", "0"), "tol: must exceed 0"),
    (56, (*_VALID["truncation"], "--q", "1"), "q must lie in (1, 2]"),
    (57, (*_VALID["truncation"], "--s", "0"), "s, delta, c2 must be positive"),
    (58, (*_VALID["truncation"], "--delta", "0"), "s, delta, c2 must be positive"),
    (59, (*_VALID["truncation"], "--C2", "0"), "s, delta, c2 must be positive"),
    (60, ("mrip", "--N", "8", "--m", "4", "--s", "2", "--delta", "0.3", "--seed", "-1"),
     "seed: must exceed -1; got -1"),
    (61, (*_VALID["infdim-scan"], "--seed", "-3"), "seed: must exceed -1; got -3"),
    (62, ("isotropy", "--eta", "flat", "--N", "4", "--variant", "doubleqft"),
     "doubleqft requires a matrix instrument"),
    (63, (*_VALID["rosenthal"], "--M", ","), "M: needs at least one value"),
    (64, (*_VALID["rip-scan"], "--m", ","), "m: needs at least one value"),
    (65, (*_VALID["infdim-scan"], "--m", ","), "m: needs at least one value"),
    (66, (*_VALID["mrip"], "--delta", "nan"), "delta: must be a finite number; got nan"),
    (67, (*_VALID["mrip"], "--s", "nan"), "s: must be a finite number; got nan"),
    (68, (*_VALID["truncation"], "--delta", "inf"), "delta: must be a finite number; got inf"),
    (69, (*_VALID["sp-opt"], "--r", "nan"), "r: must be a finite number; got nan"),
    (70, ("truncation", "--q", "2", "--s", "1e300", "--delta", "1e-300", "--C2", "1e300"),
     "underflows to 0"),
    (71, (*_VALID["mrip"], "--ascent", "-3"), "ascent: must exceed -1; got -3"),
    # Draw d's ensemble stream 1 + d would meet draw 0's support stream 100000.
    (72, (*_VALID["gordon"], "--draws", "100000"), "draws cannot exceed 99999"),
    # A Gaussian ensemble's dimension is N, else n^2, so a zero N must not fall through to n.
    (73, (*_VALID["rip-exact-gaussian-n"], "--N", "0"), "N: must exceed 0; got 0"),
    (74, ("rip-exact", "--ensemble", "gaussian", "--N", "0", "--k", "1", "--m", "2"),
     "N: must exceed 0; got 0"),
    (75, ("rip-exact", "--ensemble", "gaussian", "--n", "0", "--k", "1", "--m", "2"),
     "n: must exceed 0; got 0"),
    (76, (*_VALID["sp-opt"], "--Neta", "0"), "Neta: must exceed 0; got 0"),
    (77, (*_VALID["isotropy"], "--n", "-1"), "n: must exceed 0; got -1"),
    (78, (*_VALID["sp-opt"], "--r", "0"), "r: must exceed 0; got 0.0"),
    (79, (*_VALID["sp-opt"], "--r", "-2"), "r: must exceed 0; got -2.0"),
    # Gaussian rows take no signs, so a sign mode would only be echoed.
    (80, ("rip-scan", "--ensemble", "gaussian", "--N", "16", "--k", "2", "--m", "8",
          "--sign", "absorbed", "--trials", "5"), "the gaussian ensemble takes no signs"),
    (81, (*_VALID["rip-exact-gaussian-n"], "--sign", "random"),
     "the gaussian ensemble takes no signs; got --sign random"),
    # s_max is N at q = 1, so s = 100 leaves no dyadic level.
    (82, ("mrip", "--N", "16", "--m", "8", "--s", "100", "--q", "1", "--delta", "0.3"),
     "s must lie in [1, s_max=16]; got 100.0"),
    (83, ("distance", "--N", "16", "--m", "8", "--s", "100", "--q", "1"),
     "s must lie in [1, s_max=16]; got 100.0"),
    (84, ("weakdiff", "--N", "16", "--m", "8", "--s", "100", "--q", "1"),
     "s must lie in [1, s_max=16]; got 100.0"),
    # k is checked against the built ensemble's dimension: N, or n^2 for a matrix.
    (85, ("rip-exact", "--ensemble", "gaussian", "--N", "8", "--k", "9", "--m", "4"),
     "k=9 exceeds ambient dimension 8"),
    (86, ("rip-scan", "--ensemble", "gaussian", "--N", "8", "--k", "9", "--m", "4"),
     "k=9 exceeds ambient dimension 8"),
    (87, ("rip-exact", "--eta", "flat", "--N", "4", "--k", "5", "--m", "2"),
     "k=5 exceeds ambient dimension 4"),
    (88, ("rip-scan", "--eta", "scaled-identity", "--n", "2", "--ensemble", "doubleqft",
          "--k", "5", "--m", "2"), "k=5 exceeds ambient dimension 4"),
]

# The library calls that start each command's experiment; --validate-only
# must stop before any of them.
_EXPERIMENTS = ("optimize_sparsity_parameter", "isotropy_defect", "exact_rip_canonical",
                "empirical_rip", "mrip_check", "calibrate_mrip_distortion", "gaussian_width",
                "rosenthal_deviation", "rip_experiment", "from_bumps", "table1_counts")

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

    def test_alpha_window_message(self, capsys):
        code = run_cli("sp-opt", "--eta", "decaying", "--N", "256", "--Neta", "64",
                       "--alpha", "0.7", "--r", "8", "--validate-only")
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: decay exponent must lie in (0, 1/2); got 0.7\n")

    def test_valid_config_has_no_diagnostics(self, capsys):
        code = run_cli("sp-opt", "--eta", "decaying", "--N", "256", "--Neta", "64",
                       "--alpha", "0.25", "--r", "8", "--validate-only")
        assert code == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("configuration ok\n", "")

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
    def test_validate_only_stops_before_the_experiment(self, tmp_path, monkeypatch, capsys,
                                                       argv):
        def started(*args, **kwargs):
            raise AssertionError("--validate-only started the experiment")

        for name in _EXPERIMENTS:
            monkeypatch.setattr(cli, name, started)
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv, "--validate-only") == 0
        assert capsys.readouterr().out == "configuration ok\n"
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("argv,message", [case[1:] for case in _INVALID],
                             ids=[f"argv{no}-{message}" for no, _, message in _INVALID])
    def test_validate_only_agrees_with_the_run(self, tmp_path, monkeypatch, capsys,
                                               argv, message):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv, "--validate-only", "--out", str(tmp_path / "x")) == 2
        assert message in capsys.readouterr().err
        assert run_cli(*argv, "--out", str(tmp_path / "x")) == 2
        assert list(tmp_path.iterdir()) == []

    # Finite flags whose count or constant leaves the double range: delta^2
    # underflows to 0 or to a subnormal, 2 / zeta overflows, alpha^2 overflows.
    @pytest.mark.parametrize("argv", [
        ("gordon", "--N", "4", "--k", "2", "--delta", "1e-300"),
        ("gordon", "--N", "4", "--k", "2", "--delta", "1e-160"),
        ("gordon", "--N", "4", "--k", "2", "--zeta", "1e-320", "--validate-only"),
        ("weakdiff", "--N", "8", "--m", "4", "--s", "2", "--alpha", "1e200"),
    ], ids=["gordon-delta-1e-300", "gordon-delta-1e-160", "gordon-zeta-1e-320",
            "weakdiff-alpha-1e200"])
    def test_float_range_overflow_is_a_config_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"config error: [^\n]* is out of double range\n", captured.err)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", _VALID.values(), ids=list(_VALID))
    def test_report_cells_and_config_echo(self, tmp_path, argv):
        assert run_cli(*argv, "--out", str(tmp_path / "x")) == 0
        labels = {c for opts in cli.SCHEMAS.values() for o in opts for c in o.choices}
        labels |= {"separated", "close", "exact", "lower",
                   f"canonical_k{dict(zip(argv, argv[1:])).get('--k')}"}

        def rendered(cell):
            if re.fullmatch(r"-?\d+", cell) or cell in {"true", "false", ""} | labels:
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

    def test_flag_values_are_trimmed(self):
        assert run_cli("sp-opt", "--eta", " flat ", "--N", " 16", "--r", "2 ",
                       "--validate-only") == 0

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate", "--N", "4")
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag,value", [("--qmin", "3"), ("--qmax", "9"), ("--points", "5")],
                             ids=["qmin", "qmax", "points"])
    def test_sp_opt_has_no_grid_flags(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            run_cli(*_VALID["sp-opt"], flag, value)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

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

    # Each config asks for exabytes, which the allocator refuses at once.
    @pytest.mark.parametrize("argv", [
        ("gordon", "--N", "4", "--k", "2", "--delta", "1e-8", "--draws", "1", "--trials", "1"),
        ("rip-exact", "--ensemble", "gaussian", "--N", "4", "--k", "2",
         "--m", "100000000000000000", "--validate-only"),
    ], ids=["gordon", "rip-exact-validate-only"])
    def test_refused_allocation_is_a_capacity_error(self, tmp_path, capsys, argv):
        code = run_cli(*argv, "--out", str(tmp_path / "x"))
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("capacity error: Unable to allocate")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

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


README = Path(__file__).resolve().parents[1] / "README.md"


class TestReadme:
    def test_example_lines_parse(self):
        lines = [line.strip() for line in README.read_text().splitlines()
                 if line.strip().startswith("riplab ")]
        assert lines
        parser = cli.build_parser()
        for line in lines:
            parser.parse_args(shlex.split(line)[1:])

    def test_command_table_lists_every_command(self):
        blocks = re.findall(r"^```(\w*)\n(.*?)^```", README.read_text(), flags=re.M | re.S)
        tables = [body for lang, body in blocks if not lang]
        assert len(tables) == 1
        assert [line.split()[0] for line in tables[0].splitlines()] == list(cli.SCHEMAS)
