"""Report snapshots: one small run of every command against tests/reports.json.

Each case runs through cli.main in-process, and every JSON value and CSV cell
it writes is compared with the committed snapshot.  Strings, ints and bools
must match exactly; floats to 1e-9 relative, with a 1e-12 absolute floor, so
BLAS builds that differ in the last bits still agree.  A change that moves a
report fails here until the snapshot is rewritten and the move explained:

    python tests/test_reports.py
"""

import csv
import json
import math
import re
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest  # noqa: E402

from riplab import cli  # noqa: E402

SNAPSHOT = Path(__file__).with_name("reports.json")
REL, ABS = 1e-9, 1e-12

# One small config per command, each with values away from 0 and from the
# closed-form corners (rip-exact at k = 1 reads 2.2e-16, for one).
CASES = {
    "sp-opt": ("sp-opt", "--eta", "decaying", "--N", "16", "--Neta", "4", "--alpha", "0.25",
               "--r", "2"),
    "isotropy": ("isotropy", "--eta", "schatten-decay", "--n", "2"),
    "rip-exact": ("rip-exact", "--ensemble", "gaussian", "--N", "8", "--k", "2", "--m", "6",
                  "--seed", "3"),
    "rip-scan": ("rip-scan", "--eta", "flat", "--N", "8", "--k", "2", "--m", "4,6",
                 "--trials", "10", "--seeds", "2"),
    "mrip": ("mrip", "--N", "8", "--m", "16", "--s", "2", "--delta", "0.3", "--trials", "3",
             "--ascent", "3"),
    "distance": ("distance", "--N", "8", "--m", "16", "--s", "2", "--pairs", "4",
                 "--trials", "3", "--ascent", "3"),
    "weakdiff": ("weakdiff", "--N", "16", "--m", "256", "--s", "2", "--pairs", "6",
                 "--trials", "3", "--ascent", "3"),
    "gordon": ("gordon", "--N", "8", "--k", "2", "--draws", "3", "--trials", "10"),
    "rosenthal": ("rosenthal", "--N", "8", "--d", "2", "--M", "4,16", "--trials", "3"),
    "table1": ("table1", "--s", "2", "--n", "3", "--d", "4"),
    "infdim-scan": ("infdim-scan", "--N", "16", "--L", "4", "--gamma", "0.0625",
                    "--m", "1,16", "--trials", "2"),
    "bump-check": ("bump-check", "--configs", "2"),
    "truncation": ("truncation", "--q", "2", "--s", "4", "--delta", "0.25", "--C2", "1"),
}


def run_case(name: str, out_dir: Path) -> dict:
    """The reports of one case: its argv, the parsed JSON document and the
    CSV as comment lines plus a table of cells, header first."""
    prefix = out_dir / name
    assert cli.main([*CASES[name], "--out", str(prefix)]) == 0
    reports = {"argv": list(CASES[name])}
    json_path, csv_path = prefix.with_suffix(".json"), prefix.with_suffix(".csv")
    if json_path.exists():
        reports["json"] = json.loads(json_path.read_text())
    if csv_path.exists():
        lines = csv_path.read_text().splitlines()
        reports["csv"] = {"comments": [ln for ln in lines if ln.startswith("#")],
                          "table": list(csv.reader(ln for ln in lines
                                                   if not ln.startswith("#")))}
    return reports


def _float_cell(cell: str):
    # A CSV cell read as a float, or None for integers, labels and blanks.
    if re.fullmatch(r"-?\d+", cell):
        return None
    try:
        return float(cell)
    except ValueError:
        return None


def _close(got: float, want: float) -> bool:
    return got == want or abs(got - want) <= max(REL * max(abs(got), abs(want)), ABS)


def differences(got, want, path: str = "") -> list:
    """Every place where ``got`` departs from ``want``, as readable lines."""
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [d for key in want for d in differences(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: {len(got)} entries != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in differences(g, w, f"{path}[{i}]")]
    if type(got) is float and type(want) is float:
        same = _close(got, want) or (math.isnan(got) and math.isnan(want))
    elif isinstance(got, str) and isinstance(want, str) and None not in (
            _float_cell(got), _float_cell(want)):
        same = _close(_float_cell(got), _float_cell(want))
    else:
        same = type(got) is type(want) and got == want
    return [] if same else [f"{path}: {got!r} != {want!r}"]


def test_every_command_has_a_case():
    assert sorted(CASES) == sorted(cli.SCHEMAS)
    assert sorted(json.loads(SNAPSHOT.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_snapshot(tmp_path, name):
    want = json.loads(SNAPSHOT.read_text())[name]
    assert differences(run_case(name, tmp_path), want, name) == []


def rewrite() -> None:
    with tempfile.TemporaryDirectory() as out_dir:
        reports = {name: run_case(name, Path(out_dir)) for name in sorted(CASES)}
    SNAPSHOT.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reports)} report snapshots to {SNAPSHOT}")


if __name__ == "__main__":
    rewrite()
