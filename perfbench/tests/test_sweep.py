import subprocess
import shutil
import sys

import pytest

import run
import sweep
import workloads
from workloads import Request

GOOD = Request("table1", ("table1", "--s", "2", "--n", "3", "--d", "4"))
BAD_CONFIG = Request("rip-exact-k0", ("rip-exact", "--N", "8", "--k", "0", "--m", "4"))
BAD_USAGE = Request("no-such-flag", ("table1", "--bogus", "1"))


def test_failures_are_counted_per_request_and_pass(tmp_path):
    bench = run.Bench("ascent-and-orbits", 0, tmp_path)
    first, _, _ = bench.run([GOOD, BAD_CONFIG, BAD_USAGE])
    assert [o.code for o in first] == [0, 2, 2]
    assert (bench.attempted, bench.failed) == (3, 2)

    changed = [sweep.Outcome(o.name, o.code, {".json": b"{}"}) for o in first]
    bench.run([GOOD], reference=changed)
    assert (bench.attempted, bench.failed) == (4, 3)
    assert any("differ from the warm-up" in p[0] for p in bench.problems.values())


def test_output_checks_flag_bad_values():
    iso = Request("iso", ("isotropy",))
    bump = Request("bump", ("bump-check",))
    assert sweep.output_problems(GOOD, {}) == ["no output written"]
    assert sweep.output_problems(iso, {".json": b'{"result": {"defect": 1e-15}}'}) == []
    assert sweep.output_problems(iso, {".json": b'{"result": {"defect": 1e-9}}'})
    assert sweep.output_problems(bump, {".json": b'{"result": {"all_pass": false}}'})
    assert sweep.output_problems(GOOD, {".json": b'{"result": {"x": NaN}}'})
    assert sweep.output_problems(GOOD, {".csv": b"# c=1\nm,v\n1,inf\n"})
    assert sweep.output_problems(GOOD, {".csv": b"# c=1\nm,v\n1,0.5\n"}) == []


def test_rip_exact_reference_matches_library(tmp_path):
    req = workloads.requests("supports-and-functions", 3, smoke=True)[0]
    outcomes, _, _ = sweep.run_pass([req], tmp_path / "pass")
    sweep.check([req], outcomes, exact=True)
    assert outcomes[0].problems == []
    assert sweep.rip_exact_reference(req.argv) > 0


def test_no_result_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ascent-and-orbits",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_of_each_workload(workload, tmp_path):
    bench = run.Bench(workload, 5, tmp_path)
    reqs = workloads.requests(workload, 5, smoke=True)
    warm, _, _ = bench.run(reqs, exact=True)
    bench.run(reqs, reference=warm)
    assert bench.problems == {}
    assert bench.attempted == 2 * len(reqs)
