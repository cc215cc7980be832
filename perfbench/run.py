"""riplab benchmark: closed-loop CLI sweeps, output checks and per-layer tracing.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --write-golden

One client sends the workload's requests (see ``workloads.py``) through
``riplab.cli.main`` in this process, each after the previous one completed,
with no threads of its own; BLAS keeps its default threading. After one
untimed warm-up pass, whole passes repeat until ``--seconds`` have been
measured.

``--trace 0`` reports the end-to-end metrics (medians over the timed passes):
``setup_s`` (fresh interpreter until ``riplab.cli`` is imported and its parser
built, median of several starts), ``sweep_s`` (wall time of one pass),
``cpu_s`` (process CPU time of one pass, all threads) and ``peak_rss_mb``.
``--trace 1`` adds one traced pass after the untimed ones and reports the
per-layer metrics of ``tracer.py``, the tracing overhead (traced minus median
untraced pass) and the number of requests whose report no longer matches
the digest committed in ``golden.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Machine facts, the
failure rate and per-request problems go to the lines before it and to
``perfbench/out/``. Exit code 2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
GOLDEN_PATH = BENCH_DIR / "golden.json"
SETUP_STARTS = 7

_SETUP_CHILD = (
    "import sys, time\n"
    "sys.path.insert(0, 'src')\n"
    "import riplab.cli\n"
    "riplab.cli.build_parser()\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))\n"
)


def fail(message: str):
    print(f"benchmark: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_riplab():
    """Import riplab from this checkout's ``src``, or exit 2."""
    if not (SRC / "riplab" / "cli.py").is_file():
        fail(f"no riplab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import riplab

    if Path(riplab.__file__).resolve().parent != (SRC / "riplab").resolve():
        fail(f"imported riplab from {riplab.__file__}, not from {SRC}")


def measure_setup(starts: int) -> float:
    """Median wall time from spawning a fresh interpreter to a built parser."""
    times = []
    for _ in range(starts):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, "-c", _SETUP_CHILD], cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=60)
        times.append(float(done.stdout.split()[-1]) - t0)
    return statistics.median(times)


def machine_facts() -> dict:
    import numpy as np

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": None,
        "blas_version": None,
        "blas_threads": None,
        "git_commit": None,
        "source_sha256": hashlib.sha256(b"".join(
            p.read_bytes() for p in sorted((SRC / "riplab").glob("*.py")))).hexdigest(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        facts["cpu_model"] = models[0] if models else facts["cpu_model"]
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    facts["blas"], facts["blas_version"] = blas.get("name"), blas.get("version")
    facts["blas_threads"] = _blas_threads(np)
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        facts["git_commit"] = done.stdout.strip() or None
    return facts


def _blas_threads(np):
    """Thread count of numpy's bundled OpenBLAS, or the environment's setting."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    env = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return f"unknown (env {env})" if env else "unknown (library default)"


class Bench:
    """Runs one workload's passes and keeps count of attempts and failures."""

    def __init__(self, workload: str, seed: int, work_dir: Path):
        self.workload = workload
        self.requests = workloads.requests(workload, seed)
        self.work_dir = work_dir
        self.attempted = 0
        self.problems: dict = {}
        self._passes = 0

    def run(self, requests=None, reference=None, exact=False, on_request=None):
        import sweep

        requests = requests or self.requests
        self._passes += 1
        outcomes, wall, cpu = sweep.run_pass(requests, self.work_dir / f"pass{self._passes}",
                                             on_request)
        sweep.check(requests, outcomes, reference, exact)
        self.attempted += len(outcomes)
        for out in outcomes:
            if out.failed:
                self.problems.setdefault(f"pass{self._passes}:{out.name}", out.problems)
        return outcomes, wall, cpu

    def timed(self, seconds: float, reference) -> tuple:
        """Repeat untraced passes until about ``seconds`` of them are measured."""
        walls, cpus = [], []
        while not walls or sum(walls) + statistics.median(walls) / 2 < seconds:
            _, wall, cpu = self.run(reference=reference)
            walls.append(wall)
            cpus.append(cpu)
        return walls, cpus

    @property
    def failed(self) -> int:
        return len(self.problems)


def golden_mismatches(bench: Bench) -> int:
    """Requests of the golden seed whose report differs from golden.json."""
    golden = json.loads(GOLDEN_PATH.read_text()).get(bench.workload, {})
    outcomes, _, _ = bench.run(workloads.requests(bench.workload, workloads.GOLDEN_SEED))
    return sum(golden.get(out.name) != out.digest() for out in outcomes)


def write_golden() -> None:
    import sweep

    golden = {}
    for workload in workloads.WORKLOADS:
        reqs = workloads.requests(workload, workloads.GOLDEN_SEED)
        outcomes, _, _ = sweep.run_pass(reqs, OUT_DIR / f"golden-{os.getpid()}")
        sweep.check(reqs, outcomes, exact=True)
        bad = [o.name for o in outcomes if o.failed]
        if bad:
            fail(f"golden requests failed: {bad}")
        golden[workload] = {o.name: o.digest() for o in outcomes}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="record the golden digests of every workload and exit")
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS and not args.write_golden:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")

    wall_start = time.perf_counter()
    load_riplab()
    OUT_DIR.mkdir(exist_ok=True)
    if args.write_golden:
        write_golden()
        return 0
    setup_s = None if args.trace else measure_setup(SETUP_STARTS)
    bench = Bench(args.workload, args.seed, OUT_DIR / f"work-{os.getpid()}")
    trace = tracer.Tracer()
    try:
        warm, _, _ = bench.run(exact=True)
        walls, cpus = bench.timed(args.seconds, warm)
        if args.trace:
            trace.install()
            try:
                _, traced_s, _ = bench.run(reference=warm, on_request=trace.set_request)
            finally:
                trace.uninstall()
            mismatches = golden_mismatches(bench)
    finally:
        shutil.rmtree(bench.work_dir, ignore_errors=True)
    sweep_s = statistics.median(walls)
    lines = [f"timed passes: {len(walls)}; sweep_s each: {[round(w, 4) for w in walls]}"]

    if args.trace:
        values = tracer.layer_metrics(trace.spans, mismatches, traced_s - sweep_s)
        units = tracer.metric_units()
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        trace.write(OUT_DIR / f"spans-{args.workload}.tsv.gz")
        lines.append(f"traced pass {traced_s:.4f} s, {len(trace.spans)} spans")
        sweep_of = {name: sweep for sweep in workloads.WORKLOADS[args.workload]
                    for name, _ in workloads.SWEEPS[sweep](False)}
        for sweep, shares in tracer.layer_shares(trace.spans,
                                                 lambda s: sweep_of[s.request]).items():
            lines.append(f"self-time shares, {sweep} sweep: " +
                         ", ".join(f"{layer} {share:.1%}" for layer, share in shares.items()))
        lines.append(f"golden mismatches: {mismatches}")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "sweep_s": {"value": sweep_s, "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }

    failed_frac = bench.failed / bench.attempted
    lines.append(f"failed_frac: {failed_frac} (ratio; {bench.failed} of {bench.attempted} "
                 "requests)")
    for name, problems in bench.problems.items():
        lines.append(f"FAILED {name}: {'; '.join(problems)}")
    facts = machine_facts()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": facts, "sweep_s_passes": walls,
              "failed_frac": failed_frac, "problems": bench.problems, "metrics": metrics,
              "wall_s": time.perf_counter() - wall_start}
    (OUT_DIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    lines.append("machine: " + json.dumps(facts, sort_keys=True))
    if not args.trace:
        lines.extend(f"{name}: {m['value']:.6g} {m['unit']}" for name, m in metrics.items())
    print("\n".join(lines))
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
