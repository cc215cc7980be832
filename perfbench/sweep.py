"""Run request lists in-process through ``riplab.cli.main`` and check the outputs.

A request fails when ``main`` raises or returns non-zero, or when one of the
output checks below finds a problem. None of the checks is statistical:

- every request writes at least one output, JSON outputs parse, and every
  number in a JSON or CSV output is finite;
- ``isotropy`` defects are at most 1e-10 (exact group averages);
- ``bump-check`` reports ``all_pass``;
- ``rip-exact`` values equal an independent batched numpy enumeration of all
  supports to 1e-9 (only when ``exact=True``; the caller keeps it untimed);
- repeated passes write byte-identical outputs (``reference=``).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from riplab import cli
from riplab.group_ops import gaussian_ensemble, sample_ensemble
from riplab.instruments import make_decaying_window
from riplab.numerics import SeededRng

ISOTROPY_TOL = 1e-10
RIP_EXACT_TOL = 1e-9


@dataclass
class Outcome:
    """What one request returned and wrote, and what is wrong with it."""

    name: str
    code: int | None
    outputs: dict = field(default_factory=dict)  # suffix -> bytes
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    def digest(self) -> str:
        h = hashlib.sha256()
        for suffix in sorted(self.outputs):
            h.update(suffix.encode() + b"\0" + self.outputs[suffix] + b"\0")
        return h.hexdigest()


def run_pass(requests, work_dir: Path, on_request=None) -> tuple:
    """Run every request once, in order; return (outcomes, wall_s, cpu_s).

    Only the requests themselves are timed: outputs are read back and
    checked by the caller after the clock stops. ``on_request(name)`` is
    called before each request (the tracer uses it to tag spans).
    """
    work_dir.mkdir(parents=True, exist_ok=True)
    codes = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for req in requests:
        if on_request is not None:
            on_request(req.name)
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main([*req.argv, "--out", str(work_dir / req.name)])
            codes.append((code, sink.getvalue()))
        except SystemExit as exc:  # argparse rejects bad usage by exiting
            codes.append((exc.code, sink.getvalue()))
        except Exception as exc:  # a crashing request is a counted failure
            codes.append((None, f"{type(exc).__name__}: {exc}"))
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    outcomes = []
    for req, (code, text) in zip(requests, codes):
        out = Outcome(req.name, code)
        if code != 0:
            out.problems.append(f"exit {code}: {text.strip()[-300:]}")
        for suffix in (".json", ".csv"):
            path = work_dir / f"{req.name}{suffix}"
            if path.exists():
                out.outputs[suffix] = path.read_bytes()
        outcomes.append(out)
    shutil.rmtree(work_dir)
    return outcomes, wall, cpu


def check(requests, outcomes, reference=None, exact=False) -> None:
    """Append every problem found to each outcome's ``problems``."""
    for i, (req, out) in enumerate(zip(requests, outcomes)):
        if out.code != 0:
            continue
        out.problems.extend(output_problems(req, out.outputs))
        if reference is not None and out.outputs != reference[i].outputs:
            out.problems.append("outputs differ from the warm-up pass")
        if exact and req.command == "rip-exact" and ".json" in out.outputs:
            reported = json.loads(out.outputs[".json"])["result"]["delta_hat"]
            expected = rip_exact_reference(req.argv)
            if not abs(reported - expected) <= RIP_EXACT_TOL:
                out.problems.append(f"rip-exact {reported!r} != recomputed {expected!r}")


def output_problems(req, outputs: dict) -> list:
    if not outputs:
        return ["no output written"]
    problems = []
    doc = None
    if ".json" in outputs:
        try:
            doc = json.loads(outputs[".json"])
        except ValueError as exc:
            return [f"unparsable JSON: {exc}"]
        if not all(math.isfinite(v) for v in _numbers(doc)):
            problems.append("non-finite number in JSON output")
    if ".csv" in outputs:
        lines = [ln for ln in outputs[".csv"].decode().splitlines() if not ln.startswith("#")]
        cells = [c for row in itertools.islice(csv.reader(lines), 1, None) for c in row]
        if len(lines) < 2:
            problems.append("CSV output has no rows")
        if not all(math.isfinite(v) for v in map(_as_float, cells) if v is not None):
            problems.append("non-finite number in CSV output")
    if doc is None:
        return problems
    result = doc.get("result", {})
    if req.command == "isotropy" and not result.get("defect", math.inf) <= ISOTROPY_TOL:
        problems.append(f"isotropy defect {result.get('defect')!r} exceeds {ISOTROPY_TOL}")
    if req.command == "bump-check" and result.get("all_pass") is not True:
        problems.append("bump-check does not report all_pass")
    return problems


def _numbers(node):
    if isinstance(node, bool):
        return
    if isinstance(node, (int, float)):
        yield float(node)
    elif isinstance(node, dict):
        for value in node.values():
            yield from _numbers(value)
    elif isinstance(node, list):
        for value in node:
            yield from _numbers(value)


def _as_float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def rip_exact_reference(argv) -> float:
    """Exact RIP constant of the request's ensemble, recomputed independently.

    The ensemble is rebuilt from the library's public constructors with the
    request's seed; the constant comes from one batched ``eigvalsh`` per chunk
    of supports instead of the library's per-support loop.
    """
    p = dict(zip(argv[1::2], argv[2::2]))
    n, m, k = int(p["--N"]), int(p["--m"]), int(p["--k"])
    rng = SeededRng(int(p["--seed"]))
    if p.get("--ensemble") == "gaussian":
        ens = gaussian_ensemble(n, m, rng)
    elif p.get("--eta") == "decaying" and p.get("--sign", "none") == "none":
        inst = make_decaying_window(n, int(p["--Neta"]), float(p["--alpha"]))
        ens = sample_ensemble(inst, p.get("--ensemble", "shiftmod"), m, "none", rng)
    else:
        raise ValueError(f"no reference for rip-exact {' '.join(argv)}")
    a = ens.effective_operator()
    gram = a.conj().T @ a
    supports = np.array(list(itertools.combinations(range(n), k)))
    worst = 0.0
    for chunk in np.array_split(supports, max(1, len(supports) // 8192)):
        sub = gram[chunk[:, :, None], chunk[:, None, :]] - np.eye(k)
        worst = max(worst, float(np.abs(np.linalg.eigvalsh(sub)).max()))
    return worst
