"""Outside-in per-layer tracing of riplab.

``Tracer.install()`` replaces every public function bound as a module
attribute of the riplab layers (from-imports included, so
``riplab.cli.empirical_rip`` is wrapped as well as ``riplab.rip.empirical_rip``),
plus ``SeededRng.__init__`` and the ``numpy.linalg`` entry points the library
calls, with a wrapper that records a span. ``uninstall()`` puts every original
object back. Spans stay in memory until ``write()``.

A span is named ``<layer>.<function>`` after the module that defines the
function; ``empirical_rip`` spans are tagged by model, as in
``rip.empirical_rip.lqcap``. A span's self time is its duration minus the part
of it that its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

LAYERS = ("numerics", "instruments", "group_ops", "sparsity", "rip", "infdim", "cli")
LINALG = ("eigvalsh", "svd")

# Functions reported as <name>.calls / .self_s / .errors by every traced run.
REPORTED = (
    "numerics.SeededRng", "numerics.operator_norm",
    "group_ops.apply_group_adjoint", "group_ops.rosenthal_deviation",
    "group_ops.isotropy_defect", "group_ops.sample_ensemble", "group_ops.apply_group",
    "group_ops.sample_group_element", "group_ops.gaussian_ensemble",
    "sparsity.project_witness", "sparsity.sample_sparse",
    "rip.exact_rip_canonical", "rip.empirical_rip.canonical", "rip.empirical_rip.lqcap",
    "infdim.block_measure", "infdim.from_bumps", "infdim.rip_experiment",
    "infdim.values_on_grid",
    "cli.resolve_config", "cli.validate", "cli.write_outputs",
    "linalg.eigvalsh", "linalg.svd",
)
STATS = (("calls", "count"), ("self_s", "s"), ("errors", "count"))

# Metrics that are not per-function stats: name -> unit.
DERIVED = {
    **{f"{layer}.self_s": "s" for layer in LAYERS + ("linalg",)},
    "sparsity.witness_support_size.calls": "count",
    "rip.supports_evaluated": "count",
    "rip.us_per_support": "us",
    "rip.ascent.projections_per_trial": "count",
    "rip.calibrate_mrip_distortion.total_s": "s",
    "infdim.draws_per_trial": "count",
    "cli.main.self_s": "s",
    "cli.golden_mismatches": "count",
    "trace.overhead_s": "s",
}


def metric_units() -> dict:
    """Name -> unit of every per-layer metric a traced run reports."""
    units = {f"{fn}.{stat}": unit for fn in REPORTED for stat, unit in STATS}
    units.update(DERIVED)
    return units


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    request: str | None
    error: bool = False
    details: dict | None = None  # RipReport.details of the returned report


def targets():
    """(owner, attribute, original) for every object the tracer wraps."""
    from riplab.numerics import SeededRng

    found = []
    for layer in LAYERS:
        module = importlib.import_module(f"riplab.{layer}")
        for attr, value in sorted(vars(module).items()):
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__.startswith("riplab.")):
                found.append((module, attr, value))
    found.append((SeededRng, "__init__", vars(SeededRng)["__init__"]))
    found.extend((np.linalg, name, getattr(np.linalg, name)) for name in LINALG)
    return found


def _span_name(owner, attr, original) -> str:
    if owner is np.linalg:
        return f"linalg.{attr}"
    layer = original.__module__.rsplit(".", 1)[-1]
    return f"{layer}.{original.__qualname__.replace('.__init__', '')}"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.request: str | None = None
        self._stack: list = []
        self._installed: list = []

    def set_request(self, name: str) -> None:
        self.request = name

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        for owner, attr, original in targets():
            setattr(owner, attr, self._wrap(original, _span_name(owner, attr, original)))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tag_model = name == "rip.empirical_rip"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name
            if tag_model:
                model = args[1] if len(args) > 1 else kwargs.get("model")
                label = f"{name}.{type(model).__name__.lower()}"
            span = Span(label, clock(), 0.0, stack[-1] if stack else -1, self.request)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = clock()
                stack.pop()
            details = getattr(result, "details", None)
            if isinstance(details, dict):
                span.details = details
            return result

        return traced

    def write(self, path) -> None:
        """Write the spans as gzip-compressed tab-separated lines."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tstart\tend\tparent\trequest\terror\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s.name}\t{s.start!r}\t{s.end!r}\t{s.parent}\t"
                         f"{s.request}\t{int(s.error)}\n")


def self_times(spans) -> list:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((s.end - s.start) - covered)
    return out


def layer_shares(spans, key) -> dict:
    """Share of self time per layer, for each group ``key(span)`` of spans."""
    totals = defaultdict(lambda: defaultdict(float))
    for s, t in zip(spans, self_times(spans)):
        totals[key(s)][s.name.split(".", 1)[0]] += t
    return {group: {layer: t / (sum(layers.values()) or 1.0) for layer, t in
                    sorted(layers.items(), key=lambda kv: -kv[1])}
            for group, layers in totals.items()}


def _under(spans, i: int, prefix: str) -> int:
    """Index of the nearest ancestor of span i named with ``prefix``, or -1."""
    j = spans[i].parent
    while j >= 0 and not spans[j].name.startswith(prefix):
        j = spans[j].parent
    return j


def layer_metrics(spans, golden_mismatches: int, overhead_s: float) -> dict:
    """Every per-layer metric of ``metric_units()`` from one traced pass."""
    own = self_times(spans)
    calls, self_s, errors, total_s = (defaultdict(int), defaultdict(float),
                                      defaultdict(int), defaultdict(float))
    for s, t in zip(spans, own):
        calls[s.name] += 1
        self_s[s.name] += t
        errors[s.name] += s.error
        total_s[s.name] += s.end - s.start
        self_s[s.name.split(".", 1)[0] + ".self_s"] += t
    values = {}
    for fn in REPORTED:
        values[f"{fn}.calls"] = calls[fn]
        values[f"{fn}.self_s"] = self_s[fn]
        values[f"{fn}.errors"] = errors[fn]
    for layer in LAYERS + ("linalg",):
        values[f"{layer}.self_s"] = self_s[f"{layer}.self_s"]

    kernel = ("rip.exact_rip_canonical", "rip.empirical_rip.canonical")
    supports = sum(s.details.get("supports", s.details.get("trials", 0))
                   for s in spans if s.name in kernel and s.details)
    ascent = {i for i, s in enumerate(spans)
              if s.name.startswith("rip.empirical_rip.") and s.name not in kernel}
    ascent_trials = sum(spans[i].details["trials"] for i in ascent if spans[i].details)
    projections = sum(1 for i, s in enumerate(spans) if s.name == "sparsity.project_witness"
                      and _under(spans, i, "rip.empirical_rip.") in ascent)
    experiments = [s for s in spans if s.name == "infdim.rip_experiment"]
    draws = sum(1 for i, s in enumerate(spans) if s.name == "infdim.from_bumps"
                and _under(spans, i, "infdim.rip_experiment") >= 0)
    experiment_trials = sum(s.details["trials"] for s in experiments if s.details)

    values.update({
        "sparsity.witness_support_size.calls": calls["sparsity.witness_support_size"],
        "rip.supports_evaluated": supports,
        "rip.us_per_support": 1e6 * sum(total_s[n] for n in kernel) / supports if supports else 0.0,
        "rip.ascent.projections_per_trial": projections / ascent_trials if ascent_trials else 0.0,
        "rip.calibrate_mrip_distortion.total_s": total_s["rip.calibrate_mrip_distortion"],
        "infdim.draws_per_trial": draws / experiment_trials if experiment_trials else 0.0,
        "cli.main.self_s": self_s["cli.main"],
        "cli.golden_mismatches": golden_mismatches,
        "trace.overhead_s": overhead_s,
    })
    return values
