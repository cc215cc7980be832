import json

import numpy as np
import pytest

import run
import sweep
import tracer
import workloads
from tracer import Span


def _span(name, start, end, parent=-1, details=None):
    return Span(name, start, end, parent, "req", details=details)


def test_self_time_subtracts_nested_children():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("rip.exact_rip_canonical", 1.0, 4.0, parent=0),
        _span("linalg.eigvalsh", 2.0, 3.0, parent=1),
        _span("group_ops.sample_ensemble", 5.0, 6.0, parent=0),
    ]
    assert tracer.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    spans = [
        _span("a.f", 0.0, 10.0),
        _span("a.g", 1.0, 5.0, parent=0),
        _span("a.h", 3.0, 7.0, parent=0),
        _span("a.k", 9.0, 12.0, parent=0),
    ]
    # Children cover [1, 7] and [9, 10] of the parent: 7 of its 10 seconds.
    assert tracer.self_times(spans)[0] == pytest.approx(3.0)


def test_layer_shares_group_self_time():
    spans = [
        _span("cli.main", 0.0, 4.0),
        _span("rip.exact_rip_canonical", 1.0, 4.0, parent=0),
        _span("linalg.eigvalsh", 2.0, 3.0, parent=1),
    ]
    shares = tracer.layer_shares(spans, lambda s: s.request)
    assert shares == {"req": pytest.approx({"rip": 0.5, "cli": 0.25, "linalg": 0.25})}


def test_layer_metrics_ratios_from_synthetic_spans():
    spans = [
        _span("rip.exact_rip_canonical", 0.0, 2.0, details={"supports": 10}),
        _span("rip.empirical_rip.canonical", 2.0, 3.0, details={"trials": 10}),
        _span("rip.empirical_rip.lqcap", 3.0, 5.0, details={"trials": 2}),
        *[_span("sparsity.project_witness", 3.1 + 0.1 * i, 3.15 + 0.1 * i, parent=2)
          for i in range(4)],
        _span("infdim.rip_experiment", 5.0, 6.0, details={"trials": 3}),
        *[_span("infdim.from_bumps", 5.1 + 0.1 * i, 5.15 + 0.1 * i, parent=7)
          for i in range(6)],
        _span("infdim.from_bumps", 7.0, 7.5),  # outside any experiment: not a draw
    ]
    values = tracer.layer_metrics(spans, golden_mismatches=1, overhead_s=0.25)
    assert values["rip.supports_evaluated"] == 20
    assert values["rip.us_per_support"] == pytest.approx(1e6 * 3.0 / 20)
    assert values["rip.ascent.projections_per_trial"] == 2.0
    assert values["infdim.draws_per_trial"] == 2.0
    assert values["infdim.from_bumps.calls"] == 7
    assert values["rip.empirical_rip.lqcap.self_s"] == pytest.approx(2.0 - 4 * 0.05)
    assert values["cli.golden_mismatches"] == 1
    assert values["trace.overhead_s"] == 0.25
    assert set(values) == set(tracer.metric_units())


def test_traced_pass_restores_every_wrapped_object(tmp_path):
    originals = tracer.targets()
    assert any(owner.__name__ == "riplab.cli" and attr == "empirical_rip"
               for owner, attr, _ in originals if hasattr(owner, "__name__"))
    trace = tracer.Tracer()
    trace.install()
    try:
        assert np.linalg.eigvalsh is not dict(
            (attr, fn) for owner, attr, fn in originals if owner is np.linalg)["eigvalsh"]
        reqs = workloads.requests("supports-and-functions", 0, smoke=True)[:1]
        outcomes, _, _ = sweep.run_pass(reqs, tmp_path / "pass", trace.set_request)
    finally:
        trace.uninstall()
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{owner}.{attr} not restored"
    assert not outcomes[0].failed
    names = {s.name for s in trace.spans}
    assert {"cli.main", "rip.exact_rip_canonical", "linalg.eigvalsh",
            "numerics.SeededRng"} <= names
    assert all(s.request == reqs[0].name for s in trace.spans)


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert set(bounds) == {"setup_s", "sweep_s", "cpu_s", "peak_rss_mb"}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
