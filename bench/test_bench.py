"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402


def test_self_times_subtract_nested_children():
    spans = [
        tracer.Span("cli.main", None, 0.0, 10.0),
        tracer.Span("sequences.a", 0, 1.0, 4.0),
        tracer.Span("linalg.b", 1, 2.0, 3.0),
        tracer.Span("sequences.c", 0, 5.0, 9.0),
        tracer.Span("cli.main", None, 20.0, 21.0),
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])
    summary = tracer.summarize(spans)
    assert summary.root_s == pytest.approx(11.0)
    assert sum(summary.layer_self_s.values()) == pytest.approx(summary.root_s)
    assert summary.calls == {"cli.main": 2, "sequences.a": 1, "linalg.b": 1, "sequences.c": 1}
    assert summary.layer_self_s["sequences"] == pytest.approx(6.0)


def test_self_times_count_overlapping_children_once():
    spans = [
        tracer.Span("cli.main", None, 0.0, 10.0),
        tracer.Span("linalg.a", 0, 1.0, 5.0),
        tracer.Span("linalg.b", 0, 3.0, 7.0),
        tracer.Span("linalg.c", 0, 9.0, 12.0),  # runs past its parent's end
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_patched_reaches_every_binding_and_restores_it():
    import spinsearch
    import spinsearch.cli as cli
    import spinsearch.sequences as sequences
    from spinsearch.oracle import MarkedState

    original = sequences.grover_propagator
    original_cmd = cli.COMMANDS["grover-scan"]
    t = tracer.Tracer()
    with tracer.patched(t):
        wrapped = sequences.grover_propagator
        assert wrapped is not original and wrapped.traced_original is original
        assert cli.grover_propagator is wrapped and spinsearch.grover_propagator is wrapped
        assert cli.COMMANDS["grover-scan"].traced_original is original_cmd
        cli.grover_propagator(MarkedState(s=1, n=2), m=3)
    assert sequences.grover_propagator is original
    assert cli.grover_propagator is original and spinsearch.grover_propagator is original
    assert cli.COMMANDS["grover-scan"] is original_cmd

    names = [s.name for s in t.spans]
    assert names[0] == "sequences.grover_propagator"
    # calls made inside the module go through the patched globals too
    assert "sequences.projector_x_basis" in names and "linalg.expm_unitary" in names
    assert all(s.parent is not None for s in t.spans[1:])
    assert t.spans[0].counts == {"steps": 3}
    summary = tracer.summarize(t.spans)
    assert summary.counts["linalg.expm_unitary"]["dense_dim3"] == 4**3
    assert sum(summary.layer_self_s.values()) == pytest.approx(summary.root_s)


def test_layer_metrics_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = {name: unit for name, unit, _ in tracer.LAYER_METRICS}
    emitted.update({"trace.traced_s": "s", "trace.overhead_s": "s"})
    assert declared == emitted
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_config_generator_is_deterministic(workload):
    first = workloads.generate_configs(workload, 11)
    assert first == workloads.generate_configs(workload, 11)
    for cfg in first.values():
        assert all(0.5 <= e <= 1.5 for e in cfg["epsilons"])
        assert 0 <= cfg["s"] < 2 ** cfg.get("n", min(cfg.get("n_values", [0])))
    if first:
        assert first != workloads.generate_configs(workload, 12)


def test_scan_covers_147_rows():
    configs = workloads.generate_configs("scan", 0).values()
    assert sum(workloads.scan_rows(c["n_values"][0]) for c in configs) == workloads.SCAN_ROWS


def test_scan_check_rejects_an_empty_scan(tmp_path):
    cfg = workloads.generate_configs("scan", 0)["scan_n6"]
    (tmp_path / "grover_scan.csv").write_text("n,N,m,residual\n")
    assert workloads._scan_check(cfg)(tmp_path)
    rows = [f"6,64,{m},{1e-3 if m == 5 else 1e-15}" for m in range(workloads.scan_rows(6))]
    (tmp_path / "grover_scan.csv").write_text("n,N,m,residual\n" + "\n".join(rows) + "\n")
    assert workloads._scan_check(cfg)(tmp_path) == ["1 scan rows with residual > 1e-09"]


def test_output_digest_ignores_only_duration(tmp_path):
    report = {"command": "search", "duration_s": 1.0, "max_residual": 0.0}
    (tmp_path / "report.json").write_text(json.dumps(report))
    (tmp_path / "search.csv").write_text("a\n1\n")
    first = workloads.output_digest(tmp_path)
    (tmp_path / "report.json").write_text(json.dumps({**report, "duration_s": math.pi}))
    assert workloads.output_digest(tmp_path) == first
    (tmp_path / "search.csv").write_text("a\n2\n")
    assert workloads.output_digest(tmp_path) != first
