"""Tests of the benchmark itself: inputs, op coverage, oracle, tracer, output.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""
import dataclasses
import json
import shutil
import subprocess
import sys

import meanosc
import pytest

import oracle
import run
import tracing
import workloads

ROOT = run.ROOT


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    build = workloads.WORKLOADS[name]
    specs = [op.spec for op in build(meanosc, 3).ops]
    assert specs == [op.spec for op in build(meanosc, 3).ops]
    assert specs != [op.spec for op in build(meanosc, 4).ops]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_exercises_each_op_kind(name):
    wl = workloads.WORKLOADS[name](meanosc, 5)
    assert {op.kind for op in wl.ops} == set(wl.kinds)
    first = wl.ops[: workloads.KIND_SPAN]
    assert {op.kind for op in first} == set(wl.kinds)
    seen = set()
    for op in first:
        if op.kind not in seen:
            op.check(op.run())
            seen.add(op.kind)


def _first(name, kind_prefix):
    wl = workloads.WORKLOADS[name](meanosc, 7)
    return next(op for op in wl.ops if op.kind.startswith(kind_prefix))


def test_oracle_rejects_corrupted_search_report():
    op = _first("flat_small", "bmo_norm/flat/p=2")
    report = op.run()
    op.check(report)
    w = report.witness
    corrupted = [
        dataclasses.replace(report, lower=report.lower * 1.01),
        dataclasses.replace(report, upper=report.lower * 0.5),
        dataclasses.replace(report, witness=type(w)(w.left, w.left + 0.5 * w.length)),
    ]
    for bad in corrupted:
        with pytest.raises(oracle.OracleError):
            op.check(bad)


def test_oracle_rejects_corrupted_dag_report():
    op = _first("dag_search", "circle_bmo_norm/random_dag")
    report = op.run()
    op.check(report)
    with pytest.raises(oracle.OracleError):
        op.check(dataclasses.replace(report, lower=report.lower * 0.99))


def test_oracle_rejects_missed_anchor():
    name, call, expected, tol = oracle.anchors(meanosc)[0]
    report = call()
    oracle.check_anchor(report, expected, tol)
    with pytest.raises(oracle.OracleError):
        oracle.check_anchor(report, expected + 10 * tol, tol)


def _snapshot(targets):
    return [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in targets]


def test_tracer_restores_library():
    targets = tracing.wrap_targets(meanosc)
    before = _snapshot(targets)
    tracer = tracing.Tracer(targets)
    tracer.op_id = tracing.SETUP
    with tracer:
        wl = workloads.dag_search(meanosc, 1)
    assert all(vars(owner)[attr] is original for owner, attr, original in before)
    with pytest.raises(ZeroDivisionError):
        with tracer:
            for i, op in enumerate(wl.ops[:2]):
                tracer.op_id = i
                op.run()
            1 / 0
    assert all(vars(owner)[attr] is original for owner, attr, original in before)

    spans = tracer.spans
    assert {s.op_id for s in spans} == {tracing.SETUP, *range(2)}
    by_id = {s.span_id: s for s in spans}
    for s in spans:
        assert 0.0 <= s.self_dur <= s.dur + 1e-12
        if s.parent_id:
            parent = by_id[s.parent_id]
            assert parent.op_id == s.op_id and parent.start <= s.start
    # a DAG search queries the DAG: the query spans are its children
    assert any(by_id[s.parent_id].name == "search.circle_bmo_norm" for s in spans if s.name == "construct.query" and s.parent_id)
    metrics = tracing.layer_metrics(spans, 2, 1.0, 0.0)
    assert set(metrics) == {name for name, _ in tracing.LAYER_METRICS}
    assert metrics["martingales.validate_membership.ms"] > 0
    assert metrics["construct.query.calls_per_op"] > 0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.LAYER_METRICS


def _bench(cwd, *args):
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_last_line_is_the_result(trace):
    out = _bench(ROOT, "--workload", "flat_small", "--seed", "2", "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = run.END_TO_END if trace == "0" else tracing.LAYER_METRICS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(names)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _bench(tmp_path, "--workload", "flat_small", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
