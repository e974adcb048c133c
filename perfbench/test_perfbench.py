"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They pin the work counters the traced run reports against the baseline
counts, check that counters repeat exactly, that pool items keep their
parent span, that output checks reject wrong outputs, and that the
command's result lines follow BENCHMARK.json.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import threading
from contextlib import redirect_stdout

import pytest

import run
from checks import compare
from tracing import ITEM_SPAN, MAP_SPAN, ROOT_SPAN, Tracer
from workloads import POOLS, WORKLOADS

saddleflow = run.load_saddleflow()
REFS = run.load_references()
LOGISTIC_7 = ["--problem", "logistic", "--n", "10", "--m", "8", "--seed", "7"]


def traced_call(argv, out_dir):
    tracer = Tracer()
    with tracer.installed(), redirect_stdout(io.StringIO()):
        rc = tracer.run_cli([*argv, "--out", str(out_dir)])
    return rc, tracer


def test_baseline_counts(tmp_path):
    rc, tracer = traced_call(
        ["simulate", "--problem", "eq-qp", "--seed", "42", "--horizon", "5"], tmp_path)
    assert rc == 0
    metrics = tracer.layer_metrics()
    assert metrics["integrator.steps"][0] == 163_840
    assert metrics["fileio.rows"][0] == 163_841

    rc, tracer = traced_call(["kkt-check", *LOGISTIC_7], tmp_path)
    assert rc == 0
    assert tracer.layer_metrics()["equilibrium.steps"][0] == 79_100

    rc, tracer = traced_call(["certify", *LOGISTIC_7], tmp_path)
    assert rc in (0, 1)
    assert tracer.layer_metrics()["certificates.lmi_checks"][0] == 25_600


@pytest.mark.parametrize("name,counter,per_problem", [
    ("linear-simulate", "integrator.steps", 163_840),
    ("logistic-kkt-certify", "certificates.lmi_checks", 25_600),
])
def test_counters_repeat_across_traced_runs(name, counter, per_problem, tmp_path):
    def counters():
        client, metrics, _, _ = run.run_traced(
            saddleflow, WORKLOADS[name], 5, 0.0, REFS, tmp_path, problems=1)
        assert client.failures == []
        return {k: v for k, (v, unit) in metrics.items() if unit in ("count", "bytes")}

    first, second = counters(), counters()
    assert first == second
    assert first[counter] == per_problem


def test_pool_items_keep_parent_and_thread(tmp_path):
    rc, tracer = traced_call(
        ["spectrum", "--problem", "eq-qp", "--seed", "1", "--eta-grid", "0.01:100:64:log"],
        tmp_path)
    assert rc == 0
    spans = tracer.spans()
    (root,) = [s for s in spans if s["name"] == ROOT_SPAN]
    (pool,) = [s for s in spans if s["name"] == MAP_SPAN]
    items = [s for s in spans if s["name"] == ITEM_SPAN]
    assert len(items) == 64
    assert all(s["parent_id"] == pool["span_id"] for s in items)
    assert all(s["call_id"] == root["call_id"] == pool["call_id"] for s in items)
    assert all(pool["start"] <= s["start"] and s["end"] <= pool["end"] for s in items)
    if tracer.layer_metrics()["parallel.workers"][0] > 1:
        assert {s["thread_id"] for s in items} - {threading.get_ident()}
    assert pool["self_s"] >= 0.0


def test_self_times_partition_a_serial_call(tmp_path):
    rc, tracer = traced_call(
        ["kkt-check", "--problem", "logistic", "--n", "10", "--m", "8", "--seed", "3"],
        tmp_path)
    assert rc == 0
    spans = tracer.spans()
    (root,) = [s for s in spans if s["name"] == ROOT_SPAN]
    total_self = (sum(s["self_s"] for s in spans)
                  + sum(own for _, _, own in tracer.leaves().values()))
    assert total_self == pytest.approx(root["end"] - root["start"], rel=1e-9)


def test_references_cover_every_pool_problem():
    for workload in WORKLOADS.values():
        for call in workload.calls:
            assert set(REFS[call.command]) == {str(s) for s in POOLS[workload.family]}


def test_checks_reject_wrong_outputs():
    def ref(command):
        (family,) = [w.family for w in WORKLOADS.values()
                     for call in w.calls if call.command == command]
        return REFS[command][str(POOLS[family][0])]

    sim = ref("simulate")
    assert compare("simulate", dict(sim, rc=0), sim) == []
    assert compare("simulate", dict(sim, rows=sim["rows"] + 1), sim)
    assert compare("simulate", dict(sim, decay_ok=False), sim)
    assert compare("simulate", dict(sim, rc=2), sim)

    kkt = ref("kkt-check")
    assert compare("kkt-check", kkt, kkt) == []
    assert compare("kkt-check", dict(kkt, total=2 * kkt["tol"]), kkt)
    assert compare("kkt-check", dict(kkt, active_set=kkt["active_set"] + [99]), kkt)

    cert = ref("certify")
    assert compare("certify", dict(cert, rc=1), cert) == []
    assert compare("certify", dict(cert, c=cert["c"] * (1 + 1e-11)), cert)
    assert compare("certify", dict(cert, tau=cert["tau"] * (1 - 1e-11)), cert)
    shifted = cert["min_margin"] + 2e-8 * cert["lambda_max_p"]
    assert compare("certify", dict(cert, min_margin=shifted), cert)

    spec = ref("spectrum")
    rates = list(spec["spectral_rate"])
    rates[5] *= 1 + 2e-9
    assert compare("spectrum", dict(spec, spectral_rate=rates), spec)

    sweep = ref("sweep-eta")
    measured = list(sweep["measured_rate"])
    measured[-1] *= 1 + 2e-6
    assert compare("sweep-eta", dict(sweep, measured_rate=measured), sweep)
    assert compare("sweep-eta", dict(sweep, eta=sweep["eta"][:-1]), sweep)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_follows_benchmark_json(trace, section):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", "linear-simulate",
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in spec[section]} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert set(spec["paths"]) == {run.BENCH_DIR.name}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH_DIR, tmp_path / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "linear-simulate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
