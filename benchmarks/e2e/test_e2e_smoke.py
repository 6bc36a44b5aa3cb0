"""Smoke test of the benchmark itself.

Not collected by tier-1 (``testpaths`` is ``tests/``); run it with
``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.  It drives
``run.py`` the way a user and the driver do, at ``--smoke`` sizes.
"""

from __future__ import annotations

import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Per-layer metrics that must be non-zero on a workload: the layers it
# exists to exercise.  Every other declared metric may be 0 there.
EXERCISED = {
    "full_path": [
        "pcap.read_s", "netflow.assemble_s", "netflow.table_s",
        "core.analyze_s", "kronecker.kronfit_s", "core.pgpba_s",
        "core.pgsk_s", "core.veracity_s", "graph.pagerank_s",
        "engine.pgpba.tasks", "engine.pgsk.compute_s", "detect.offline_s",
        "serve.snapshot_build_s", "serve.cold_batch_s", "serve.edge.p50_ms",
    ],
    "ingest_heavy": [
        "pcap.read_s", "pcap.pkts", "pcap.mb", "netflow.assemble_s",
        "netflow.pkts_per_s", "netflow.flows", "layer.netflow.self_s",
    ],
    "generate_serial": [
        "core.pgpba_s", "core.pgsk_s", "core.pgpba_edges",
        "engine.pgpba.driver_overhead_s", "engine.pgsk.driver_overhead_s",
        "engine.pgpba.peak_persisted_mb", "kronecker.kronfit_s",
    ],
    "generate_pool": [
        "engine.pgpba.serialize_s", "engine.pgpba.ipc_wait_s",
        "engine.pgpba.payload_mb", "engine.pgsk.submit_s",
        "engine.open_s", "engine.close_s",
    ],
    "serve_detect": [
        "detect.offline_s", "detect.flows_per_s", "serve.snapshot_mb",
        "serve.cold_qps", "serve.warm_qps", "serve.cache_hit_ratio",
        "serve.node.p50_ms", "serve.path.p50_ms", "serve.subgraph.p50_ms",
    ],
    "stream_detect": [
        "stream.run_s", "stream.assembly_busy_s", "stream.graph_busy_s",
        "stream.sink_busy_s", "stream.bottleneck_busy_frac",
        "stream.windows", "stream.window_p50_ms", "detect.online_busy_s",
    ],
}


def _run(*args, env=None):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, env=env,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    path = tmp_path_factory.mktemp("e2e") / "smoke.json"
    proc = _run("--smoke", "--out", str(path))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(path.read_text())
    assert json.loads(proc.stdout) == doc
    return path, doc


def test_every_declared_metric_is_reported(smoke):
    _, doc = smoke
    assert list(doc["workloads"]) == WORKLOADS
    for name, entry in doc["workloads"].items():
        for kind in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in SPEC[kind]}
            assert set(entry[kind]) == set(declared), name
            for metric, got in entry[kind].items():
                assert got["unit"] == declared[metric], (name, metric)
                assert math.isfinite(got["value"]), (name, metric)
        for metric, got in entry["end_to_end"].items():
            assert got["value"] > 0, (name, metric)
        for metric in EXERCISED[name]:
            assert entry["per_layer"][metric]["value"] > 0, (name, metric)


def test_outputs_are_correct(smoke):
    _, doc = smoke
    for name, entry in doc["workloads"].items():
        assert all(entry["checks"].values()), (name, entry["checks"])
        assert entry["failed_frac"] == 0, name
        assert entry["attempted"] >= 1
    assert (
        doc["workloads"]["generate_pool"]["digest"]
        == doc["workloads"]["generate_serial"]["digest"]
    )


def test_layers_cover_the_traced_wall(smoke):
    _, doc = smoke
    for name, entry in doc["workloads"].items():
        assert entry["per_layer"]["layers_cover_frac"]["value"] >= 0.95, name


def test_document_records_host_and_claims_nothing(smoke):
    path, doc = smoke
    assert list(doc)[-1] == "claim" and doc["claim"] is None
    for fact in ("nproc", "loadavg_1min_start", "loadavg_1min_end", "python",
                 "numpy", "scipy", "platform", "git_commit"):
        assert fact in doc["host"]
    assert doc["workloads"]["generate_pool"]["notes"]["workers"] == 2
    assert "speedup" not in path.read_text()


def test_check_passes_on_itself_and_fails_on_a_slowdown(smoke, tmp_path):
    path, doc = smoke
    same = _run("--check", str(path), str(path))
    assert same.returncode == 0, same.stdout
    rows = [
        line for line in same.stdout.splitlines()
        if line.split(" ", 1)[0] in WORKLOADS
    ]
    assert len(rows) == len(WORKLOADS) * (len(SPEC["end_to_end"]) + 1)
    assert all(row.endswith(" ok") for row in rows), same.stdout

    bound = next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "wall_s"
    )
    factor = 1.0 + 2.0 * bound
    slower = copy.deepcopy(doc)
    wall = slower["workloads"]["full_path"]["end_to_end"]["wall_s"]
    wall["value"] *= factor
    wall["samples"] = [s * factor for s in wall["samples"]]
    slow_path = tmp_path / "slower.json"
    slow_path.write_text(json.dumps(slower))
    worse = _run("--check", str(path), str(slow_path))
    assert worse.returncode == 1
    row = next(
        line for line in worse.stdout.splitlines()
        if line.startswith("full_path") and "wall_s" in line
    )
    assert row.endswith("worse")


def test_check_flags_more_workers_than_processors(smoke, tmp_path):
    path, doc = smoke
    crowded = copy.deepcopy(doc)
    crowded["workloads"]["generate_pool"]["notes"]["workers"] = (
        doc["host"]["nproc"] + 1
    )
    crowded_path = tmp_path / "crowded.json"
    crowded_path.write_text(json.dumps(crowded))
    out = _run("--check", str(path), str(crowded_path)).stdout
    rows = [l for l in out.splitlines() if l.startswith("generate_pool")]
    assert all(r.endswith("unresolved") for r in rows if "failed_frac" not in r)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_contract_line(trace, kind):
    # An ambient knob must not reach the worker: with REPRO_EXECUTOR
    # leaked, make_executor would reject the backend name.
    env = {**os.environ, "REPRO_EXECUTOR": "no-such-backend",
           "REPRO_QUERY_THREADS": "0"}
    proc = _run("--workload", "generate_serial", "--seed", "3", "--seconds",
                "0", "--trace", str(trace), "--smoke", env=env)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in SPEC[kind]}
    for got in line["metrics"].values():
        assert set(got) == {"value", "unit"}
