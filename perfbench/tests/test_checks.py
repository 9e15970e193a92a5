"""Every correctness check of the benchmark can fail for the reason it names."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import catalogue
import multinode
import serving
import sweep
from repro import AcSpgemmOptions, ac_spgemm, spgemm_reference
from repro.campaign.plan import matrix_fingerprint
from repro.matrices.generators import random_uniform
from repro.multi import NodeConfig, summa_spgemm

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_generated_from_the_catalogue():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == catalogue.benchmark_json()


def test_catalogue_respects_the_benchmark_schema():
    doc = catalogue.benchmark_json()
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup == {"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": max(m["bound"] for m in doc["end_to_end"])}
    # every layer names end-to-end metrics (or multi.sim_speedup_p4) it moves
    targets = {m["name"] for m in doc["end_to_end"]} | {"multi.sim_speedup_p4"}
    for layer in catalogue.PER_LAYER:
        assert set(layer.moves) <= targets, layer.name
        assert set(layer.on) <= set(catalogue.WORKLOADS), layer.name


# -- sweep ---------------------------------------------------------------


@pytest.fixture
def sweep_cell(tmp_path):
    m = random_uniform(200, 200, 5, seed=3)
    options = AcSpgemmOptions(engine="batched")
    first = ac_spgemm(m, m, options)
    return sweep.Cell(
        key="uniform/float64", path=tmp_path / "m.mtx", dtype="float64",
        options=options, reference=spgemm_reference(m, m),
        expected_digest=sweep.digest(first.matrix), sim_cycles=first.total_cycles,
    ), first


def test_sweep_check_accepts_a_correct_result(sweep_cell):
    cell, result = sweep_cell
    assert sweep.check_result(cell, result) is None


def test_sweep_check_fails_on_a_corrupted_expected_digest(sweep_cell):
    cell, result = sweep_cell
    cell.expected_digest = "0" * 64
    assert "digest" in sweep.check_result(cell, result)


def test_sweep_check_fails_when_the_reference_disagrees(sweep_cell):
    cell, result = sweep_cell
    cell.reference.values[0] += 1.0
    assert "spgemm_reference" in sweep.check_result(cell, result)


def test_sweep_check_fails_when_simulated_cycles_change(sweep_cell):
    cell, result = sweep_cell
    cell.sim_cycles += 1.0
    assert "simulated cycles" in sweep.check_result(cell, result)


# -- serve ---------------------------------------------------------------


def test_serve_check_names_each_failure():
    ok = {"outcome": "success", "result": {"digest": "abc", "sim_ms": 0.5}}
    assert serving.check_response(200, ok, "abc", 0.5) is None
    assert "digest" in serving.check_response(200, ok, "corrupted", 0.5)
    assert "sim_ms" in serving.check_response(200, ok, "abc", 0.25)
    degraded = dict(ok, outcome="degraded")
    assert "outcome='degraded'" in serving.check_response(200, degraded, "abc", 0.5)


def test_serve_daemon_unknown_hash_fails_and_teardown_is_clean(tmp_path):
    m = random_uniform(120, 120, 4, seed=5)
    [payload] = serving.make_matrices(m, [np.random.default_rng(0)])
    prefix = f"pbtest{id(tmp_path):x}-"
    daemon = serving.Daemon(ROOT, prefix, tmp_path / "daemon.log")
    try:
        conn = daemon.connect()
        try:
            status, doc = serving.request(conn, "POST", "/multiply", payload.coo)
            a = payload.csr()
            expected = ac_spgemm(a, a, AcSpgemmOptions(engine="batched"))
            assert serving.check_response(
                status, doc, matrix_fingerprint(expected.matrix),
                round(expected.seconds * 1e3, 4),
            ) is None
            status, doc = serving.request(
                conn, "POST", "/multiply", json.dumps({"matrix_hash": "0" * 16}).encode()
            )
        finally:
            conn.close()
    finally:
        leaks = daemon.stop()
    assert status == 404
    assert "HTTP 404" in serving.check_response(status, doc, "any", 0.0)
    assert leaks == []
    assert daemon.children  # the warm pool's workers were tracked, and are gone
    assert not any(serving.alive(pid) for pid in daemon.children)


def test_serve_leftovers_counts_processes_and_segments(tmp_path):
    prefix = f"pbtest{id(tmp_path):x}-"
    stray = serving.SHM_DIR / f"{prefix}stray"
    stray.write_bytes(b"x")
    orphan = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    try:
        found = serving.leftovers(prefix, {orphan.pid})
    finally:
        orphan.kill()
        orphan.wait(10)
    assert any("stray" in f for f in found)
    assert any(str(orphan.pid) in f for f in found)
    assert not stray.exists()


# -- multinode -----------------------------------------------------------


@pytest.fixture
def node_input():
    g = random_uniform(90, 90, 5, seed=7)
    g.values = np.ones_like(g.values)
    single = summa_spgemm(g, g, NodeConfig(devices=1), backend=multinode.BACKEND)
    inp = multinode.Input("graph", g, g, single)
    res = summa_spgemm(g, g, NodeConfig(devices=multinode.DEVICES), backend=multinode.BACKEND)
    inp.makespan = res.makespan_cycles
    return inp, res


def test_multinode_checks_accept_a_correct_run(node_input):
    inp, res = node_input
    assert multinode.reconcile_problem(inp, res) is None
    assert multinode.check_result(inp, res) is None


def test_multinode_check_fails_without_byte_identity(node_input):
    inp, res = node_input
    inp.single.matrix.values[0] += 1.0
    assert "byte-identical" in multinode.check_result(inp, res)


def test_multinode_check_fails_when_reconcile_fails(node_input):
    inp, res = node_input
    link = next(iter(res.link_counters.values()))
    link.bytes_sent += 1
    assert "reconcile failed" in multinode.reconcile_problem(inp, res)


# -- the command ---------------------------------------------------------


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_metric_of_its_mode(trace):
    proc = _run(["--workload", "multinode", "--seed", "99", "--seconds", "1",
                 "--trace", trace], ROOT)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    doc = catalogue.benchmark_json()
    expected = doc["per_layer"] if trace == "1" else doc["end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in expected]
    assert all(last["metrics"][m["name"]]["unit"] == m["unit"] for m in expected)


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", "sweep", "--seed", "1", "--seconds", "1"], tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
