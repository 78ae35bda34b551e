"""Tests of the benchmark itself: contract, tiny smoke runs, failure counting.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import importlib
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import bench_oracle  # noqa: E402
import bench_spec  # noqa: E402
import run  # noqa: E402
from bench_trace import Tracer  # noqa: E402
from bench_workloads import WORKLOADS, Cli, Realism, Scale  # noqa: E402
from geneasm import direct, overlap, pointers, reduction, sampling  # noqa: E402


def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _result(capsys, argv):
    code = run.main(argv, size="tiny", min_ops=3)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


def test_workloads_are_the_ones_benchmark_json_names():
    assert [w["name"] for w in _bench_json()["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_smoke_run(capsys, workload, trace):
    code, result = _result(capsys, [
        "--workload", workload, "--seed", "3", "--seconds", "0.2",
        "--trace", str(trace),
    ])
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 3
    units = {m["name"]: m["unit"] for m in _bench_json()["end_to_end" if trace == 0 else "per_layer"]}
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == units
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_traced_run_counts_direct_edge_tests(capsys):
    _code, result = _result(capsys, [
        "--workload", "scale", "--seed", "2", "--seconds", "0.2", "--trace", "1",
    ])
    metrics = result["metrics"]
    candidates = metrics["direct.candidate_edges"]["value"]
    found = metrics["direct.edges_found"]["value"]
    assert 0 < found < candidates
    # tiny scale runs kappa 6, 8 and 10; each direct call tests every candidate edge once
    calls = metrics["direct.direct_reduction_graph.calls"]["value"]
    assert calls % 3 == 0
    per_block = sum((k - 1) * (k - 2) // 2 + 2 * (k - 1) + 1 for k in (6, 8, 10))
    assert candidates == calls // 3 * per_block


def test_wrong_component_count_is_counted(monkeypatch, capsys):
    original = reduction.ReductionGraph.component_count
    monkeypatch.setattr(reduction.ReductionGraph, "component_count",
                        lambda self: original(self) + 1)
    code, result = _result(capsys, [
        "--workload", "scale", "--seed", "1", "--seconds", "0.1",
    ])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_none_verdict_for_realistic_graph_is_counted(monkeypatch):
    monkeypatch.setattr(overlap, "is_realistic_overlap", lambda g, max_kappa=None: None)
    workload = Realism(ROOT, 1, "tiny")
    loop = run.Loop(workload)
    loop.run(0, workload.block)
    realistic = sum(item["realistic"] for item in workload.current)
    assert 0 < realistic < workload.block
    assert len(loop.failures) == realistic
    assert all("reported not realistic" in f["reason"] for f in loop.failures)


def test_cli_wrong_stdout_or_exit_code_is_counted():
    workload = Cli(ROOT, 1, "tiny")
    command = workload.make_input(0)
    _argv, stdout, code = command
    assert workload.check(command, (code, stdout)) is None
    assert "exit code" in workload.check(command, (code + 3, stdout))
    assert "stdout" in workload.check(command, (code, stdout + "x"))


def test_scale_check_rejects_each_wrong_answer():
    workload = Scale(ROOT, 1, "tiny")
    u = workload.make_input(0)
    good = workload.op(u)
    assert workload.check(u, good) is None
    assert workload.check(u, ("a",) + good[1:]) is not None
    assert workload.check(u, good[:2] + (False,) + good[3:]) is not None
    assert workload.check(u, good[:3] + (good[3] + 1, good[4])) is not None


def test_oracle_agrees_with_geneasm():
    rng = random.Random(5)
    table = bench_oracle.realistic_table(5)
    for _ in range(30):
        arr = sampling.random_arrangement(rng, 5)
        key = bench_oracle.graph_key(bench_oracle.encode(arr))
        assert list(bench_oracle.encode(arr)) == list(pointers.encode_arrangement(arr))
        assert bench_oracle.key_of_graph(overlap.overlap_graph(pointers.encode_arrangement(arr))) == key
        assert key in table
        g = overlap.parse_overlap_json(bench_oracle.to_json(key))
        assert bench_oracle.key_of_graph(g) == key
    rank, witness = table[key]
    assert bench_oracle.graph_key(bench_oracle.encode(witness)) == key


def test_tracer_restores_layers():
    before = {name: _resolve(name) for name in bench_spec.LAYER_FUNCTIONS}
    edge_test = getattr(direct, bench_spec.EDGE_TEST[1])
    tracer = Tracer()
    tracer.install()
    assert all(_resolve(name) is not fn for name, fn in before.items())
    assert getattr(direct, bench_spec.EDGE_TEST[1]) is not edge_test
    tracer.uninstall()
    assert all(_resolve(name) is fn for name, fn in before.items())
    assert getattr(direct, bench_spec.EDGE_TEST[1]) is edge_test


def _resolve(layer):
    module, path = bench_spec.LAYER_FUNCTIONS[layer]
    owner = importlib.import_module(f"geneasm.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scale", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
