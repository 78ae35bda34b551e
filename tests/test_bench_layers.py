import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_layers.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_layers", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_has_every_layer_and_the_run_stamp(bench, tmp_path, capsys):
    out = tmp_path / "layers.json"
    assert bench.main(["--kappas", "4", "8", "--repeat", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert {"python", "cores", "git_sha", "seed"} <= set(report)
    assert report["seed"] == 1
    assert [(r["layer"], r["kappa"]) for r in report["rows"]] == [
        (layer, kappa) for kappa in (4, 8) for layer in bench.LAYERS
    ]
    assert all(1 <= r["calls"] <= 2 and r["best_ms"] >= 0 for r in report["rows"])
    assert capsys.readouterr().out.count("\n") == 4  # header, rule, one row per kappa


def test_a_call_over_budget_skips_the_larger_kappas(bench, tmp_path):
    out = tmp_path / "layers.json"
    bench.main(["--kappas", "4", "8", "--budget", "0", "--out", str(out)])
    rows = json.loads(out.read_text())["rows"]
    assert all(r["calls"] == 1 for r in rows if r["kappa"] == 4)
    assert all("over 0.0 s at kappa 4" in r["skipped"] for r in rows if r["kappa"] == 8)
