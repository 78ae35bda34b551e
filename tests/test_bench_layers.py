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
    assert {"emit_overlap_json", "parse_overlap_json"} <= set(bench.LAYERS)
    assert bench.LADDER == (8, 32, 128, 512, 2048, 8192)
    assert all(1 <= r["calls"] <= 2 and r["best_ms"] >= 0 for r in report["rows"])
    assert report["cli_kappa"] == 8
    assert [r["command"] for r in report["cli_rows"]] == list(bench.CLI_COMMANDS)
    assert all(1 <= r["calls"] <= 2 and r["best_ms"] > 0 for r in report["cli_rows"])
    # every process succeeds; iso-check exits 1 when its two strings differ
    assert all(r["exit_code"] == 0 or (r["command"], r["exit_code"]) == ("iso-check", 1)
               for r in report["cli_rows"])
    # layer table: header, rule, one row per kappa; CLI table: header, rule, one row per command
    assert capsys.readouterr().out.count("\n") == 4 + 2 + len(bench.CLI_COMMANDS)


def test_a_call_over_budget_skips_the_larger_kappas(bench, tmp_path):
    out = tmp_path / "layers.json"
    bench.main(["--kappas", "4", "8", "--budget", "0", "--out", str(out)])
    rows = json.loads(out.read_text())["rows"]
    assert all(r["calls"] == 1 for r in rows if r["kappa"] == 4)
    assert all("over 0.0 s at kappa 4" in r["skipped"] for r in rows if r["kappa"] == 8)
    assert all(r["calls"] == 1 for r in json.loads(out.read_text())["cli_rows"])


def test_quadratic_growth_past_the_budget_skips_the_next_kappa(bench, monkeypatch):
    timed = []

    def every_call_takes_30_ms(fn, arg, repeat, budget):
        timed.append(fn)
        return 0.03, 1

    monkeypatch.setattr(bench, "best_of", every_call_takes_30_ms)
    rows = bench.measure([4, 5, 20], repeat=1, budget=0.1)
    # 0.03 s * (5/4)^2 stays under 0.1 s; 0.03 s * (20/5)^2 does not
    assert len(timed) == 2 * len(bench.LAYERS)
    assert all(r["best_ms"] == 30 for r in rows if r["kappa"] in (4, 5))
    assert all(r["skipped"] == "one call took 0.03 s at kappa 5, so growing with kappa "
               "squared it would take over 0.1 s at kappa 20" for r in rows if r["kappa"] == 20)
