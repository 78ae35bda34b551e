import importlib.util
import json
import sys
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
    assert {"realistic_decode", "emit_direct_json"} <= set(bench.LAYERS)
    # the legality check every string-side layer reads
    assert "occurrence_index" in bench.LAYERS
    # the scale benchmark's op calls both
    assert {"ReductionGraph.component_count", "is_rooted"} <= set(bench.LAYERS)
    # the realism decision, on the realistic graph of each kappa's string
    assert "is_realistic_overlap" in bench.LAYERS
    # the GPRS decision of all eight rule sets, as classify makes it
    assert "successful_rule_sets" in bench.LAYERS
    # the perfbench scale op's calls, and the layers that get a fresh graph
    assert bench.LAYERS[-1] == "cps-vs-direct"
    assert bench.FRESH == {"cps", "OverlapGraph.nullity", "successful_rule_sets",
                           "emit_direct_json", "canonical_labelled",
                           "canonical_labelled, one label", "canonical_labelled, 2,3 repeated",
                           "canonical_2edge", "ReductionGraph.components",
                           "ReductionGraph.component_count"}
    assert bench.LADDER == (8, 32, 128, 512, 2048, 8192)
    assert all(1 <= r["calls"] <= 2 and r["best_ms"] >= 0 for r in report["rows"])
    # every layer and string search row has a median and a spread, as the CLI rows do
    for r in report["rows"] + report["string_search_rows"]:
        assert r["median_ms"] >= r["best_ms"] and r["spread_ms"] >= 0
        assert r["calls"] > 1 or r["spread_ms"] == 0
    assert report["cli_kappa"] == 8
    assert [r["command"] for r in report["cli_rows"]] == list(bench.CLI_COMMANDS)
    assert all(1 <= r["calls"] <= 2 and r["best_ms"] > 0 for r in report["cli_rows"])
    # each row's median, spread, and cost above the same run's bare interpreter
    assert all(r["median_ms"] >= r["best_ms"] and r["spread_ms"] >= 0
               for r in report["cli_rows"])
    bare = report["cli_rows"][0]
    assert bare["command"] == "python -c pass" and bare["above_bare_ms"] == 0
    assert all(r["above_bare_ms"] == round(r["median_ms"] - bare["median_ms"], 2)
               for r in report["cli_rows"])
    assert report["dont_write_bytecode"] is bool(sys.flags.dont_write_bytecode)
    # the verbs that take --graph or --string, on the kappa-8 string and on its graph's JSON
    assert bench.CLI_GRAPH_VERBS == ("count-negative", "classify", "direct")
    assert {"count-negative --graph", "classify --graph", "direct --graph"} <= set(
        bench.CLI_COMMANDS)
    # check-realism on graph JSON files and direct on string files, as fresh processes at
    # large kappa; exit 0: realistic
    assert bench.CLI_GRAPH_KAPPAS == (512, 2048)
    assert bench.CLI_COMMANDS[-4:] == ("check-realism --graph at kappa 512",
                                       "check-realism --graph at kappa 2048",
                                       "direct --string at kappa 512",
                                       "direct --string at kappa 2048")
    # every process succeeds; iso-check exits 1 when its two strings differ
    assert all(r["exit_code"] == 0 or (r["command"], r["exit_code"]) == ("iso-check", 1)
               for r in report["cli_rows"])
    # the string search rows: the enumerator to its default cap, a domain of 6
    assert bench.STRING_SEARCH_KAPPAS == tuple(range(4, 8))
    assert [(r["layer"], r["kappa"]) for r in report["string_search_rows"]] == [
        (bench.ENUMERATE_ROW, kappa) for kappa in bench.STRING_SEARCH_KAPPAS
    ]
    assert all(1 <= r["calls"] <= 2 and r["best_ms"] > 0 for r in report["string_search_rows"])
    # layer, string search and CLI tables: header, rule, one row per kappa or command
    assert capsys.readouterr().out.count("\n") == (
        4 + 2 + len(bench.STRING_SEARCH_KAPPAS) + 2 + len(bench.CLI_COMMANDS)
    )


def test_a_call_over_budget_skips_the_larger_kappas(bench, tmp_path):
    out = tmp_path / "layers.json"
    bench.main(["--kappas", "4", "8", "--budget", "0", "--out", str(out)])
    rows = json.loads(out.read_text())["rows"]
    assert all(r["calls"] == 1 for r in rows if r["kappa"] == 4)
    assert all("over 0.0 s at kappa 4" in r["skipped"] for r in rows if r["kappa"] == 8)
    report = json.loads(out.read_text())
    assert all(r["calls"] == 1 for r in report["cli_rows"])
    first, *rest = report["string_search_rows"]
    assert (first["layer"], first["kappa"], first["calls"]) == (bench.ENUMERATE_ROW, 4, 1)
    assert rest and all(r["skipped"] == "one call took over 0.0 s at kappa 4" for r in rest)


def test_the_rule_sets_row_times_a_fresh_graph_per_repeat(bench, monkeypatch):
    met = []  # whether the graph's components had been found before the call
    decide = bench.rewriting.successful_rule_sets

    def successful_rule_sets(g):
        met.append("component_masks" in vars(g))
        return decide(g)

    monkeypatch.setattr(bench.rewriting, "successful_rule_sets", successful_rule_sets)
    rows = bench.measure([6], repeat=3, budget=10)
    assert [r["calls"] for r in rows if r["layer"] == "successful_rule_sets"] == [3]
    assert met == [False] * 3


def test_the_string_search_rows_run_each_kappas_first_string(bench, monkeypatch):
    calls = []  # the strings the enumerator was called on
    enumerate_ = bench.rewriting.successful_string_reductions

    def successful_string_reductions(u):
        calls.append(u)
        return enumerate_(u)

    monkeypatch.setattr(bench.rewriting, "successful_string_reductions",
                        successful_string_reductions)
    rows = bench.measure_string_search(repeat=2, budget=10, kappas=(5, 7))
    first = {kappa: bench.sampling.random_realistic_string(bench.random.Random(bench.SEED), kappa)
             for kappa in (5, 7)}
    assert calls == [first[5]] * 2 + [first[7]] * 2
    assert [(r["layer"], r["kappa"]) for r in rows] == [
        (bench.ENUMERATE_ROW, 5), (bench.ENUMERATE_ROW, 7),
    ]
    # the enumerator row consumes every sequence
    u = first[5]
    assert bench.enumerate_all(u) == len(list(enumerate_(u))) > 1


def test_labelled_graph_rows_time_a_fresh_graph_per_repeat(bench, monkeypatch):
    met = []  # (layer, whether the graph had been walked or named before the call)
    canonical, emit = bench.iso.canonical_labelled, bench.direct.emit_direct_json

    def canonical_labelled(g):
        met.append(("canonical_labelled", "walks" in vars(g)))
        return canonical(g)

    def emit_direct_json(g):
        met.append(("emit_direct_json", "ids" in vars(g)))
        return emit(g)

    monkeypatch.setattr(bench.iso, "canonical_labelled", canonical_labelled)
    monkeypatch.setattr(bench.direct, "emit_direct_json", emit_direct_json)
    rows = bench.measure([6], repeat=3, budget=10)
    assert all(r["calls"] == 3 for r in rows)
    # three repeats of each row; each cps-vs-direct repeat takes two canonical forms; a cps
    # graph, in the canonical_labelled row and in cps-vs-direct, comes with its walks
    assert sorted(met) == ([("canonical_labelled", False)] * 9 + [("canonical_labelled", True)] * 6
                           + [("emit_direct_json", False)] * 3)


def test_a_fresh_row_never_gets_what_its_call_keeps(bench):
    u = bench.sampling.random_realistic_string(bench.random.Random(bench.SEED), 8)
    built = bench.cases(u)
    for layer in bench.FRESH:
        fn, make_arg = built[layer]
        used, fresh = make_arg(), make_arg()
        before = set(vars(used))
        fn(used)
        assert fresh is not used and not (set(vars(used)) - before) & set(vars(fresh)), layer


def test_the_cps_vs_direct_row_runs_the_scale_check(bench):
    rng = bench.random.Random(bench.SEED)
    for kappa in (2, 8, 32):
        u = bench.sampling.random_realistic_string(rng, kappa)
        assert bench.cps_vs_direct(u) == (True, True, True)


def test_the_adversarial_rows_time_one_cycle_as_long_as_the_string(bench):
    rng = bench.random.Random(bench.SEED)
    u = bench.sampling.random_realistic_string(rng, 8)
    built = bench.cases(u)
    for layer, labels in (("canonical_labelled, one label", (2,) * 14),
                          ("canonical_labelled, 2,3 repeated", (2, 3) * 7)):
        fn, make_arg = built[layer]
        g = make_arg()
        assert g.index_labels == labels and len(g.walks) == 1
        assert fn(g) == "c[" + ",".join(map(str, labels)) + "]"


def test_quadratic_growth_past_the_budget_skips_the_next_kappa(bench, monkeypatch):
    timed = []

    def every_call_takes_30_ms(fn, arg, repeat, budget, fresh=None):
        timed.append(fn)
        return [0.03]

    monkeypatch.setattr(bench, "timed_calls", every_call_takes_30_ms)
    rows = bench.measure([4, 5, 20], repeat=1, budget=0.1)
    # 0.03 s * (5/4)^2 stays under 0.1 s; 0.03 s * (20/5)^2 does not
    assert len(timed) == 2 * len(bench.LAYERS)
    assert all((r["best_ms"], r["median_ms"], r["spread_ms"]) == (30, 30, 0)
               for r in rows if r["kappa"] in (4, 5))
    assert all(r["skipped"] == "one call took 0.03 s at kappa 5, so growing with kappa "
               "squared it would take over 0.1 s at kappa 20" for r in rows if r["kappa"] == 20)

