"""Time each layer of the string-side pipeline, the realism decision and the GPRS
decision on its own, over a kappa ladder, the SPRS searches, and the short CLI
verbs, ``check-realism --graph`` and ``direct --string`` in fresh processes.

    python3 benchmarks/bench_layers.py [--repeat 5] [--budget 10]
                                       [--kappas 8 32 128 512 2048 8192] [--out FILE]

Standard library only; geneasm is imported from the ``src/`` next to this
directory.  For each kappa one realistic string is drawn from
``random.Random(SEED)``, in ladder order, and these layers are timed on it,
each on inputs built beforehand:

    parse_pointer_string            the string in spaced format
    occurrence_index                the parsed string (the legality check)
    realistic_decode                the parsed string
    overlap_graph                   the parsed string
    emit_overlap_json               the overlap graph
    parse_overlap_json              the overlap graph's JSON
    is_realistic_overlap            the overlap graph (realistic, as it encodes a string)
    ReductionGraph                  the parsed string
    cps                             the reduction graph *
    direct_reduction_graph          the overlap graph (as ``overlap_graph`` returns it)
    OverlapGraph.nullity            the overlap graph (the graph-side negative-rule
                                    count, which ``classify`` also reads) *
    successful_rule_sets            the overlap graph (all eight GPRS rule sets, as
                                    ``classify`` decides them) *
    emit_direct_json                the directly constructed reduction graph *
    canonical_labelled              the compressed reduction graph *
    canonical_labelled, one label   one cycle with a vertex per letter of the
                                    string, every label the same *
    canonical_labelled, 2,3 repeated
                                    that cycle labelled 2, 3, 2, 3, ... *
    canonical_2edge                 the reduction graph *
    ReductionGraph.components       the reduction graph *
    ReductionGraph.component_count  the reduction graph *
    find_root_subgraphs             the reduction graph
    is_rooted                       the reduction graph
    cps-vs-direct                   the parsed string: the calls of one perfbench
                                    ``scale`` op (both graphs, both canonical
                                    forms, ``is_rooted``, both component counts)

A labelled graph names its vertices on first use and keeps them; a
reduction graph walks its cycles once and keeps the walk, and an overlap
graph keeps its component masks and its nullity.  So the layers marked *
get a graph built anew, outside the timer, before every timed repeat.  On
one graph the repeats after the first would time a cache hit.  A labelled
graph is built with its paths and cycles: ``cps`` reads them off the
reduction graph's walk, and the direct construction and
``LabelledGraph.from_index_pairs`` walk their partner arrays as they
build.  So the ``cps`` row includes the walk of the reduction graph, the
``direct_reduction_graph`` row the walk of its arrays, and the three
``canonical_labelled`` rows time only the coder; they keep nothing, and
get a fresh graph per repeat all the same, as their builders leave it.
The two cycles are the worst case of the least-rotation scan: the least
label sits at every vertex or every other one, so every candidate
rotation shares a long prefix with the next.  A scan that is not linear
shows there as a row growing faster than kappa.

The string search rows time ``rewriting.successful_string_reductions``
(every sequence consumed) on the realistic string that
``random.Random(SEED)`` draws first at each kappa of
``STRING_SEARCH_KAPPAS``, up to its default cap.  The snr count of every
successful reduction is proved, not searched: the
``ReductionGraph.component_count`` row times it.

A case makes up to ``--repeat`` calls timed with ``time.perf_counter``,
and stops early once its calls have taken ``--budget`` seconds together.
Every row, layer, string search or CLI, gives the best and the median of
its calls and their spread (slowest minus fastest); tables print the best.
A layer is skipped from the next kappa on when its single call takes longer
than the budget, or would at the next kappa if its time grew with kappa
squared (the overlap graph has about kappa^2 / 6 edges, so no layer grows
faster); the skip and its reason are recorded, and the inputs of a skipped
case are never built.  The search grows exponentially, so its row is
skipped from the next kappa on as soon as one call takes longer than the
budget.

The CLI rows time whole fresh processes, with the same repeat and budget
rules: ``python -c pass`` (the interpreter alone), ``python -c "import
geneasm.cli"``, and ``python -m geneasm.cli VERB ...`` for each short verb
on inputs drawn from ``random.Random(SEED)`` at kappa 8; ``count-negative``,
``classify`` and ``direct`` run once on that string and once, as ``VERB
--graph``, on its overlap graph's JSON.  Each row gives the best and the
median of its calls, their spread, and its median above the same run's
``python -c pass`` median: what the command costs over the bare
interpreter, its imports plus its work.  At each kappa of
``CLI_GRAPH_KAPPAS``, on the realistic string that ``random.Random(SEED)``
draws first there, ``check-realism --graph`` runs on a JSON file holding
its overlap graph (parsing the JSON costs more than deciding realism), and
``direct --string`` on a file holding the string (it decides realism
before it builds).  The results go to ``BENCH_layers.json`` at the repository root (or ``--out``)
with the Python version, core count, git SHA, seed and whether the
interpreter writes bytecode caches (``sys.flags.dont_write_bytecode``, set
by ``PYTHONDONTWRITEBYTECODE``; with it set, each fresh process compiles
geneasm from source), and a table is printed.  ``git_dirty`` says whether
tracked files under ``src/`` or ``benchmarks/``, the code the numbers
depend on, differ from that SHA; an edit to a document elsewhere leaves it
false.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from geneasm import (  # noqa: E402
    compress, direct, iso, overlap, pointers, reduction, rewriting, sampling,
)

SEED = 1
LADDER = (8, 32, 128, 512, 2048, 8192)
# up to the string enumerator's default cap, a domain of kappa - 1
STRING_SEARCH_KAPPAS = tuple(range(4, rewriting.DEFAULT_STRING_DOMAIN_CAP + 2))
ENUMERATE_ROW = "successful_string_reductions"
CLI_KAPPA = 8
CLI_GRAPH_KAPPAS = (512, 2048)
# the verbs timed on the kappa-8 string and on its overlap graph's JSON
CLI_GRAPH_VERBS = ("count-negative", "classify", "direct")
CLI_COMMANDS = (
    "python -c pass",
    "import geneasm.cli",
    "encode",
    "decode",
    "validate",
    "random",
    "components",
    *CLI_GRAPH_VERBS,
    *(f"{verb} --graph" for verb in CLI_GRAPH_VERBS),
    "iso-check",
    "check-realism",
    *(f"check-realism --graph at kappa {kappa}" for kappa in CLI_GRAPH_KAPPAS),
    *(f"direct --string at kappa {kappa}" for kappa in CLI_GRAPH_KAPPAS),
)
LAYERS = (
    "parse_pointer_string",
    "occurrence_index",
    "realistic_decode",
    "overlap_graph",
    "emit_overlap_json",
    "parse_overlap_json",
    "is_realistic_overlap",
    "ReductionGraph",
    "cps",
    "direct_reduction_graph",
    "OverlapGraph.nullity",
    "successful_rule_sets",
    "emit_direct_json",
    "canonical_labelled",
    "canonical_labelled, one label",
    "canonical_labelled, 2,3 repeated",
    "canonical_2edge",
    "ReductionGraph.components",
    "ReductionGraph.component_count",
    "find_root_subgraphs",
    "is_rooted",
    "cps-vs-direct",
)
# built anew for every repeat: the layers whose argument keeps what they compute,
# and the canonical_labelled rows, which code a graph as its builder leaves it
FRESH = frozenset({"cps", "OverlapGraph.nullity", "successful_rule_sets", "emit_direct_json",
                   "canonical_labelled", "canonical_labelled, one label",
                   "canonical_labelled, 2,3 repeated", "canonical_2edge",
                   "ReductionGraph.components", "ReductionGraph.component_count"})


def cps_vs_direct(u):
    """The calls of one perfbench ``scale`` op: is cps(R_u) isomorphic to direct(gamma_u)?"""
    g = overlap.overlap_graph(u)
    rg = reduction.ReductionGraph(u)
    compressed = compress.cps(rg)
    built = direct.direct_reduction_graph(g)
    return (iso.canonical_labelled(compressed) == iso.canonical_labelled(built),
            reduction.is_rooted(rg), rg.component_count() == built.component_count())


def labelled_cycle(labels):
    """One cycle through the vertex indices in order, index v labelled labels[v]."""
    size = len(labels)
    return compress.LabelledGraph.from_index_pairs(
        labels, [(v, (v + 1) % size) for v in range(size)], (range, size))


def cases(u):
    """Each layer as (function, builder of its argument), built outside the timer on demand."""
    rg = functools.cache(lambda: reduction.ReductionGraph(u))
    graph = functools.cache(lambda: overlap.overlap_graph(u))
    return {
        "parse_pointer_string": (pointers.parse_pointer_string,
                                 lambda: pointers.format_pointer_string(u)),
        "occurrence_index": (pointers.occurrence_index, lambda: u),
        "realistic_decode": (pointers.realistic_decode, lambda: u),
        "overlap_graph": (overlap.overlap_graph, lambda: u),
        "emit_overlap_json": (overlap.emit_overlap_json, graph),
        "parse_overlap_json": (overlap.parse_overlap_json,
                               lambda: overlap.emit_overlap_json(graph())),
        "is_realistic_overlap": (overlap.is_realistic_overlap, graph),
        "ReductionGraph": (reduction.ReductionGraph, lambda: u),
        "cps": (compress.cps, lambda: reduction.ReductionGraph(u)),
        "direct_reduction_graph": (direct.direct_reduction_graph, graph),
        "OverlapGraph.nullity": (overlap.OverlapGraph.nullity, lambda: overlap.overlap_graph(u)),
        "successful_rule_sets": (rewriting.successful_rule_sets, lambda: overlap.overlap_graph(u)),
        "emit_direct_json": (direct.emit_direct_json,
                             lambda: direct.direct_reduction_graph(graph())),
        "canonical_labelled": (iso.canonical_labelled, lambda: compress.cps(rg())),
        "canonical_labelled, one label": (iso.canonical_labelled,
                                          lambda: labelled_cycle((2,) * len(u))),
        "canonical_labelled, 2,3 repeated": (iso.canonical_labelled,
                                             lambda: labelled_cycle((2, 3) * (len(u) // 2))),
        "canonical_2edge": (iso.canonical_2edge, lambda: reduction.ReductionGraph(u)),
        "ReductionGraph.components": (reduction.ReductionGraph.components,
                                      lambda: reduction.ReductionGraph(u)),
        "ReductionGraph.component_count": (reduction.ReductionGraph.component_count,
                                           lambda: reduction.ReductionGraph(u)),
        "find_root_subgraphs": (reduction.find_root_subgraphs, rg),
        "is_rooted": (reduction.is_rooted, rg),
        "cps-vs-direct": (cps_vs_direct, lambda: u),
    }


def timed_calls(fn, arg, repeat, budget, fresh=None):
    """The seconds of each call: one call, then more until repeat calls or budget seconds.

    ``fresh``, if given, builds the argument anew before each call, outside the timer.
    """
    times = []
    while not times or (len(times) < repeat and sum(times) < budget):
        if fresh is not None:
            arg = fresh()
        start = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - start)
    return times


def summary(times, digits):
    """A row's timing: the best and the median call in ms, their spread
    (slowest minus fastest) and the number of calls, rounded to ``digits``."""
    return {"best_ms": round(min(times) * 1e3, digits),
            "median_ms": round(statistics.median(times) * 1e3, digits),
            "spread_ms": round((max(times) - min(times)) * 1e3, digits),
            "calls": len(times)}


def cli_argvs(kappa, workdir):
    """Each of CLI_COMMANDS as the argv of a fresh process; strings may start with "-"."""
    rng = random.Random(SEED)
    arr = sampling.random_arrangement(rng, kappa)
    u, v = (sampling.random_realistic_string(rng, kappa) for _ in range(2))
    text = pointers.format_pointer_string(u, "compact")

    def source(name, content):
        """A new file in workdir holding content, as a CLI source: "@" and its path."""
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
        return "@" + path

    files = [source(f"{name}.txt", pointers.format_pointer_string(seq, "compact") + "\n")
             for name, seq in (("u", u), ("v", v))]
    verbs = {
        "encode": ["encode", "--", pointers.format_arrangement(arr)],
        "decode": ["decode", "--", text],
        "validate": ["validate", "--", text],
        "random": ["random", "--seed", str(SEED), "--kappa", str(kappa), "--count", "3"],
        "components": ["components", "--", text],
        "count-negative": ["count-negative", "--string=" + text],
        "classify": ["classify", "--string=" + text],
        "direct": ["direct", "--string=" + text],
        "iso-check": ["iso-check", "--strings", *files],
        "check-realism": ["check-realism", "--string=" + text],
    }
    graph = overlap.emit_overlap_json(overlap.overlap_graph(u))
    for verb in CLI_GRAPH_VERBS:
        verbs[f"{verb} --graph"] = [verb, "--graph", graph]
    for size in CLI_GRAPH_KAPPAS:
        w = sampling.random_realistic_string(random.Random(SEED), size)
        verbs[f"check-realism --graph at kappa {size}"] = [
            "check-realism",
            "--graph=" + source(f"graph-{size}.json",
                                overlap.emit_overlap_json(overlap.overlap_graph(w))),
        ]
        verbs[f"direct --string at kappa {size}"] = [
            "direct", "--string=" + source(f"string-{size}.txt", pointers.format_pointer_string(w)),
        ]
    python = [sys.executable]
    argvs = {"python -c pass": python + ["-c", "pass"],
             "import geneasm.cli": python + ["-c", "import geneasm.cli"]}
    for name, argv in verbs.items():
        argvs[name] = python + ["-m", "geneasm.cli"] + argv
    return argvs


def measure_cli(repeat, budget, kappa=CLI_KAPPA):
    """One row per CLI_COMMANDS entry: the wall times of fresh processes, and the exit code.

    A row gives the best and the median of its calls, their spread (slowest
    minus fastest), and ``above_bare_ms``, its median minus the median of
    the same run's ``python -c pass`` row: what the command costs over the
    bare interpreter.  Process start-up moves with the machine's load from
    run to run, so rows of different runs compare only by that difference.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    codes = []

    def run(argv):
        proc = subprocess.run(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                              capture_output=True)
        codes.append(proc.returncode)

    rows = []
    with tempfile.TemporaryDirectory() as workdir:
        argvs = cli_argvs(kappa, workdir)
        for command in CLI_COMMANDS:
            times = timed_calls(run, argvs[command], repeat, budget)
            rows.append({"command": command, **summary(times, 2), "exit_code": codes[-1]})
    bare = rows[0]["median_ms"]  # CLI_COMMANDS[0], "python -c pass"
    for row in rows:
        row["above_bare_ms"] = round(row["median_ms"] - bare, 2)
    return rows


def git_sha():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no", "--",
                                "src", "benchmarks"],
                               cwd=ROOT, capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return sha, bool(dirty.strip())


def measure(kappas, repeat, budget):
    rng = random.Random(SEED)
    rows = []
    skipped: dict[str, str] = {}  # layer -> why it is skipped from here on
    for i, kappa in enumerate(kappas):
        u = sampling.random_realistic_string(rng, kappa)
        built = cases(u)
        following = kappas[i + 1] if i + 1 < len(kappas) else None
        for layer in LAYERS:
            if layer in skipped:
                rows.append({"layer": layer, "kappa": kappa, "skipped": skipped[layer]})
                continue
            fn, make_arg = built[layer]
            if layer in FRESH:
                times = timed_calls(fn, None, repeat, budget, fresh=make_arg)
            else:
                times = timed_calls(fn, make_arg(), repeat, budget)
            rows.append({"layer": layer, "kappa": kappa, **summary(times, 4)})
            best = min(times)
            if best > budget:
                skipped[layer] = f"one call took over {budget} s at kappa {kappa}"
            elif following and best * (following / kappa) ** 2 > budget:
                skipped[layer] = (f"one call took {best:.3g} s at kappa {kappa}, so growing "
                                  f"with kappa squared it would take over {budget} s "
                                  f"at kappa {following}")
    return rows


def enumerate_all(u):
    """The number of successful string reductions of u, every sequence consumed."""
    return sum(1 for _ in rewriting.successful_string_reductions(u))


def measure_string_search(repeat, budget, kappas=STRING_SEARCH_KAPPAS):
    """The string search rows: the enumerator at each kappa, every sequence consumed."""
    rows = []
    skipped = None  # why the row is skipped from here on
    for kappa in kappas:
        if skipped:
            rows.append({"layer": ENUMERATE_ROW, "kappa": kappa, "skipped": skipped})
            continue
        u = sampling.random_realistic_string(random.Random(SEED), kappa)
        times = timed_calls(enumerate_all, u, repeat, budget)
        rows.append({"layer": ENUMERATE_ROW, "kappa": kappa, **summary(times, 4)})
        if min(times) > budget:
            skipped = f"one call took over {budget} s at kappa {kappa}"
    return rows


def table(rows, kappas):
    cell = {(r["layer"], r["kappa"]): r for r in rows}
    lines = ["| kappa | " + " | ".join(f"`{layer}`" for layer in LAYERS) + " |",
             "|---" * (len(LAYERS) + 1) + "|"]
    for kappa in kappas:
        values = []
        for layer in LAYERS:
            r = cell[(layer, kappa)]
            values.append("skipped" if "skipped" in r else f"{r['best_ms']:.3g}")
        lines.append(f"| {kappa} | " + " | ".join(values) + " |")
    return "\n".join(lines)


def string_search_table(rows):
    lines = [f"| kappa | `{ENUMERATE_ROW}` |", "|---|---|"]
    lines += [f"| {r['kappa']} | " + ("skipped" if "skipped" in r else f"{r['best_ms']:.3g}")
              + " |" for r in rows]
    return "\n".join(lines)


def cli_table(rows):
    lines = ["| fresh process | best ms | median ms | spread ms | above bare ms |",
             "|---|---|---|---|---|"]
    lines += [f"| `{r['command']}` | {r['best_ms']:.1f} | {r['median_ms']:.1f} "
              f"| {r['spread_ms']:.1f} | {r['above_bare_ms']:.1f} |" for r in rows]
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeat", type=int, default=5, help="calls per case, at most")
    parser.add_argument("--budget", type=float, default=10.0, help="seconds per case")
    parser.add_argument("--kappas", type=int, nargs="+", default=list(LADDER))
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_layers.json"))
    args = parser.parse_args(argv)
    if args.repeat < 1 or min(args.kappas) < 2:
        parser.error("--repeat must be >= 1 and every kappa >= 2")

    rows = measure(args.kappas, args.repeat, args.budget)
    string_search_rows = measure_string_search(args.repeat, args.budget)
    cli_rows = measure_cli(args.repeat, args.budget)
    sha, dirty = git_sha()
    report = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cores": os.cpu_count(),
        "git_sha": sha,
        "git_dirty": dirty,
        "seed": SEED,
        # with it set, every fresh process compiles geneasm from source
        "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
        "repeat": args.repeat,
        "budget_s": args.budget,
        "kappas": args.kappas,
        "unit": "ms: best_ms and median_ms of the calls made, spread_ms slowest minus fastest",
        "rows": rows,
        "string_search_rows": string_search_rows,
        "cli_kappa": CLI_KAPPA,
        "cli_rows": cli_rows,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(table(rows, args.kappas))
    print(string_search_table(string_search_rows))
    print(cli_table(cli_rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
