"""Time each layer of the string-side pipeline and the realism decision on its own,
over a kappa ladder, the GPRS search over all eight rule sets, the SPRS searches,
and the short CLI verbs, ``check-realism --graph`` and ``direct --string`` in
fresh processes.

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
    cps                             the reduction graph
    direct_reduction_graph          the overlap graph (as ``overlap_graph`` returns it)
    OverlapGraph.nullity            the overlap graph (the graph-side negative-rule
                                    count, which ``classify`` also reads)
    emit_direct_json                the directly constructed reduction graph *
    canonical_labelled              the compressed reduction graph *
    canonical_2edge                 the reduction graph
    ReductionGraph.components       the reduction graph
    ReductionGraph.component_count  the reduction graph
    find_root_subgraphs             the reduction graph
    is_rooted                       the reduction graph
    cps-vs-direct                   the parsed string: the calls of one perfbench
                                    ``scale`` op (both graphs, both canonical
                                    forms, ``is_rooted``, both component counts)

A labelled graph names its vertices and walks its components once, on
first use, and keeps both; so the layers marked * get a graph built anew,
outside the timer, before every timed repeat.  On one graph the repeats
after the first would time a cache hit.

The search row times ``rewriting.successful_in`` for each of the eight rule
sets S of {gnr, gpr, gdr} on the graph of the realistic string that
``random.Random(SEED)`` draws first at each kappa of ``SEARCH_KAPPAS``, with
the search cap raised to that kappa.  The first call on a graph stores the
answer for all eight sets on it, so every timed repeat gets a graph object
built anew outside the timer; on one object the repeats would time a lookup.

The string search rows time, on the realistic string that
``random.Random(SEED)`` draws first at each kappa of
``STRING_SEARCH_KAPPAS``, ``rewriting.successful_string_reductions`` (every
sequence consumed) up to its default cap, and
``rewriting.negative_rule_counts`` with the cap raised to that kappa.

A case is the best of ``--repeat`` calls timed with ``time.perf_counter``;
it stops early once its calls have taken ``--budget`` seconds together.
A layer is skipped from the next kappa on when its single call takes longer
than the budget, or would at the next kappa if its time grew with kappa
squared (the overlap graph has about kappa^2 / 6 edges, so no layer grows
faster); the skip and its reason are recorded, and the inputs of a skipped
case are never built.  The searches grow exponentially, so each of their
rows is skipped from the next kappa on as soon as one call takes longer than
the budget.

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
geneasm from source), and a table is printed.
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
    cli, compress, direct, iso, overlap, pointers, reduction, rewriting, sampling,
)

SEED = 1
LADDER = (8, 32, 128, 512, 2048, 8192)
SEARCH_KAPPAS = (6, 8, 10, 12)
SEARCH_ROW = "successful_in, 8 sets"
STRING_SEARCH_KAPPAS = tuple(range(4, 13))
ENUMERATE_ROW = "successful_string_reductions"
COUNT_ROW = "negative_rule_counts"
# the string enumerator runs at its default cap, a domain of kappa - 1
ENUMERATE_KAPPA_CAP = rewriting.DEFAULT_STRING_DOMAIN_CAP + 1
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
    "emit_direct_json",
    "canonical_labelled",
    "canonical_2edge",
    "ReductionGraph.components",
    "ReductionGraph.component_count",
    "find_root_subgraphs",
    "is_rooted",
    "cps-vs-direct",
)
# the layers whose argument is a LabelledGraph, built anew for every repeat
FRESH = frozenset({"emit_direct_json", "canonical_labelled"})


def cps_vs_direct(u):
    """The calls of one perfbench ``scale`` op: is cps(R_u) isomorphic to direct(gamma_u)?"""
    g = overlap.overlap_graph(u)
    rg = reduction.ReductionGraph(u)
    compressed = compress.cps(rg)
    built = direct.direct_reduction_graph(g)
    return (iso.canonical_labelled(compressed) == iso.canonical_labelled(built),
            reduction.is_rooted(rg), rg.component_count() == built.component_count())


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
        "cps": (compress.cps, rg),
        "direct_reduction_graph": (direct.direct_reduction_graph, graph),
        "OverlapGraph.nullity": (overlap.OverlapGraph.nullity, graph),
        "emit_direct_json": (direct.emit_direct_json,
                             lambda: direct.direct_reduction_graph(graph())),
        "canonical_labelled": (iso.canonical_labelled, lambda: compress.cps(rg())),
        "canonical_2edge": (iso.canonical_2edge, rg),
        "ReductionGraph.components": (reduction.ReductionGraph.components, rg),
        "ReductionGraph.component_count": (reduction.ReductionGraph.component_count, rg),
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


def best_of(fn, arg, repeat, budget, fresh=None):
    """(best seconds, calls made) of ``timed_calls``."""
    times = timed_calls(fn, arg, repeat, budget, fresh)
    return min(times), len(times)


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
            rows.append({"command": command, "best_ms": round(min(times) * 1e3, 2),
                         "median_ms": round(statistics.median(times) * 1e3, 2),
                         "spread_ms": round((max(times) - min(times)) * 1e3, 2),
                         "calls": len(times), "exit_code": codes[-1]})
    bare = rows[0]["median_ms"]  # CLI_COMMANDS[0], "python -c pass"
    for row in rows:
        row["above_bare_ms"] = round(row["median_ms"] - bare, 2)
    return rows


def git_sha():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
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
                best, calls = best_of(fn, None, repeat, budget, fresh=make_arg)
            else:
                best, calls = best_of(fn, make_arg(), repeat, budget)
            rows.append({"layer": layer, "kappa": kappa, "best_ms": round(best * 1e3, 4),
                         "calls": calls})
            if best > budget:
                skipped[layer] = f"one call took over {budget} s at kappa {kappa}"
            elif following and best * (following / kappa) ** 2 > budget:
                skipped[layer] = (f"one call took {best:.3g} s at kappa {kappa}, so growing "
                                  f"with kappa squared it would take over {budget} s "
                                  f"at kappa {following}")
    return rows


def measure_search(repeat, budget, kappas=SEARCH_KAPPAS):
    """The search row: all eight rule sets on the seed's realistic graph at each kappa."""
    rows = []
    skipped = None
    for kappa in kappas:
        if skipped:
            rows.append({"layer": SEARCH_ROW, "kappa": kappa, "skipped": skipped})
            continue
        u = sampling.random_realistic_string(random.Random(SEED), kappa)

        def all_sets(g, kappa=kappa):
            for kinds in cli.SUBSET_ORDER:
                rewriting.successful_in(g, kinds, max_kappa=kappa)

        best, calls = best_of(all_sets, None, repeat, budget,
                              fresh=lambda u=u: overlap.overlap_graph(u))
        rows.append({"layer": SEARCH_ROW, "kappa": kappa, "best_ms": round(best * 1e3, 4),
                     "calls": calls})
        if best > budget:
            skipped = f"one call took over {budget} s at kappa {kappa}"
    return rows


def enumerate_all(u):
    """The number of successful string reductions of u, every sequence consumed."""
    return sum(1 for _ in rewriting.successful_string_reductions(u))


def measure_string_search(repeat, budget, kappas=STRING_SEARCH_KAPPAS):
    """The string search rows: the enumerator up to its cap, and the count sets at every kappa."""
    rows = []
    skipped: dict[str, str] = {}
    for kappa in kappas:
        u = sampling.random_realistic_string(random.Random(SEED), kappa)
        searches = [(COUNT_ROW, functools.partial(rewriting.negative_rule_counts,
                                                  max_domain=kappa - 1))]
        if kappa <= ENUMERATE_KAPPA_CAP:
            searches.insert(0, (ENUMERATE_ROW, enumerate_all))
        for row, fn in searches:
            if row in skipped:
                rows.append({"layer": row, "kappa": kappa, "skipped": skipped[row]})
                continue
            best, calls = best_of(fn, u, repeat, budget)
            rows.append({"layer": row, "kappa": kappa, "best_ms": round(best * 1e3, 4),
                         "calls": calls})
            if best > budget:
                skipped[row] = f"one call took over {budget} s at kappa {kappa}"
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


def search_table(rows):
    lines = [f"| kappa | `{SEARCH_ROW}` |", "|---|---|"]
    lines += [f"| {r['kappa']} | " + ("skipped" if "skipped" in r else f"{r['best_ms']:.3g}") + " |"
              for r in rows]
    return "\n".join(lines)


def string_search_table(rows):
    cell = {(r["layer"], r["kappa"]): r for r in rows}
    lines = [f"| kappa | `{ENUMERATE_ROW}` | `{COUNT_ROW}` |", "|---|---|---|"]
    for kappa in sorted({r["kappa"] for r in rows}):
        values = []
        for row in (ENUMERATE_ROW, COUNT_ROW):
            r = cell.get((row, kappa))
            values.append("—" if r is None else "skipped" if "skipped" in r
                          else f"{r['best_ms']:.3g}")
        lines.append(f"| {kappa} | " + " | ".join(values) + " |")
    return "\n".join(lines)


def cli_table(rows):
    lines = ["| fresh process | best ms | median ms | spread ms | above bare ms |",
             "|---|---|---|---|---|"]
    lines += [f"| `{r['command']}` | {r['best_ms']:.1f} | {r['median_ms']:.1f} "
              f"| {r['spread_ms']:.1f} | {r['above_bare_ms']:.1f} |" for r in rows]
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeat", type=int, default=5, help="calls per case; the best counts")
    parser.add_argument("--budget", type=float, default=10.0, help="seconds per case")
    parser.add_argument("--kappas", type=int, nargs="+", default=list(LADDER))
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_layers.json"))
    args = parser.parse_args(argv)
    if args.repeat < 1 or min(args.kappas) < 2:
        parser.error("--repeat must be >= 1 and every kappa >= 2")

    rows = measure(args.kappas, args.repeat, args.budget)
    search_rows = measure_search(args.repeat, args.budget)
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
        "unit": "ms, best of the calls made",
        "rows": rows,
        "search_rows": search_rows,
        "string_search_rows": string_search_rows,
        "cli_kappa": CLI_KAPPA,
        "cli_rows": cli_rows,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(table(rows, args.kappas))
    print(search_table(search_rows))
    print(string_search_table(string_search_rows))
    print(cli_table(cli_rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
