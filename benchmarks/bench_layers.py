"""Time each layer of the string-side pipeline on its own, over a kappa ladder,
and the short CLI verbs in fresh processes.

    python3 benchmarks/bench_layers.py [--repeat 5] [--budget 10]
                                       [--kappas 8 32 128 512 2048] [--out FILE]

Standard library only; geneasm is imported from the ``src/`` next to this
directory.  For each kappa one realistic string is drawn from
``random.Random(SEED)``, in ladder order, and these layers are timed on it,
each on inputs built beforehand:

    parse_pointer_string       the string in spaced format
    overlap_graph              the parsed string
    ReductionGraph             the parsed string
    cps                        the reduction graph
    direct_reduction_graph     the overlap graph (as ``overlap_graph`` returns it)
    canonical_labelled         the compressed reduction graph
    canonical_2edge            the reduction graph
    ReductionGraph.components  the reduction graph
    find_root_subgraphs        the reduction graph

A case is the best of ``--repeat`` calls timed with ``time.perf_counter``;
it stops early once its calls have taken ``--budget`` seconds together.
A layer whose single call takes longer than the budget is skipped at every
larger kappa, and the skip is recorded.

The CLI rows time whole fresh processes, with the same best-of rule:
``python -c pass`` (the interpreter alone), ``python -c "import geneasm.cli"``,
and ``python -m geneasm.cli VERB ...`` for each short verb on inputs drawn
from ``random.Random(SEED)`` at kappa 8.  What a verb costs over the bare
interpreter is its imports plus its work.  The results go to
``BENCH_layers.json`` at the repository root (or ``--out``) with the Python
version, core count, git SHA and seed, and a table is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from geneasm import compress, direct, iso, overlap, pointers, reduction, sampling  # noqa: E402

SEED = 1
LADDER = (8, 32, 128, 512, 2048)
CLI_KAPPA = 8
CLI_COMMANDS = (
    "python -c pass",
    "import geneasm.cli",
    "encode",
    "decode",
    "validate",
    "random",
    "components",
    "count-negative",
    "classify",
    "direct",
    "iso-check",
    "check-realism",
)
LAYERS = (
    "parse_pointer_string",
    "overlap_graph",
    "ReductionGraph",
    "cps",
    "direct_reduction_graph",
    "canonical_labelled",
    "canonical_2edge",
    "ReductionGraph.components",
    "find_root_subgraphs",
)


def cases(u):
    """Each layer as (function, argument), the argument built outside the timer."""
    text = pointers.format_pointer_string(u)
    rg = reduction.ReductionGraph(u)
    return {
        "parse_pointer_string": (pointers.parse_pointer_string, text),
        "overlap_graph": (overlap.overlap_graph, u),
        "ReductionGraph": (reduction.ReductionGraph, u),
        "cps": (compress.cps, rg),
        "direct_reduction_graph": (direct.direct_reduction_graph, overlap.overlap_graph(u)),
        "canonical_labelled": (iso.canonical_labelled, compress.cps(rg)),
        "canonical_2edge": (iso.canonical_2edge, rg),
        "ReductionGraph.components": (reduction.ReductionGraph.components, rg),
        "find_root_subgraphs": (reduction.find_root_subgraphs, rg),
    }


def best_of(fn, arg, repeat, budget):
    """(best seconds, calls made): one call, then more until repeat calls or budget seconds."""
    times = []
    while not times or (len(times) < repeat and sum(times) < budget):
        start = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - start)
    return min(times), len(times)


def cli_argvs(kappa, workdir):
    """Each of CLI_COMMANDS as the argv of a fresh process; strings may start with "-"."""
    rng = random.Random(SEED)
    arr = sampling.random_arrangement(rng, kappa)
    u, v = (sampling.random_realistic_string(rng, kappa) for _ in range(2))
    text = pointers.format_pointer_string(u, "compact")
    files = []
    for name, seq in (("u", u), ("v", v)):
        path = os.path.join(workdir, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(pointers.format_pointer_string(seq, "compact") + "\n")
        files.append("@" + path)
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
    python = [sys.executable]
    argvs = {"python -c pass": python + ["-c", "pass"],
             "import geneasm.cli": python + ["-c", "import geneasm.cli"]}
    for name, argv in verbs.items():
        argvs[name] = python + ["-m", "geneasm.cli"] + argv
    return argvs


def measure_cli(repeat, budget, kappa=CLI_KAPPA):
    """One row per CLI_COMMANDS entry: best wall time of a fresh process, and its exit code."""
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
            best, calls = best_of(run, argvs[command], repeat, budget)
            rows.append({"command": command, "best_ms": round(best * 1e3, 2),
                         "calls": calls, "exit_code": codes[-1]})
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
    over: dict[str, int] = {}  # layer -> the kappa at which one call went over budget
    for kappa in kappas:
        u = sampling.random_realistic_string(rng, kappa)
        built = cases(u)
        for layer in LAYERS:
            if layer in over:
                rows.append({"layer": layer, "kappa": kappa,
                             "skipped": f"one call took over {budget} s at kappa {over[layer]}"})
                continue
            fn, arg = built[layer]
            best, calls = best_of(fn, arg, repeat, budget)
            rows.append({"layer": layer, "kappa": kappa, "best_ms": round(best * 1e3, 4),
                         "calls": calls})
            if best > budget:
                over[layer] = kappa
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


def cli_table(rows):
    lines = ["| fresh process | best ms |", "|---|---|"]
    lines += [f"| `{r['command']}` | {r['best_ms']:.1f} |" for r in rows]
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
        "repeat": args.repeat,
        "budget_s": args.budget,
        "kappas": args.kappas,
        "unit": "ms, best of the calls made",
        "rows": rows,
        "cli_kappa": CLI_KAPPA,
        "cli_rows": cli_rows,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(table(rows, args.kappas))
    print(cli_table(cli_rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
