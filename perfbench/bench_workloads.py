"""The four benchmark workloads.

Each workload makes its inputs from the seed (outside the timed region),
runs one op per input through geneasm's public functions (timed), and
checks the op's output (outside the timed region).  Ops come in blocks
whose mix of input kinds and sizes is fixed, and a run ends only at the
end of a block, so every run does the same mix whatever the seed.
``crossval``, ``scale`` and ``realism`` draw fresh inputs for every
block, as real use would; ``cli`` repeats its commands, each in a fresh
process.

The ``setup`` snippet of each workload is what a fresh interpreter runs
for the ``setup_s`` metric: the imports plus a first call into each layer
the workload uses.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys

from geneasm import cli, compress, direct, iso, overlap, pointers, reduction, rewriting, sampling

import bench_oracle
from bench_spec import SUBSETS

_SETUP_PRELUDE = (
    "import random\n"
    "import geneasm, geneasm.cli\n"
    "from geneasm import compress, direct, iso, overlap, pointers, reduction, rewriting, sampling\n"
    "u = sampling.random_realistic_string(random.Random(0), 4)\n"
    "rg = reduction.ReductionGraph(u)\n"
    "g = overlap.overlap_graph(u)\n"
)


class Workload:
    name = ""
    setup = ""
    sizes: dict = {}
    block = 1  # ops per block

    def __init__(self, root: str, seed: int, size: str = "full"):
        self.root = root
        self.size = self.sizes[size]
        self.rng = random.Random(seed)
        self.current: list = []  # the inputs of the block being run

    def make_input(self, i: int):
        """The input of op i (untimed); a block's inputs are made at its start."""
        if i % self.block == 0:
            self.current = self.make_block()
        return self.current[i % self.block]

    def make_block(self) -> list:
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> str | None:
        """None when the output is right, else what is wrong."""
        raise NotImplementedError

    def describe(self, inp) -> str:
        return repr(inp)[:300]


def _string_text(seq) -> str:
    fmt = "compact" if max(abs(p) for p in seq) <= 9 else "spaced"
    return pointers.format_pointer_string(seq, fmt)


# ---------------------------------------------------------------------------
# crossval

class Crossval(Workload):
    """One trial of `geneasm crossval --kappa 8` per op."""

    name = "crossval"
    setup = _SETUP_PRELUDE + (
        "reduction.is_rooted(rg)\n"
        "d = direct.direct_reduction_graph(g)\n"
        "iso.canonical_labelled(compress.cps(rg)) == iso.canonical_labelled(d)\n"
        "list(rewriting.successful_string_reductions(u))\n"
        "rewriting.successful_in(g, frozenset({'gpr'}))\n"
        "rewriting.successful_in_classifier(g, frozenset({'gpr'}), d.component_count())\n"
    )
    # a block: each kappa in 2..max_kappa per_kappa times, in random order
    sizes = {"full": {"max_kappa": 8, "per_kappa": 10}, "tiny": {"max_kappa": 5, "per_kappa": 1}}

    def __init__(self, root, seed, size="full"):
        super().__init__(root, seed, size)
        self.kappas = list(range(2, self.size["max_kappa"] + 1)) * self.size["per_kappa"]
        self.block = len(self.kappas)

    def make_block(self):
        kappas = list(self.kappas)
        self.rng.shuffle(kappas)
        return [(kappa, sampling.random_realistic_string(self.rng, kappa)) for kappa in kappas]

    def op(self, inp):
        kappa, u = inp
        rg = reduction.ReductionGraph(u)
        g = overlap.overlap_graph(u)
        results = {"root-subgraph": reduction.is_rooted(rg)}
        built = direct.direct_reduction_graph(g)
        results["cps-vs-direct"] = (
            iso.canonical_labelled(compress.cps(rg)) == iso.canonical_labelled(built)
        )
        if kappa <= 5:
            want = rg.component_count() - 1
            counts = {
                sum(1 for r in seq if r.kind == "snr")
                for seq in rewriting.successful_string_reductions(u)
            }
            results["negative-count"] = counts == {want}
        if kappa <= 6:
            comps = built.component_count()
            results["classifier"] = all(
                rewriting.successful_in(g, kinds)
                == rewriting.successful_in_classifier(g, kinds, comps)
                for kinds in SUBSETS
            )
        return results

    def check(self, inp, out):
        kappa = inp[0]
        expected = {"root-subgraph", "cps-vs-direct"}
        expected |= {"negative-count"} if kappa <= 5 else set()
        expected |= {"classifier"} if kappa <= 6 else set()
        if set(out) != expected:
            return f"checks run {sorted(out)}, expected {sorted(expected)}"
        bad = sorted(name for name, ok in out.items() if ok is not True)
        return f"failed checks {bad}" if bad else None

    def describe(self, inp):
        return f"kappa={inp[0]} u={_string_text(inp[1])}"


# ---------------------------------------------------------------------------
# scale

class Scale(Workload):
    """cps(R_u) vs direct(gamma_u) on one large realistic string per op."""

    name = "scale"
    setup = _SETUP_PRELUDE + (
        "iso.canonical_labelled(compress.cps(rg))\n"
        "d = direct.direct_reduction_graph(g)\n"
        "iso.canonical_labelled(d)\n"
        "reduction.is_rooted(rg)\n"
        "rg.component_count() == d.component_count()\n"
    )
    sizes = {"full": {"kappas": (16, 24, 32)}, "tiny": {"kappas": (6, 8, 10)}}

    def __init__(self, root, seed, size="full"):
        super().__init__(root, seed, size)
        self.block = len(self.size["kappas"])

    def make_block(self):
        return [sampling.random_realistic_string(self.rng, kappa) for kappa in self.size["kappas"]]

    def op(self, u):
        g = overlap.overlap_graph(u)
        rg = reduction.ReductionGraph(u)
        compressed = compress.cps(rg)
        built = direct.direct_reduction_graph(g)
        return (
            iso.canonical_labelled(compressed),
            iso.canonical_labelled(built),
            reduction.is_rooted(rg),
            rg.component_count(),
            built.component_count(),
        )

    def check(self, u, out):
        code_cps, code_direct, rooted, comps_rg, comps_direct = out
        if code_cps != code_direct:
            return "cps(R_u) and direct(gamma_u) are not isomorphic"
        if rooted is not True:
            return "R_u is not rooted"
        if comps_rg != comps_direct:
            return f"component counts differ: R_u {comps_rg}, direct {comps_direct}"
        return None

    def describe(self, u):
        return f"kappa={len(u) // 2 + 1} u={_string_text(u)}"


# ---------------------------------------------------------------------------
# realism

class Realism(Workload):
    """What `geneasm classify --graph` does, on overlap-graph JSON.

    Per kappa a block holds ``encoded`` overlap graphs of arrangements,
    ``toggled_real`` graphs one toggle away from one that stay realistic
    and ``toggled_unreal`` ones that do not, drawn afresh for each block.
    Realistic graphs are drawn stratified by the scan rank of their first
    witness: the graphs sorted by rank are cut into ``count`` equal strata
    and one is drawn uniformly from the middle fifth of each, so the scan
    work in a block hardly depends on the draw; each "not realistic"
    verdict costs a full sweep of the arrangement space, whatever the
    graph.
    """

    name = "realism"
    setup = _SETUP_PRELUDE + (
        "h = overlap.parse_overlap_json(overlap.emit_overlap_json(g))\n"
        "overlap.is_realistic_overlap(h)\n"
        "d = direct.direct_reduction_graph(h)\n"
        "rewriting.successful_in_classifier(h, frozenset({'gpr'}), d.component_count())\n"
    )
    # kappa -> (encoded, toggled_real, toggled_unreal)
    sizes = {
        "full": {"mix": {4: (8, 6, 2), 5: (8, 6, 2), 6: (8, 0, 8)}},
        "tiny": {"mix": {4: (2, 1, 1), 5: (2, 1, 1)}},
    }

    def __init__(self, root, seed, size="full"):
        super().__init__(root, seed, size)
        self.tables = {}
        self.candidates = {}  # kappa -> (realistic by rank, toggled realistic by rank, toggled unreal)
        for kappa in sorted(self.size["mix"]):
            table = bench_oracle.realistic_table(kappa)
            self.tables[kappa] = table
            by_rank = sorted(table, key=lambda key: table[key][0])
            toggled = {t for key in by_rank for t in bench_oracle.toggles(key)}
            toggled_by_rank = sorted((t for t in toggled if t in table), key=lambda t: table[t][0])
            unreal = sorted(t for t in toggled if t not in table)
            self.candidates[kappa] = (by_rank, toggled_by_rank, unreal)
        self.block = sum(sum(mix) for mix in self.size["mix"].values())

    def make_block(self):
        per_kappa = []
        for kappa, (encoded, toggled_real, toggled_unreal) in sorted(self.size["mix"].items()):
            by_rank, toggled_by_rank, unreal = self.candidates[kappa]
            items = [("encoded", key) for key in self._stratified(by_rank, encoded)]
            items += [("toggled", key) for key in self._stratified(toggled_by_rank, toggled_real)]
            items += [("toggled", key) for key in self.rng.sample(unreal, toggled_unreal)]
            self.rng.shuffle(items)
            per_kappa.append([self._item(kappa, origin, key) for origin, key in items])
        # interleave the kappas: 4, 5, 6, 4, 5, 6, ...
        return [item for group in zip(*per_kappa) for item in group]

    def _stratified(self, ordered, count):
        # one graph from the middle fifth of each stratum: fresh draws, same scan work
        step = len(ordered) / max(count, 1)
        return [ordered[min(len(ordered) - 1, int((s + 0.4 + 0.2 * self.rng.random()) * step))]
                for s in range(count)]

    def _item(self, kappa, origin, key):
        text = bench_oracle.to_json(key)
        realistic = key in self.tables[kappa]
        verdicts = None
        if realistic:
            g = overlap.parse_overlap_json(text)
            verdicts = tuple(rewriting.successful_in(g, kinds) for kinds in SUBSETS)
        return {"kappa": kappa, "origin": origin, "key": key, "json": text,
                "realistic": realistic, "verdicts": verdicts}

    def op(self, item):
        g = overlap.parse_overlap_json(item["json"])
        witness = overlap.is_realistic_overlap(g)
        if witness is None:
            return None, None
        comps = direct.direct_reduction_graph(g).component_count()
        verdicts = tuple(rewriting.successful_in_classifier(g, kinds, comps) for kinds in SUBSETS)
        return witness, verdicts

    def check(self, item, out):
        witness, verdicts = out
        if witness is None:
            if item["key"] in self.tables[item["kappa"]]:
                return "realistic graph reported not realistic"
            return None
        encoded = overlap.overlap_graph(pointers.encode_arrangement(witness))
        if bench_oracle.key_of_graph(encoded) != item["key"]:
            return f"witness {witness} does not encode to the input graph"
        if verdicts != item["verdicts"]:
            return f"classifier verdicts {verdicts} differ from search {item['verdicts']}"
        return None

    def describe(self, item):
        return f"kappa={item['kappa']} origin={item['origin']} graph={item['json']}"


# ---------------------------------------------------------------------------
# cli

def _subset_name(kinds) -> str:
    names = [k for k in ("gnr", "gpr", "gdr") if k in kinds]
    return "{" + ",".join(k.capitalize() for k in names) + "}"


def _candidate_edges(kappa):
    """Candidate edges of the direct construction, in `direct --explain` order."""
    for p in range(2, kappa + 1):
        for q in range(p + 1, kappa + 1):
            yield f"J{p}", f"J{q}"
    for p in range(2, kappa + 1):
        yield "Jp2", f"J{p}"
        yield f"Jp{kappa}", f"J{p}"
    if kappa > 3:
        yield "Jp2", f"Jp{kappa}"


def _set_text(values) -> str:
    return "{" + ",".join(str(t) for t in sorted(values)) + "}"


class Cli(Workload):
    """One fresh `python -m geneasm.cli` process per op.

    Each command carries the stdout and exit code the library gives for
    the same input, computed in-process before the timed loop.  Strings
    may start with "-", so they follow "--" or are given as
    "--string=VALUE"; `iso-check --strings` reads them from `@file`s.
    """

    name = "cli"
    setup = _SETUP_PRELUDE + (
        "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    geneasm.cli.main(['components', '--', pointers.format_pointer_string(u, 'compact')])\n"
        "    geneasm.cli.main(['overlap', '--', pointers.format_pointer_string(u, 'compact')])\n"
    )
    sizes = {
        "full": {"short_kappa": 8, "realism_kappa": 5,
                 "large": (("overlap", 512), ("cps", 448), ("components", 384),
                           ("reduction-graph", 256))},
        "tiny": {"short_kappa": 5, "realism_kappa": 4,
                 "large": (("overlap", 24), ("cps", 20), ("components", 16),
                           ("reduction-graph", 12))},
    }

    def __init__(self, root, seed, size="full"):
        super().__init__(root, seed, size)
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.files = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out", f"cli-seed{seed}")
        self.commands = self._short_commands() + self._large_commands()
        self.block = len(self.commands)

    def make_block(self):
        return self.commands

    def _file(self, name, seq) -> str:
        """Write seq to a file and return the `@file` argument that reads it."""
        os.makedirs(self.files, exist_ok=True)
        path = os.path.join(self.files, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_string_text(seq) + "\n")
        return "@" + path

    def _realistic(self, kappa):
        return sampling.random_realistic_string(self.rng, kappa)

    def _short_commands(self):
        k = self.size["short_kappa"]
        ok = cli.EXIT_OK
        out = []

        arr = sampling.random_arrangement(self.rng, k)
        out.append((["encode", "--", pointers.format_arrangement(arr)],
                    _string_text(pointers.encode_arrangement(arr)) + "\n", ok))

        u = self._realistic(k)
        out.append((["decode", "--", _string_text(u)],
                    pointers.format_arrangement(pointers.realistic_decode(u)) + "\n", ok))

        u = self._realistic(k)
        out.append((["validate", "--", _string_text(u)], "legal\n", ok))

        u = self._realistic(k)
        count = reduction.ReductionGraph(u).component_count()
        out.append((["components", "--", _string_text(u)], f"{count}\n", ok))

        u = self._realistic(k)
        negative = rewriting.predicted_negative_rule_count(u)
        out.append((["count-negative", "--string=" + _string_text(u)], f"{negative}\n", ok))

        u = self._realistic(k)
        g = overlap.overlap_graph(u)
        comps = direct.direct_reduction_graph(g).component_count()
        lines = "".join(
            f"S={_subset_name(kinds)} successful="
            f"{'true' if rewriting.successful_in_classifier(g, kinds, comps) else 'false'}\n"
            for kinds in SUBSETS
        )
        out.append((["classify", "--string=" + _string_text(u)], lines, ok))

        u = self._realistic(k)
        g = overlap.overlap_graph(u)
        lines = ""
        for a, b in _candidate_edges(k):
            for w in direct.condition_witnesses(g, (a, b)):
                lines += f"{{{a},{b}}} P={_set_text(w.subset)} value={_set_text(w.value)}\n"
        lines += direct.emit_direct_json(direct.direct_reduction_graph(g)) + "\n"
        out.append((["direct", "--string=" + _string_text(u), "--explain"], lines, ok))

        u, v = self._realistic(k), self._realistic(k)
        same = (iso.canonical_2edge(reduction.ReductionGraph(u))
                == iso.canonical_2edge(reduction.ReductionGraph(v)))
        out.append((["iso-check", "--strings", self._file("u", u), self._file("v", v)],
                    "isomorphic\n" if same else "not-isomorphic\n",
                    ok if same else cli.EXIT_NOT_ISO))

        u = self._realistic(self.size["realism_kappa"])
        witness = overlap.is_realistic_overlap(overlap.overlap_graph(u))
        out.append((["check-realism", "--string=" + _string_text(u)],
                    pointers.format_arrangement(witness) + "\n", ok))

        seed = self.rng.randrange(1 << 30)
        rng = random.Random(seed)
        lines = "".join(
            pointers.format_arrangement(sampling.random_arrangement(rng, 7)) + "\n"
            for _ in range(3)
        )
        out.append((["random", "--seed", str(seed), "--kappa", "7", "--count", "3"], lines, ok))
        return out

    def _large_commands(self):
        ok = cli.EXIT_OK
        out = []
        for verb, kappa in self.size["large"]:
            u = self._realistic(kappa)
            text = _string_text(u)
            if verb == "overlap":
                want = overlap.emit_overlap_json(overlap.overlap_graph(u))
                out.append((["overlap", "--", text], want + "\n", ok))
            elif verb == "cps":
                want = iso.canonical_labelled(compress.cps(reduction.ReductionGraph(u)))
                out.append((["cps", "--format", "text", "--", text], want + "\n", ok))
            elif verb == "components":
                want = reduction.ReductionGraph(u).component_count()
                out.append((["components", "--", text], f"{want}\n", ok))
            else:
                rg = reduction.ReductionGraph(u)
                sizes = ",".join(str(len(c)) for c in rg.components())
                want = (f"vertices={2 * rg.n} reality={rg.n} desire={rg.n} "
                        f"components={sizes}\n")
                out.append((["reduction-graph", "--", text], want, ok))
        return out

    def is_short(self, i: int) -> bool:
        return i % self.block < self.block - len(self.size["large"])

    def op(self, command):
        # no timeout: with one, the final wait polls and rounds the latency up
        proc = subprocess.run(
            [sys.executable, "-m", "geneasm.cli", *command[0]],
            cwd=self.root,
            env=self.env,
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
        )
        return proc.returncode, proc.stdout

    def replay(self, command):
        """The same verb in-process (for the traced run)."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(command[0]))
        return code, buf.getvalue()

    def check(self, command, out):
        argv, want_stdout, want_code = command
        code, stdout = out
        if code != want_code:
            return f"exit code {code}, expected {want_code}"
        if stdout != want_stdout:
            return f"stdout differs from the library's answer ({len(stdout)} vs {len(want_stdout)} chars)"
        return None

    def describe(self, command):
        return "geneasm " + " ".join(command[0])[:300]


WORKLOADS = {w.name: w for w in (Crossval, Scale, Realism, Cli)}
