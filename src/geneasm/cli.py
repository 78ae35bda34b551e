"""Command-line interface.

One verb per invocation; output is deterministic for a fixed seed.  Exit
codes: 0 success, 2 parse error (argparse uses the same code), 3 input
not legal, 4 realism required but absent, 5 internal invariant
violation, 6 direct-construction JSON with kappa over
``direct.MAX_DIRECT_KAPPA``, 141 when the reader of stdout closes it
early (128 + SIGPIPE, as a shell reports a process that SIGPIPE ended),
with nothing printed.  No verb reaches a rewriting search cap:
``classify`` decides by the classifier, with no search and no cap, and
``crossval`` searches only within the default caps; library callers of
the two enumerators still get ``CapError``.
``iso-check`` additionally exits 1 when the graphs are not isomorphic,
so shell pipelines can branch on the outcome.  An error prints one
``error:`` line; its exit code comes from one table, ``_EXIT_CODES``, and
is 2 for any other ``ValueError``, an unreadable ``@file`` or a missing
option value (``--graph=``; ``--string=--``, which argparse reads as none).

Exit 4 comes only from ``direct``, ``decode`` and ``check-realism``.
``direct`` needs a realistic overlap graph: on either input it decides
realism first and exits 4 with ``overlap graph is not realistic`` if it
is not (a vertex set other than {2..kappa} included).  Realism is
decided by reconstruction, with no search and no cap on kappa.
``classify`` and ``count-negative`` read only the overlap graph's GF(2)
nullity and components: they decide no realism and answer on every
signed graph and legal string, on any vertex set.  So each of the four
verbs that take ``--graph`` or ``--string`` answers a legal string u
exactly as it answers ``--graph`` with u's overlap graph: the same exit
code, stdout and stderr.

A pointer string that starts with a barred pointer is read wherever a
value goes, as a positional argument or as an option's value:
``geneasm components -3-223``, ``count-negative --string -32-23`` and
``iso-check --strings -32-23 2323`` all work.  argparse would read such a
word as an unknown option, so before it parses, each word ahead of ``--``
that is "-", digits and then anything else gets a leading space, which
argparse reads as a value and the string parser strips.  A negative
integer such as ``--seed -5`` is left to argparse, which reads it as a
value already.

Only the modules a verb runs are imported: each verb imports its own at
call time, and the package's ``__init__`` imports nothing, so
``encode`` loads ``pointers`` and ``errors`` and none of the graph code.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from itertools import combinations_with_replacement

from . import pointers
from .errors import CapError, LegalityError, ParseError, RealismError

EXIT_OK = 0
EXIT_NOT_ISO = 1
EXIT_PARSE = 2
EXIT_NOT_LEGAL = 3
EXIT_NOT_REALISTIC = 4
EXIT_INTERNAL = 5
EXIT_CAP = 6
EXIT_PIPE = 141

_EXIT_CODES = {LegalityError: EXIT_NOT_LEGAL, RealismError: EXIT_NOT_REALISTIC, CapError: EXIT_CAP}

def _read_source(value) -> str:
    if not isinstance(value, str):
        raise ParseError("missing option value")
    if value == "-":
        return sys.stdin.read()
    if value.startswith("@"):
        with open(value[1:], "r", encoding="utf-8") as fh:
            return fh.read()
    return value


def _parse_string_arg(value: str):
    return pointers.parse_pointer_string(_read_source(value).strip())


def _format_string(seq) -> str:
    if seq and max(pointers.magnitude(p) for p in seq) <= 9:
        return pointers.format_pointer_string(seq, "compact")
    return pointers.format_pointer_string(seq, "spaced")


def _overlap_graph_arg(args):
    """The overlap graph of ``--graph`` JSON or of the ``--string``."""
    from . import overlap

    if args.graph is not None:
        return overlap.parse_overlap_json(_read_source(args.graph))
    return overlap.overlap_graph(_parse_string_arg(args.string))


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_witness(arr) -> int:
    """A witness arrangement (exit 0), or "not-realistic" (exit 4) when there is none."""
    if arr is None:
        _emit("not-realistic")
        return EXIT_NOT_REALISTIC
    _emit(pointers.format_arrangement(arr))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verb implementations

def _cmd_validate(args) -> int:
    seq = _parse_string_arg(args.string)
    legal = pointers.is_legal(seq)
    if args.format == "json":
        import json

        dom = pointers.domain(seq)
        positive = pointers.positive_set(seq) if legal else None
        _emit(json.dumps({"legal": legal, "domain": sorted(dom),
                          "positive": sorted(positive) if legal else None,
                          "negative": sorted(dom - positive) if legal else None},
                         separators=(",", ":")))
    else:
        _emit("legal" if legal else "not-legal")
    return EXIT_OK if legal else EXIT_NOT_LEGAL


def _cmd_encode(args) -> int:
    arr = pointers.parse_arrangement(_read_source(args.arrangement).strip())
    _emit(_format_string(pointers.encode_arrangement(arr)))
    return EXIT_OK


def _cmd_decode(args) -> int:
    seq = _parse_string_arg(args.string)
    arr = pointers.realistic_decode(seq)  # its one pass decides legality too
    if arr is None:
        pointers.occurrence_index(seq)  # exit 3, not 4, for a string that is not legal
    return _emit_witness(arr)


def _cmd_overlap(args) -> int:
    from . import overlap

    g = overlap.overlap_graph(_parse_string_arg(args.string))
    if args.format == "dot":
        from . import dot

        _emit(dot.overlap_dot(g))
    elif args.format == "text":
        _emit("vertices: " + " ".join(f"{p}{g.sign(p)}" for p in g.vertex_order))
        _emit("edges: " + " ".join(f"{p}-{q}" for p, above in g.neighbors_above() for q in above))
    else:
        _emit(overlap.emit_overlap_json(g))
    return EXIT_OK


def _cmd_reduction_graph(args) -> int:
    from . import reduction

    rg = reduction.ReductionGraph(_parse_string_arg(args.string))
    if args.format == "dot":
        from . import dot

        _emit(dot.reduction_dot(rg))
    elif args.format == "json":
        import json

        payload = {
            "n": rg.n,
            "labels": {reduction.vertex_name(v): rg.label(v) for v in rg.vertices},
            "reality": [sorted(map(reduction.vertex_name, e)) for e in rg.reality_edges],
            "desire": sorted(
                sorted(map(reduction.vertex_name, e)) for e in rg.desire_edges
            ),
        }
        _emit(json.dumps(payload, separators=(",", ":"), sort_keys=True))
    else:
        sizes = ",".join(str(len(c)) for c in rg.cycles())
        _emit(f"vertices={2 * rg.n} reality={rg.n} desire={rg.n} components={sizes}")
    return EXIT_OK


def _cmd_cps(args) -> int:
    from . import compress, reduction

    rg = reduction.ReductionGraph(_parse_string_arg(args.string))
    g = compress.cps(rg)
    if args.format == "dot":
        from . import dot

        _emit(dot.cps_dot(g))
    elif args.format == "text":
        from . import iso

        _emit(iso.canonical_labelled(g))
    else:
        import json

        order = sorted(g.labels, key=str)
        node = {v: idx for idx, v in enumerate(order)}
        payload = {
            "labels": [g.labels[v] for v in order],
            "edges": sorted(sorted((node[a], node[b])) for a, b in map(sorted, g.edges)),
        }
        _emit(json.dumps(payload, separators=(",", ":")))
    return EXIT_OK


def _cmd_direct(args) -> int:
    from . import direct, overlap

    g = _overlap_graph_arg(args)
    overlap.require_realistic(g)
    built = direct.direct_reduction_graph(g)
    if args.explain:
        for line in direct.explain_lines(g):
            _emit(line)
    if args.format == "dot":
        from . import dot

        _emit(dot.direct_dot(built))
    elif args.format == "text":
        from . import iso

        _emit(iso.canonical_labelled(built))
    else:
        _emit(direct.emit_direct_json(built))
    return EXIT_OK


def _cmd_iso_check(args) -> int:
    from . import iso, reduction

    sides = []
    if args.cps is not None:  # the code of cps(R_u), read without building it
        sides.append(iso.canonical_2edge(reduction.ReductionGraph(_parse_string_arg(args.cps))))
    if args.direct is not None:
        from . import direct

        sides.append(iso.canonical_labelled(direct.parse_direct_json(_read_source(args.direct))))
    if args.strings is not None:
        for text in args.strings:
            rg = reduction.ReductionGraph(_parse_string_arg(text))
            sides.append(iso.canonical_2edge(rg))
    if len(sides) != 2:
        raise ParseError("iso-check compares exactly two graphs "
                         "(--cps STRING and/or --direct FILE, or --strings U V)")
    if sides[0] == sides[1]:
        _emit("isomorphic")
        return EXIT_OK
    _emit("not-isomorphic")
    return EXIT_NOT_ISO


def _cmd_components(args) -> int:
    from . import reduction

    rg = reduction.ReductionGraph(_parse_string_arg(args.string))
    _emit(str(rg.component_count()))
    return EXIT_OK


def _cmd_count_negative(args) -> int:
    from . import rewriting

    _emit(str(rewriting.predicted_negative_rule_count(_overlap_graph_arg(args))))
    return EXIT_OK


def _cmd_classify(args) -> int:
    from . import rewriting

    # on a string, its occurrence index is the legality check
    sets = rewriting.successful_rule_sets(_overlap_graph_arg(args))
    for kinds in rewriting.SET_ORDER:
        name = ",".join(k.capitalize() for k in rewriting.GRAPH_KINDS if k in kinds)
        _emit(f"S={{{name}}} successful={'true' if kinds in sets else 'false'}")
    return EXIT_OK


def _cmd_check_realism(args) -> int:
    from . import overlap

    return _emit_witness(overlap.is_realistic_overlap(_overlap_graph_arg(args)))


def _cmd_random(args) -> int:
    import random

    from . import sampling

    if args.count < 0:
        raise ValueError("count must be >= 0")
    rng = random.Random(args.seed)
    for _ in range(args.count):
        arr = sampling.random_arrangement(rng, args.kappa)
        if args.emit == "string":
            _emit(_format_string(pointers.encode_arrangement(arr)))
        else:
            _emit(pointers.format_arrangement(arr))
    return EXIT_OK


def _toggled(g, index: int):
    """g with one sign or one edge toggled: the index-th pair p <= q of its vertices, cyclically.

    A pair p == p toggles the sign of p, a pair p < q the edge p-q.
    """
    from . import overlap

    pairs = list(combinations_with_replacement(g.vertex_order, 2))
    p, q = pairs[index % len(pairs)]
    if p == q:
        return overlap.OverlapGraph(g.vertices, g.positive ^ {p}, g.edges)
    return overlap.OverlapGraph(g.vertices, g.positive, g.edges ^ {(p, q)})


def _cmd_crossval(args) -> int:
    """Each failed check also prints the failing input: ``input=``, replayable as
    ``--string=``, or for a check on a graph ``graph=``, replayable as ``--graph``.

    The graph-side checks run on γ_u and on a graph one toggle away from it,
    which need not be realistic.  The toggle comes from the trial's index
    (``_toggled``), not from the random draws, so the draws, and the lines
    of the checks on u, do not depend on the checks on the toggled graph.
    """
    import random

    from . import compress, direct, iso, overlap, reduction, rewriting, sampling

    if args.kappa < 2:
        raise ValueError("kappa must be >= 2")
    if args.trials < 0:
        raise ValueError("trials must be >= 0")

    def classifier_matches_search(h) -> bool:
        return rewriting.successful_rule_sets(h) == [
            s for s in rewriting.SET_ORDER
            if next(rewriting.successful_graph_reductions(h, s), None) is not None
        ]

    def every_reduction_uses_nullity_gnr(h) -> bool:
        want = h.nullity()
        return all(sum(r.kind == "gnr" for r in seq) == want
                   for seq in rewriting.successful_graph_reductions(h))

    rng = random.Random(args.seed)
    ran = dict.fromkeys(("root-subgraph", "cps-vs-direct", "negative-count", "classifier",
                         "classifier-toggled", "graph-negative-count"), 0)
    bad = dict.fromkeys(ran, 0)
    for trial in range(args.trials):
        kappa = rng.randint(2, args.kappa)
        u = sampling.random_realistic_string(rng, kappa)
        rg = reduction.ReductionGraph(u)
        g = overlap.overlap_graph(u)
        built = direct.direct_reduction_graph(g)
        passed = {
            "root-subgraph": reduction.is_rooted(rg),
            "cps-vs-direct":
                iso.canonical_labelled(compress.cps(rg)) == iso.canonical_labelled(built),
        }
        replay = {}  # check -> the failing input, when it is not u
        if kappa <= 5:
            passed["negative-count"] = {
                sum(r.kind == "snr" for r in seq)
                for seq in rewriting.successful_string_reductions(u)
            } == {rg.component_count() - 1}
        if kappa <= 6:
            toggled = _toggled(g, trial)
            passed["classifier"] = classifier_matches_search(g)
            passed["classifier-toggled"] = classifier_matches_search(toggled)
            replay["classifier-toggled"] = toggled
            if kappa <= 5:
                wrong = [h for h in (g, toggled) if not every_reduction_uses_nullity_gnr(h)]
                passed["graph-negative-count"] = not wrong
                replay["graph-negative-count"] = wrong[0] if wrong else None
        for check, ok in passed.items():
            ran[check] += 1
            if not ok:
                bad[check] += 1
                h = replay.get(check)
                source = (f"input={_format_string(u)}" if h is None
                          else f"graph={overlap.emit_overlap_json(h)}")
                _emit(f"check={check} kappa={kappa} {source}")
    for check in ran:
        _emit(f"check={check} trials={ran[check]} failures={bad[check]}")
    return EXIT_OK if not any(bad.values()) else EXIT_INTERNAL


# ---------------------------------------------------------------------------
# argument parsing

def _graph_or_string(p, string_help) -> None:
    """The input of the overlap-graph verbs: ``--graph`` or ``--string``."""
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", help="overlap graph JSON (@file, -, or literal)")
    src.add_argument("--string", help=string_help)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geneasm",
        description="Gene assembly pipelines: strings, overlap graphs, reduction graphs.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("validate", _cmd_validate, help="check the two-occurrence condition")
    p.add_argument("string")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = add("encode", _cmd_encode, help="arrangement to pointer string")
    p.add_argument("arrangement")

    p = add("decode", _cmd_decode, help="pointer string to a witness arrangement")
    p.add_argument("string")

    p = add("overlap", _cmd_overlap, help="overlap graph of a legal string")
    p.add_argument("string")
    p.add_argument("--format", choices=("json", "dot", "text"), default="json")

    p = add("reduction-graph", _cmd_reduction_graph, help="reduction graph of a legal string")
    p.add_argument("string")
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")

    p = add("cps", _cmd_cps, help="compressed reduction graph of a legal string")
    p.add_argument("string")
    p.add_argument("--format", choices=("json", "dot", "text"), default="json")

    p = add("direct", _cmd_direct, help="reduction graph built from an overlap graph")
    _graph_or_string(p, "legal string whose overlap graph to use")
    p.add_argument("--format", choices=("json", "dot", "text"), default="json")
    p.add_argument("--explain", action="store_true", help="print edge condition witnesses")

    p = add("iso-check", _cmd_iso_check, help="compare two graphs up to isomorphism")
    p.add_argument("--cps", help="legal string; compress its reduction graph")
    p.add_argument("--direct", help="direct-construction JSON (@file, -, or literal)")
    p.add_argument("--strings", nargs=2, metavar=("U", "V"),
                   help="compare the reduction graphs of two legal strings")

    p = add("components", _cmd_components, help="component count of the reduction graph")
    p.add_argument("string")

    p = add("count-negative", _cmd_count_negative, help="predicted negative-rule count")
    _graph_or_string(p, "legal string")

    p = add("classify", _cmd_classify, help="successfulness for every rule-set choice")
    _graph_or_string(p, "legal string")

    p = add("check-realism", _cmd_check_realism, help="a witness arrangement of the overlap graph")
    _graph_or_string(p, "legal string whose overlap graph to test")

    p = add("random", _cmd_random, help="seeded random arrangements")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--kappa", type=int, default=7)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--emit", choices=("arrangement", "string"), default="arrangement")

    p = add("crossval", _cmd_crossval, help="randomized validation of the main results")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--kappa", type=int, default=8)

    return parser


_BARRED_WORD = re.compile(r"-[0-9]+[^0-9]")


def _barred_words_as_values(argv: list[str]) -> list[str]:
    """argv with a space before each word ahead of "--" that starts with a barred pointer.

    No option starts with "-" and a digit, so such a word ("-3-223") can
    only be a value; the space makes argparse read it as one.
    """
    end = argv.index("--") if "--" in argv else len(argv)
    return [" " + word if _BARRED_WORD.match(word) else word for word in argv[:end]] + argv[end:]


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_barred_words_as_values(list(sys.argv[1:] if argv is None else argv)))
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a short output meets a closed pipe only here
        return code
    except BrokenPipeError:
        # stdout's reader is gone: send stdout to devnull, so the flush at exit is silent too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES.get(type(exc), EXIT_PARSE)
    except AssertionError as exc:  # pragma: no cover
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
