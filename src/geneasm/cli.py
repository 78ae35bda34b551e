"""Command-line interface.

One verb per invocation; output is deterministic for a fixed seed.  Exit
codes: 0 success, 2 parse error (argparse uses the same code), 3 input
not legal, 4 realism required but absent, 5 internal invariant
violation, 6 input over a search cap (such as the realism cap, set by
``--max-kappa`` or ``GENEASM_MAX_KAPPA``) or a malformed cap setting.
``iso-check`` additionally exits 1 when the graphs are not isomorphic,
so shell pipelines can branch on the outcome.

``direct``, ``count-negative`` and ``classify`` need a realistic overlap
graph: on ``--graph`` input they decide realism first (exit 4 if the graph
is not realistic, exit 6 over the realism cap).  The verbs that take a
pointer string as a positional argument accept one that starts with a
barred pointer, as in ``geneasm components -3-223``; ``--`` before it
still works.

Only the modules a verb runs are imported: each verb imports its own at
call time, and the package loads its submodules on first use, so
``encode`` loads ``pointers`` and ``errors`` and none of the graph code.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import pointers
from .errors import CapError, LegalityError, ParseError, RealismError

EXIT_OK = 0
EXIT_NOT_ISO = 1
EXIT_PARSE = 2
EXIT_NOT_LEGAL = 3
EXIT_NOT_REALISTIC = 4
EXIT_INTERNAL = 5
EXIT_CAP = 6

SUBSET_ORDER = (
    frozenset(),
    frozenset({"gnr"}),
    frozenset({"gpr"}),
    frozenset({"gdr"}),
    frozenset({"gnr", "gpr"}),
    frozenset({"gnr", "gdr"}),
    frozenset({"gpr", "gdr"}),
    frozenset({"gnr", "gpr", "gdr"}),
)


def _subset_name(kinds) -> str:
    order = {"gnr": 0, "gpr": 1, "gdr": 2}
    names = sorted(kinds, key=order.get)
    return "{" + ",".join(k.capitalize() for k in names) + "}"


def _read_source(value: str) -> str:
    if value == "-":
        return sys.stdin.read()
    if value.startswith("@"):
        with open(value[1:], "r", encoding="utf-8") as fh:
            return fh.read()
    return value


def _parse_string_arg(value: str):
    return pointers.parse_pointer_string(_read_source(value).strip())


def _legal_string_arg(value: str):
    seq = _parse_string_arg(value)
    if not pointers.is_legal(seq):
        raise LegalityError(
            f"not a legal string: {pointers.format_pointer_string(seq)!r}"
        )
    return seq


def _format_string(seq) -> str:
    if seq and max(pointers.magnitude(p) for p in seq) <= 9:
        return pointers.format_pointer_string(seq, "compact")
    return pointers.format_pointer_string(seq, "spaced")


def _overlap_graph_arg(args):
    from . import overlap

    if getattr(args, "graph", None):
        return overlap.parse_overlap_json(_read_source(args.graph))
    return overlap.overlap_graph(_legal_string_arg(args.string))


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# verb implementations

def _cmd_validate(args) -> int:
    seq = _parse_string_arg(args.string)
    legal = pointers.is_legal(seq)
    if args.format == "json":
        import json

        _emit(
            json.dumps(
                {
                    "legal": legal,
                    "domain": sorted(pointers.domain(seq)),
                    "positive": sorted(pointers.positive_set(seq)) if legal else None,
                    "negative": sorted(pointers.negative_set(seq)) if legal else None,
                },
                separators=(",", ":"),
            )
        )
    else:
        _emit("legal" if legal else "not-legal")
    return EXIT_OK if legal else EXIT_NOT_LEGAL


def _cmd_encode(args) -> int:
    arr = pointers.parse_arrangement(_read_source(args.arrangement).strip())
    _emit(_format_string(pointers.encode_arrangement(arr)))
    return EXIT_OK


def _cmd_decode(args) -> int:
    seq = _legal_string_arg(args.string)
    arr = pointers.realistic_decode(seq)
    if arr is None:
        _emit("not-realistic")
        return EXIT_NOT_REALISTIC
    _emit(pointers.format_arrangement(arr))
    return EXIT_OK


def _cmd_overlap(args) -> int:
    from . import overlap

    g = overlap.overlap_graph(_legal_string_arg(args.string))
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

    rg = reduction.ReductionGraph(_legal_string_arg(args.string))
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
        sizes = ",".join(str(len(c)) for c in rg.components())
        _emit(f"vertices={2 * rg.n} reality={rg.n} desire={rg.n} components={sizes}")
    return EXIT_OK


def _cmd_cps(args) -> int:
    from . import compress, reduction

    rg = reduction.ReductionGraph(_legal_string_arg(args.string))
    g = compress.cps(rg)
    if args.format == "dot":
        from . import dot

        _emit(dot.labelled_dot(g, "cps"))
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
    if not g.vertices or not g.contiguous_domain():
        raise RealismError("direct construction needs vertex set {2..kappa}")
    if args.graph:
        overlap.require_realistic(g, max_kappa=args.max_kappa)
    built = direct.direct_reduction_graph(g)
    if args.explain:
        kappa = len(g.vertices) + 1
        for (a, b), _condition in direct.candidate_edges(kappa):
            for w in direct.condition_witnesses(g, (a, b)):
                subset = "{" + ",".join(str(t) for t in sorted(w.subset)) + "}"
                value = "{" + ",".join(str(t) for t in sorted(w.value)) + "}"
                _emit(f"{{{a},{b}}} P={subset} value={value}")
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
    from . import compress, direct, iso, reduction

    sides = []
    if args.cps is not None:
        rg = reduction.ReductionGraph(_legal_string_arg(args.cps))
        sides.append(iso.canonical_labelled(compress.cps(rg)))
    if args.direct is not None:
        sides.append(iso.canonical_labelled(direct.parse_direct_json(_read_source(args.direct))))
    if args.strings is not None:
        for text in args.strings:
            rg = reduction.ReductionGraph(_legal_string_arg(text))
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

    rg = reduction.ReductionGraph(_legal_string_arg(args.string))
    _emit(str(rg.component_count()))
    return EXIT_OK


def _cmd_count_negative(args) -> int:
    from . import overlap, rewriting

    if args.graph:
        g = overlap.parse_overlap_json(_read_source(args.graph))
        if not g.vertices or not g.contiguous_domain():
            raise RealismError("graph-side prediction needs vertex set {2..kappa}")
        overlap.require_realistic(g, max_kappa=args.max_kappa)
        _emit(str(rewriting.predicted_negative_rule_count(g)))
        return EXIT_OK
    seq = _legal_string_arg(args.string)
    if not seq:
        raise LegalityError("the empty string has no negative-rule prediction")
    _emit(str(rewriting.predicted_negative_rule_count(seq)))
    return EXIT_OK


def _cmd_classify(args) -> int:
    from . import direct, overlap, rewriting

    if args.graph:
        g = overlap.parse_overlap_json(_read_source(args.graph))
        overlap.require_realistic(g, max_kappa=args.max_kappa)
    else:
        seq = _legal_string_arg(args.string)
        if not pointers.is_realistic(seq):
            raise RealismError("classification needs a realistic string")
        g = overlap.overlap_graph(seq)
    comps = direct.direct_reduction_graph(g).component_count()
    for kinds in SUBSET_ORDER:
        verdict = rewriting.successful_in_classifier(g, kinds, comps)
        _emit(f"S={_subset_name(kinds)} successful={'true' if verdict else 'false'}")
    return EXIT_OK


def _cmd_check_realism(args) -> int:
    from . import overlap

    g = _overlap_graph_arg(args)
    arr = overlap.is_realistic_overlap(g, max_kappa=args.max_kappa)
    if arr is None:
        _emit("not-realistic")
        return EXIT_NOT_REALISTIC
    _emit(pointers.format_arrangement(arr))
    return EXIT_OK


def _cmd_random(args) -> int:
    import random

    from . import sampling

    rng = random.Random(args.seed)
    for _ in range(args.count):
        arr = sampling.random_arrangement(rng, args.kappa)
        if args.emit == "string":
            _emit(_format_string(pointers.encode_arrangement(arr)))
        else:
            _emit(pointers.format_arrangement(arr))
    return EXIT_OK


def _cmd_crossval(args) -> int:
    """Each failed check also prints the failing input, replayable as ``--string=``."""
    import random

    from . import compress, direct, iso, overlap, reduction, rewriting, sampling

    rng = random.Random(args.seed)
    stats = {
        "root-subgraph": [0, 0],
        "cps-vs-direct": [0, 0],
        "negative-count": [0, 0],
        "classifier": [0, 0],
    }
    for _ in range(args.trials):
        kappa = rng.randint(2, args.kappa)
        u = sampling.random_realistic_string(rng, kappa)
        rg = reduction.ReductionGraph(u)
        g = overlap.overlap_graph(u)
        failed = []

        stats["root-subgraph"][0] += 1
        if not reduction.is_rooted(rg):
            failed.append("root-subgraph")

        built = direct.direct_reduction_graph(g)
        stats["cps-vs-direct"][0] += 1
        if iso.canonical_labelled(compress.cps(rg)) != iso.canonical_labelled(built):
            failed.append("cps-vs-direct")

        if kappa <= 5:
            stats["negative-count"][0] += 1
            want = rg.component_count() - 1
            counts = {
                sum(1 for r in seq if r.kind == "snr")
                for seq in rewriting.successful_string_reductions(u)
            }
            if counts != {want}:
                failed.append("negative-count")

        if kappa <= 6:
            stats["classifier"][0] += 1
            comps = built.component_count()
            for kinds in SUBSET_ORDER:
                brute = rewriting.successful_in(g, kinds)
                closed = rewriting.successful_in_classifier(g, kinds, comps)
                if brute != closed:
                    failed.append("classifier")
                    break

        for check in failed:
            stats[check][1] += 1
            _emit(f"check={check} kappa={kappa} input={_format_string(u)}")
    failures = 0
    for check in ("root-subgraph", "cps-vs-direct", "negative-count", "classifier"):
        ran, bad = stats[check]
        failures += bad
        _emit(f"check={check} trials={ran} failures={bad}")
    return EXIT_OK if failures == 0 else EXIT_INTERNAL


# ---------------------------------------------------------------------------
# argument parsing

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
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", help="overlap graph JSON (@file, -, or literal)")
    src.add_argument("--string", help="legal string whose overlap graph to use")
    p.add_argument("--format", choices=("json", "dot", "text"), default="json")
    p.add_argument("--explain", action="store_true", help="print edge condition witnesses")
    p.add_argument("--max-kappa", type=int, default=None,
                   help="cap for the realism search on graph input")

    p = add("iso-check", _cmd_iso_check, help="compare two graphs up to isomorphism")
    p.add_argument("--cps", help="legal string; compress its reduction graph")
    p.add_argument("--direct", help="direct-construction JSON (@file, -, or literal)")
    p.add_argument("--strings", nargs=2, metavar=("U", "V"),
                   help="compare the reduction graphs of two legal strings")

    p = add("components", _cmd_components, help="component count of the reduction graph")
    p.add_argument("string")

    p = add("count-negative", _cmd_count_negative, help="predicted negative-rule count")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", help="overlap graph JSON (@file, -, or literal)")
    src.add_argument("--string", help="legal string")
    p.add_argument("--max-kappa", type=int, default=None,
                   help="cap for the realism search on graph input")

    p = add("classify", _cmd_classify, help="successfulness for every rule-set choice")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", help="overlap graph JSON (@file, -, or literal)")
    src.add_argument("--string", help="realistic string")
    p.add_argument("--max-kappa", type=int, default=None,
                   help="cap for the realism search on graph input")

    p = add("check-realism", _cmd_check_realism, help="search for a witness arrangement")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", help="overlap graph JSON (@file, -, or literal)")
    src.add_argument("--string", help="legal string whose overlap graph to test")
    p.add_argument("--max-kappa", type=int, default=None)

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


# verbs that take their pointer string as a positional argument
_STRING_VERBS = frozenset({"validate", "decode", "overlap", "reduction-graph", "cps", "components"})
_BARRED_START = re.compile(r"-[0-9]")


def _barred_string_last(argv: list[str]) -> list[str]:
    """Move a positional string that starts with a barred pointer behind "--".

    argparse reads a word such as "-3-223" as an unknown option.  No option
    starts with "-" and a digit, so for a string verb such a word can only
    be the string; behind "--" it parses as one.  A word argparse already
    took as the string (a lone "-3", or one with spaces) parses the same.
    """
    if not argv or argv[0] not in _STRING_VERBS or "--" in argv:
        return argv
    barred = [i for i, word in enumerate(argv) if _BARRED_START.match(word)]
    if len(barred) != 1:
        return argv
    (i,) = barred
    return argv[:i] + argv[i + 1 :] + ["--", argv[i]]


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_barred_string_last(list(sys.argv[1:] if argv is None else argv)))
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except LegalityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_LEGAL
    except RealismError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_REALISTIC
    except CapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except AssertionError as exc:  # pragma: no cover
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
