"""Gene assembly formalism: pointer strings, overlap and reduction graphs.

The package models micronuclear genes as legal pointer strings, builds
their overlap and reduction graphs, compresses reduction graphs to
labelled graphs, reconstructs the compressed reduction graph directly
from a realistic overlap graph, and provides the string/graph pointer
reduction systems with exhaustive search oracles and the closed-form
successfulness classification.

Submodules load on first use (PEP 562): ``geneasm.cps`` or
``from geneasm import cps`` imports ``geneasm.compress`` then, not when
the package is imported, so a CLI verb pays only for what it runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "compress": ("LabelledGraph", "cps"),
        "direct": (
            "Witness",
            "condition_witnesses",
            "direct_reduction_graph",
            "emit_direct_json",
            "parse_direct_json",
        ),
        "errors": ("CapError", "GeneAsmError", "LegalityError", "ParseError", "RealismError"),
        "iso": ("canonical_2edge", "canonical_labelled"),
        "overlap": (
            "OverlapGraph",
            "emit_overlap_json",
            "is_realistic_overlap",
            "overlap_graph",
            "parse_overlap_json",
        ),
        "pointers": (
            "bar",
            "complement",
            "conjugates",
            "domain",
            "encode_arrangement",
            "format_arrangement",
            "format_pointer_string",
            "inverse",
            "is_legal",
            "is_realistic",
            "kappa_of",
            "magnitude",
            "negative_set",
            "overlap_set",
            "parse_arrangement",
            "parse_pointer_string",
            "positional_overlap",
            "positive_set",
            "realistic_decode",
            "reversal",
        ),
        "reduction": (
            "ReductionGraph",
            "RootSubgraph",
            "find_root_subgraphs",
            "is_rooted",
            "position",
            "rspos",
        ),
        "rewriting": (
            "Rule",
            "applicable_graph_rules",
            "applicable_string_rules",
            "apply_graph_rule",
            "apply_string_rule",
            "format_rule_sequence",
            "negative_rule_counts",
            "parse_rule_sequence",
            "predicted_negative_rule_count",
            "successful_graph_reductions",
            "successful_in",
            "successful_in_classifier",
            "successful_rule_sets",
            "successful_string_reductions",
        ),
    }.items()
    for name in names
}
_SUBMODULES = frozenset(_EXPORTS.values()) | {"cli", "dot", "kernels", "sampling"}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
