"""What the traced run times, and the rule sets the workloads classify.

Workload and metric names, units, directions and bounds live in
``BENCHMARK.json`` at the repository root; ``run.py`` reads them there.
"""

from __future__ import annotations

# Rule-set choices S of {Gnr, Gpr, Gdr}, in the order `geneasm classify` prints.
SUBSETS = (
    frozenset(),
    frozenset({"gnr"}),
    frozenset({"gpr"}),
    frozenset({"gdr"}),
    frozenset({"gnr", "gpr"}),
    frozenset({"gnr", "gdr"}),
    frozenset({"gpr", "gdr"}),
    frozenset({"gnr", "gpr", "gdr"}),
)

# Functions timed in the traced run: metric prefix -> (module, attribute path).
# A dotted attribute path names a method, patched on its class.
LAYER_FUNCTIONS = {
    "direct.direct_reduction_graph": ("direct", "direct_reduction_graph"),
    "direct.condition_witnesses": ("direct", "condition_witnesses"),
    "rewriting.successful_in": ("rewriting", "successful_in"),
    "rewriting.successful_string_reductions": ("rewriting", "successful_string_reductions"),
    "rewriting.successful_in_classifier": ("rewriting", "successful_in_classifier"),
    "rewriting.predicted_negative_rule_count": ("rewriting", "predicted_negative_rule_count"),
    "overlap.is_realistic_overlap": ("overlap", "is_realistic_overlap"),
    "kernels.scan_for_arrangement": ("kernels", "scan_for_arrangement"),
    "overlap.overlap_graph": ("overlap", "overlap_graph"),
    "overlap.parse_overlap_json": ("overlap", "parse_overlap_json"),
    "overlap.emit_overlap_json": ("overlap", "emit_overlap_json"),
    "reduction.ReductionGraph": ("reduction", "ReductionGraph.__init__"),
    "reduction.component_count": ("reduction", "ReductionGraph.component_count"),
    "reduction.find_root_subgraphs": ("reduction", "find_root_subgraphs"),
    "compress.cps": ("compress", "cps"),
    "iso.canonical_labelled": ("iso", "canonical_labelled"),
    "iso.canonical_2edge": ("iso", "canonical_2edge"),
    "pointers.parse_pointer_string": ("pointers", "parse_pointer_string"),
    "pointers.is_realistic": ("pointers", "is_realistic"),
    "pointers.encode_arrangement": ("pointers", "encode_arrangement"),
    "sampling.random_realistic_string": ("sampling", "random_realistic_string"),
    "cli.main": ("cli", "main"),
}

# Layers whose callees are not traced: input generation is one opaque step.
OPAQUE_LAYERS = {"sampling.random_realistic_string"}

# The direct construction's test of one candidate edge: counted, not timed.
# Each call is a candidate evaluated; a non-empty result is an edge found.
EDGE_TEST = ("direct", "_matching_subsets")
