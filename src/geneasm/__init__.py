"""Gene assembly formalism: pointer strings, overlap and reduction graphs.

The package models micronuclear genes as legal pointer strings, builds
their overlap and reduction graphs, compresses reduction graphs to
labelled graphs, reconstructs the compressed reduction graph directly
from a realistic overlap graph, and provides the string/graph pointer
reduction systems with exhaustive search oracles and the closed-form
successfulness classification.
"""

from .compress import ColouredGraph, LabelledGraph, cps, swap_colours
from .direct import (
    Witness,
    condition_witnesses,
    direct_reduction_graph,
    emit_direct_json,
    parse_direct_json,
)
from .errors import CapError, GeneAsmError, LegalityError, ParseError, RealismError
from .iso import (
    brute_force_isomorphic,
    brute_force_isomorphic_2edge,
    canonical_2edge,
    canonical_labelled,
)
from .overlap import (
    OverlapGraph,
    emit_overlap_json,
    is_realistic_overlap,
    overlap_graph,
    parse_overlap_json,
)
from .pointers import (
    bar,
    complement,
    conjugates,
    domain,
    encode_arrangement,
    format_arrangement,
    format_pointer_string,
    inverse,
    is_legal,
    is_realistic,
    kappa_of,
    magnitude,
    negative_set,
    overlap_set,
    parse_arrangement,
    parse_pointer_string,
    positional_overlap,
    positive_set,
    realistic_decode,
    reversal,
)
from .reduction import (
    ReductionGraph,
    RootSubgraph,
    find_root_subgraphs,
    is_rooted,
    position,
    rspos,
)
from .rewriting import (
    GraphRule,
    Rule,
    StringRule,
    applicable_graph_rules,
    applicable_string_rules,
    apply_graph_rule,
    apply_string_rule,
    format_rule_sequence,
    parse_rule_sequence,
    predicted_negative_rule_count,
    successful_graph_reductions,
    successful_in,
    successful_in_classifier,
    successful_string_reductions,
)

__version__ = "0.1.0"
