"""The package's immutable value classes behave as the frozen dataclasses they replace."""

import copy
import pickle

import pytest

from geneasm import compress, direct, overlap, pointers, reduction, rewriting


def _values():
    u = pointers.parse_pointer_string("72673456-3-245")
    rg = reduction.ReductionGraph(u)
    g = overlap.overlap_graph(u)
    return [
        rewriting.Rule("gdr", (3, 6)),
        direct.Witness(subset=frozenset({2, 3}), value=frozenset({4})),
        reduction.find_root_subgraphs(rg)[0],
        g,
        compress.cps(rg),
        direct.direct_reduction_graph(g),
    ]


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_pickle_and_copy_round_trip(value):
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value
        with pytest.raises(AttributeError):
            twin.anything = 1


def test_fields_compare_hash_and_show_by_name():
    rule = rewriting.Rule("gdr", (3, 6))
    assert rule == rewriting.Rule("gdr", (3, 6)) != rewriting.Rule("gdr", (3, 7))
    assert hash(rule) == hash(rewriting.Rule("gdr", (3, 6)))
    assert rule != ("gdr", (3, 6))
    assert repr(rule) == "Rule(kind='gdr', params=(3, 6))" and str(rule) == "gdr_{3,6}"
    with pytest.raises(AttributeError):
        rule.kind = "gnr"
    with pytest.raises(AttributeError):
        del rule.params
