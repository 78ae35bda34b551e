import io
import json
import os
import random
import subprocess
import sys
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import strategies
from builders import shuffled_string
from geneasm import cli, errors, overlap, pointers, rewriting, sampling


def run(argv):
    import contextlib

    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _searched_stdout(verb, g, max_kappa=7):
    """What ``classify`` or ``count-negative`` should print for g, from the searches.

    classify: one line per rule set, true when the per-set search in
    tests/oracles.py reduces g with it.  count-negative: the gnr count of
    the first 1,000 successful reductions, which must all agree.
    """
    if verb == "classify":
        return "".join(
            "S={" + ",".join(k.capitalize() for k in rewriting.GRAPH_KINDS if k in s)
            + "} successful=" + ("true" if oracles.successful_in_per_set(g, s) else "false")
            + "\n"
            for s in rewriting.SET_ORDER
        )
    reductions = rewriting.successful_graph_reductions(g, max_kappa=max_kappa)
    (count,) = {sum(r.kind == "gnr" for r in seq) for seq in islice(reductions, 1000)}
    return f"{count}\n"


class TestBasicVerbs:
    def test_validate(self):
        code, out, _ = run(["validate", "24535423"])
        assert (code, out) == (0, "legal\n")
        code, out, _ = run(["validate", "232"])
        assert (code, out) == (3, "not-legal\n")
        code, out, _ = run(["validate", "2244", "--format", "json"])
        assert code == 0
        assert json.loads(out) == {
            "legal": True,
            "domain": [2, 4],
            "positive": [],
            "negative": [2, 4],
        }

    def test_encode(self):
        code, out, _ = run(["encode", "M7 M1 M6 M3 M5 -M2 M4"])
        assert (code, out) == (0, "72673456-3-245\n")

    def test_encode_parse_error(self):
        code, _, err = run(["encode", "M1 bogus"])
        assert code == 2
        assert "malformed" in err

    def test_decode(self):
        code, out, _ = run(["decode", "72673456-3-245"])
        assert (code, out) == (0, "M7 M1 M6 M3 M5 -M2 M4\n")
        code, out, _ = run(["decode", "234432"])
        assert (code, out) == (4, "not-realistic\n")

    def test_decode_tells_not_legal_from_not_realistic(self, monkeypatch):
        assert run(["decode", "2342"]) == (3, "", "error: not a legal string: '2 3 4 2'\n")
        assert run(["decode", "2-3-3"]) == (3, "", "error: not a legal string: '2 -3 -3'\n")
        assert run(["decode", "234432"]) == (4, "not-realistic\n", "")
        assert run(["decode", "2244"]) == (4, "not-realistic\n", "")
        # a string that decodes costs one legality pass
        passes = []
        occurrences = pointers._occurrences
        monkeypatch.setattr(pointers, "_occurrences", lambda seq: passes.append(seq) or
                            occurrences(seq))
        assert run(["decode", "72673456-3-245"]) == (0, "M7 M1 M6 M3 M5 -M2 M4\n", "")
        assert len(passes) == 1

    def test_components(self):
        code, out, _ = run(["components", "453475623267"])
        assert (code, out) == (0, "3\n")

    def test_count_negative(self):
        code, out, _ = run(["count-negative", "--string", "453475623267"])
        assert (code, out) == (0, "2\n")
        code, out, _ = run(["count-negative", "--string", "72673456-3-245"])
        assert (code, out) == (0, "1\n")
        # the empty string's one reduction is the empty sequence
        (count,) = oracles.negative_rule_counts(())
        assert run(["count-negative", "--string="]) == (0, f"{count}\n", "")

    def test_overlap_dot_golden(self):
        code, out, _ = run(["overlap", "2323", "--format", "dot"])
        assert code == 0
        assert out == (
            "graph overlap {\n"
            '  v2 [label="2-"];\n'
            '  v3 [label="3-"];\n'
            "  v2 -- v3;\n"
            "}\n"
        )

    def test_overlap_formats(self):
        code, out, _ = run(["overlap", "24535423"])
        assert code == 0
        assert json.loads(out) == {
            "vertices": [
                {"p": 2, "sign": "-"},
                {"p": 3, "sign": "-"},
                {"p": 4, "sign": "-"},
                {"p": 5, "sign": "-"},
            ],
            "edges": [[2, 3], [3, 4], [3, 5]],
        }
        code, out, _ = run(["overlap", "24535423", "--format", "text"])
        assert out == "vertices: 2- 3- 4- 5-\nedges: 2-3 3-4 3-5\n"
        code, out, _ = run(["overlap", "24535423", "--format", "dot"])
        assert out.startswith("graph overlap {\n")
        assert '  v3 [label="3-"];' in out

    def test_reduction_graph_formats(self):
        code, out, _ = run(["reduction-graph", "32-43-24"])
        assert (code, out) == (0, "vertices=12 reality=6 desire=6 components=8,4\n")
        code, out, _ = run(["reduction-graph", "32-43-24", "--format", "dot"])
        assert out.count("penwidth=2") == 6
        assert out.count("style=dashed") == 6
        assert "I1 [" in out and "Ip1 [" in out

    def test_empty_graph_dot(self):
        code, out, _ = run(["reduction-graph", "", "--format", "dot"])
        assert (code, out) == (0, "graph reduction {\n}\n")

    def test_reduction_graph_json(self):
        code, out, _ = run(["reduction-graph", "22", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 2
        assert payload["labels"] == {"I1": 2, "Ip1": 2, "I2": 2, "Ip2": 2}
        assert payload["reality"] == [["I2", "Ip1"], ["I1", "Ip2"]]
        assert payload["desire"] == [["I1", "Ip2"], ["I2", "Ip1"]]

    def test_cps_dot_and_text(self):
        code, out, _ = run(["cps", "72673456-3-245", "--format", "text"])
        assert (code, out) == (0, "c[2,3,4,5,6,7]|c[2,4,5,7,3,6]\n")
        code, out, _ = run(["cps", "22", "--format", "dot"])
        assert code == 0
        assert out.count(" -- ") == 0 and out.count("label=") == 2



# Full stdout of the reduction-graph and cps verbs, taken from the
# frozenset-edge construction they replaced.  The 12-letter DOT rows were
# taken before the DOT writers became one: past position 9 the cps drawing's
# node numbers (str order of the vertex ids) and its edge order (id
# tuples) disagree, as in ``n1 -- n4`` before ``n1 -- n3``.
_GOLDEN = {
    ("reduction-graph", "json", "32-43-24"):
        '{"desire":[["I1","Ip4"],["I2","I5"],["I3","I6"],["I4","Ip1"],["Ip2","Ip5"],["Ip3","Ip6"]],'
        '"labels":{"I1":3,"I2":2,"I3":4,"I4":3,"I5":2,"I6":4,"Ip1":3,"Ip2":2,"Ip3":4,"Ip4":3,'
        '"Ip5":2,"Ip6":4},"n":6,"reality":[["I2","Ip1"],["I3","Ip2"],["I4","Ip3"],["I5","Ip4"],'
        '["I6","Ip5"],["I1","Ip6"]]}\n',
    ("reduction-graph", "dot", "32-43-24"):
        'graph reduction {\n  I1 [label="3"];\n  Ip1 [label="3"];\n  I2 [label="2"];\n'
        '  Ip2 [label="2"];\n  I3 [label="4"];\n  Ip3 [label="4"];\n  I4 [label="3"];\n'
        '  Ip4 [label="3"];\n  I5 [label="2"];\n  Ip5 [label="2"];\n  I6 [label="4"];\n'
        '  Ip6 [label="4"];\n  Ip1 -- I2 [penwidth=2];\n  Ip2 -- I3 [penwidth=2];\n'
        '  Ip3 -- I4 [penwidth=2];\n  Ip4 -- I5 [penwidth=2];\n  Ip5 -- I6 [penwidth=2];\n'
        '  I1 -- Ip6 [penwidth=2];\n  I1 -- Ip4 [style=dashed];\n  Ip1 -- I4 [style=dashed];\n'
        '  I2 -- I5 [style=dashed];\n  Ip2 -- Ip5 [style=dashed];\n  I3 -- I6 [style=dashed];\n'
        '  Ip3 -- Ip6 [style=dashed];\n}\n',
    ("reduction-graph", "text", "32-43-24"):
        "vertices=12 reality=6 desire=6 components=8,4\n",
    ("cps", "json", "32-43-24"):
        '{"labels":[3,3,2,2,4,4],"edges":[[0,2],[0,5],[1,2],[1,5],[3,4]]}\n',
    ("cps", "dot", "32-43-24"):
        'graph cps {\n  n0 [label="3"];\n  n1 [label="3"];\n  n2 [label="2"];\n'
        '  n3 [label="2"];\n  n4 [label="4"];\n  n5 [label="4"];\n  n0 -- n2;\n  n0 -- n5;\n'
        '  n1 -- n2;\n  n1 -- n5;\n  n3 -- n4;\n}\n',
    ("cps", "text", "32-43-24"):
        "c[2,3,4,3]|p[2,4]\n",
    ("reduction-graph", "json", "-3-223"):
        '{"desire":[["I1","I4"],["I2","I3"],["Ip1","Ip4"],["Ip2","Ip3"]],'
        '"labels":{"I1":3,"I2":2,"I3":2,"I4":3,"Ip1":3,"Ip2":2,"Ip3":2,"Ip4":3},"n":4,'
        '"reality":[["I2","Ip1"],["I3","Ip2"],["I4","Ip3"],["I1","Ip4"]]}\n',
    ("reduction-graph", "dot", "-3-223"):
        'graph reduction {\n  I1 [label="3"];\n  Ip1 [label="3"];\n  I2 [label="2"];\n'
        '  Ip2 [label="2"];\n  I3 [label="2"];\n  Ip3 [label="2"];\n  I4 [label="3"];\n'
        '  Ip4 [label="3"];\n  Ip1 -- I2 [penwidth=2];\n  Ip2 -- I3 [penwidth=2];\n'
        '  Ip3 -- I4 [penwidth=2];\n  I1 -- Ip4 [penwidth=2];\n  I1 -- I4 [style=dashed];\n'
        '  Ip1 -- Ip4 [style=dashed];\n  I2 -- I3 [style=dashed];\n  Ip2 -- Ip3 [style=dashed];\n}\n',
    ("reduction-graph", "text", "-3-223"):
        "vertices=8 reality=4 desire=4 components=8\n",
    ("cps", "json", "-3-223"):
        '{"labels":[3,3,2,2],"edges":[[0,1],[0,3],[1,2],[2,3]]}\n',
    ("cps", "dot", "-3-223"):
        'graph cps {\n  n0 [label="3"];\n  n1 [label="3"];\n  n2 [label="2"];\n'
        '  n3 [label="2"];\n  n0 -- n1;\n  n0 -- n3;\n  n1 -- n2;\n  n2 -- n3;\n}\n',
    ("cps", "text", "-3-223"):
        "c[2,2,3,3]\n",
    ("overlap", "dot", "3456-5-467723-2"):
        'graph overlap {\n  v2 [label="2+"];\n  v3 [label="3-"];\n  v4 [label="4+"];\n'
        '  v5 [label="5+"];\n  v6 [label="6-"];\n  v7 [label="7-"];\n  v2 -- v3;\n  v4 -- v6;\n'
        '  v5 -- v6;\n}\n',
    ("reduction-graph", "dot", "3456-5-467723-2"):
        'graph reduction {\n  I1 [label="3"];\n  Ip1 [label="3"];\n  I2 [label="4"];\n'
        '  Ip2 [label="4"];\n  I3 [label="5"];\n  Ip3 [label="5"];\n  I4 [label="6"];\n'
        '  Ip4 [label="6"];\n  I5 [label="5"];\n  Ip5 [label="5"];\n  I6 [label="4"];\n'
        '  Ip6 [label="4"];\n  I7 [label="6"];\n  Ip7 [label="6"];\n  I8 [label="7"];\n'
        '  Ip8 [label="7"];\n  I9 [label="7"];\n  Ip9 [label="7"];\n  I10 [label="2"];\n'
        '  Ip10 [label="2"];\n  I11 [label="3"];\n  Ip11 [label="3"];\n  I12 [label="2"];\n'
        '  Ip12 [label="2"];\n  Ip1 -- I2 [penwidth=2];\n  Ip2 -- I3 [penwidth=2];\n'
        '  Ip3 -- I4 [penwidth=2];\n  Ip4 -- I5 [penwidth=2];\n  Ip5 -- I6 [penwidth=2];\n'
        '  Ip6 -- I7 [penwidth=2];\n  Ip7 -- I8 [penwidth=2];\n  Ip8 -- I9 [penwidth=2];\n'
        '  Ip9 -- I10 [penwidth=2];\n  Ip10 -- I11 [penwidth=2];\n  Ip11 -- I12 [penwidth=2];\n'
        '  I1 -- Ip12 [penwidth=2];\n  I1 -- Ip11 [style=dashed];\n'
        '  Ip1 -- I11 [style=dashed];\n  I2 -- I6 [style=dashed];\n'
        '  Ip2 -- Ip6 [style=dashed];\n  I3 -- I5 [style=dashed];\n'
        '  Ip3 -- Ip5 [style=dashed];\n  I4 -- Ip7 [style=dashed];\n'
        '  Ip4 -- I7 [style=dashed];\n  I8 -- Ip9 [style=dashed];\n  Ip8 -- I9 [style=dashed];\n'
        '  I10 -- I12 [style=dashed];\n  Ip10 -- Ip12 [style=dashed];\n}\n',
    ("cps", "dot", "3456-5-467723-2"):
        'graph cps {\n  n0 [label="3"];\n  n1 [label="3"];\n  n2 [label="2"];\n'
        '  n3 [label="2"];\n  n4 [label="4"];\n  n5 [label="4"];\n  n6 [label="5"];\n'
        '  n7 [label="5"];\n  n8 [label="6"];\n  n9 [label="6"];\n  n10 [label="7"];\n'
        '  n11 [label="7"];\n  n0 -- n2;\n  n0 -- n3;\n  n1 -- n4;\n  n1 -- n3;\n  n4 -- n7;\n'
        '  n5 -- n6;\n  n5 -- n9;\n  n6 -- n9;\n  n7 -- n8;\n  n8 -- n10;\n  n2 -- n10;\n}\n',
}


@pytest.mark.parametrize("verb, fmt, string", sorted(_GOLDEN))
def test_graph_verbs_golden_stdout(verb, fmt, string):
    assert run([verb, "--format", fmt, "--", string]) == (0, _GOLDEN[verb, fmt, string], "")


class TestPipelines:
    def test_direct_json_and_explain(self):
        code, out, _ = run(["direct", "--string", "453475623267", "--explain"])
        assert code == 0
        assert "{J2,J6} P={2,3,4,5,6} value={2,6}" in out
        assert "{J2,J6} P={3,4,5} value={2,6}" in out
        assert out.strip().endswith(
            '{"kappa":7,"edges":[["J2","J6"],["Jp2","J3"],["Jp2","Jp3"],'
            '["J3","J5"],["Jp3","Jp4"],["J4","J7"],["Jp4","Jp5"],["J5","Jp7"],'
            '["Jp5","Jp6"],["Jp6","Jp7"]]}'
        )

    # full stdout, so a change in the order of --explain lines shows
    @pytest.mark.parametrize(
        "string, want",
        [
            (
                "453475623267",
                "{J2,J6} P={2,3,4,5,6} value={2,6}\n"
                "{J2,J6} P={3,4,5} value={2,6}\n"
                "{J3,J5} P={4} value={3,5}\n"
                "{J4,J7} P={4,5,6,7} value={4,7}\n"
                "{J4,J7} P={5,6} value={4,7}\n"
                "{Jp2,J3} P={2} value={3}\n"
                "{Jp7,J5} P={6,7} value={5}\n"
                '{"kappa":7,"edges":[["J2","J6"],["Jp2","J3"],["Jp2","Jp3"],'
                '["J3","J5"],["Jp3","Jp4"],["J4","J7"],["Jp4","Jp5"],["J5","Jp7"],'
                '["Jp5","Jp6"],["Jp6","Jp7"]]}\n',
            ),
            (
                "72673456-3-245",
                "{J2,J4} P={3,4} value={2,3,4}\n"
                "{J2,J6} P={2,3,4,5,6} value={3,6}\n"
                "{J3,J6} P={3,4,5} value={6}\n"
                "{J3,J7} P={4,5,6} value={3,7}\n"
                "{J4,J5} P={4,5} value={4,5}\n"
                "{J5,J7} P={5,6,7} value={5,7}\n"
                "{Jp2,Jp7} P={2,3,4,5,6,7} value={2,3}\n"
                '{"kappa":7,"edges":[["J2","J4"],["J2","J6"],["Jp2","Jp3"],'
                '["Jp2","Jp7"],["J3","J6"],["J3","J7"],["Jp3","Jp4"],["J4","J5"],'
                '["Jp4","Jp5"],["J5","J7"],["Jp5","Jp6"],["Jp6","Jp7"]]}\n',
            ),
        ],
    )
    def test_direct_explain_golden(self, string, want):
        assert run(["direct", "--string", string, "--explain"]) == (0, want, "")

    def test_direct_dot_golden(self):
        want = (
            'graph direct {\n  J2 [label="2"];\n  Jp2 [label="2"];\n  J3 [label="3"];\n'
            '  Jp3 [label="3"];\n  J4 [label="4"];\n  Jp4 [label="4"];\n  J5 [label="5"];\n'
            '  Jp5 [label="5"];\n  J6 [label="6"];\n  Jp6 [label="6"];\n  J7 [label="7"];\n'
            '  Jp7 [label="7"];\n  J2 -- J3;\n  J2 -- Jp7;\n  Jp2 -- J3;\n  Jp2 -- Jp3;\n'
            '  Jp3 -- Jp4;\n  J4 -- J5;\n  J4 -- J6;\n  Jp4 -- Jp5;\n  J5 -- J6;\n'
            '  Jp5 -- Jp6;\n  Jp6 -- Jp7;\n}\n'
        )
        assert run(["direct", "--string", "3456-5-467723-2", "--format", "dot"]) == (0, want, "")

    def test_direct_explain_lists_witnesses_in_candidate_order(self):
        # the order on graphs that are not realistic is checked on the library,
        # in test_direct.py; here such a graph exits 4
        rng = random.Random(12)
        realistic_seen = 0
        for kappa in range(2, 13):
            for realistic in (True, False):
                for _ in range(4):
                    if realistic:
                        u = sampling.random_realistic_string(rng, kappa)
                    else:
                        u = shuffled_string(rng, kappa)
                    g = overlap.overlap_graph(u)
                    text = pointers.format_pointer_string(u, "spaced")
                    got = run(["direct", "--string=" + text, "--explain"])
                    witness = overlap.is_realistic_overlap(g)
                    if witness is None:
                        assert got == (4, "", "error: overlap graph is not realistic\n"), text
                        continue
                    assert overlap.overlap_graph(pointers.encode_arrangement(witness)) == g
                    realistic_seen += 1
                    code, out, err = got
                    assert (code, err) == (0, "")
                    want = [line + "\n" for line in oracles.direct_explain_lines(g)]
                    assert out.splitlines(keepends=True)[:-1] == want, text
        assert 44 <= realistic_seen < 88

    def test_direct_explain_kappa_2_lists_each_candidate_once(self):
        assert run(["direct", "--string", "2-2", "--explain"]) == (
            0, '{Jp2,J2} P={2} value={}\n{"kappa":2,"edges":[["J2","Jp2"]]}\n', ""
        )

    def test_direct_requires_contiguous_domain(self):
        # the same realism decision, and message, as on --graph input
        for text in ("2244", "4-4", ""):
            assert run(["direct", "--string=" + text]) == (
                4, "", "error: overlap graph is not realistic\n"
            )

    def test_iso_check_cps_vs_direct(self, tmp_path):
        code, direct_json, _ = run(["direct", "--string", "72673456-3-245"])
        path = tmp_path / "fig.json"
        path.write_text(direct_json)
        code, out, _ = run(["iso-check", "--cps", "72673456-3-245", "--direct", f"@{path}"])
        assert (code, out) == (0, "isomorphic\n")

    def test_iso_check_mismatch(self):
        code, mismatched, _ = run(["direct", "--string", "453475623267"])
        code, out, _ = run(["iso-check", "--cps", "72673456-3-245", "--direct", mismatched.strip()])
        assert (code, out) == (1, "not-isomorphic\n")

    def test_iso_check_strings(self):
        code, out, _ = run(["iso-check", "--strings", "223344", "234432"])
        assert (code, out) == (1, "not-isomorphic\n")
        code, out, _ = run(["iso-check", "--strings", "2323", "3232"])
        assert (code, out) == (0, "isomorphic\n")

    @pytest.mark.parametrize("member", ['["J2"]', '{"J2":1}', "2"])
    def test_iso_check_rejects_non_string_edge_members(self, member):
        graph = '{"kappa":3,"edges":[[' + member + ',"J3"]]}'
        code, out, err = run(["iso-check", "--cps", "2323", "--direct", graph])
        assert (code, out) == (2, "")
        assert err.startswith("error: unknown vertex ")

    def test_iso_check_rejects_a_third_edge(self):
        graph = '{"kappa":3,"edges":[["J2","J3"],["J2","Jp2"],["J2","Jp3"]]}'
        code, out, err = run(["iso-check", "--cps", "2323", "--direct", graph])
        assert (code, out) == (2, "")
        assert err.startswith("error: vertex 'J2' would get a third edge")
        assert "Traceback" not in err

    def test_iso_check_kappa_bound(self):
        from geneasm.direct import MAX_DIRECT_KAPPA

        graph = '{"kappa":%d,"edges":[]}' % (MAX_DIRECT_KAPPA + 1)
        code, out, err = run(["iso-check", "--cps", "2323", "--direct", graph])
        assert (code, out) == (6, "")
        assert err.startswith("error: direct graph JSON has kappa ")

    def test_iso_check_needs_two_sides(self):
        code, _, err = run(["iso-check", "--cps", "22"])
        assert code == 2

    def test_cps_json(self):
        code, out, _ = run(["cps", "22"])
        assert code == 0
        assert json.loads(out) == {"labels": [2, 2], "edges": []}

    def test_classify_string(self):
        code, out, _ = run(["classify", "--string", "72673456-3-245"])
        assert code == 0
        assert out.splitlines() == [
            "S={} successful=false",
            "S={Gnr} successful=false",
            "S={Gpr} successful=false",
            "S={Gdr} successful=false",
            "S={Gnr,Gpr} successful=true",
            "S={Gnr,Gdr} successful=false",
            "S={Gpr,Gdr} successful=false",
            "S={Gnr,Gpr,Gdr} successful=true",
        ]

    @pytest.mark.parametrize("text", ["24535423", "2244"])
    def test_classify_answers_on_strings_that_are_not_realistic(self, text):
        g = overlap.overlap_graph(pointers.parse_pointer_string(text))
        assert overlap.is_realistic_overlap(g) is None
        assert run(["classify", "--string", text]) == (0, _searched_stdout("classify", g), "")

    def test_classify_rejects_non_legal(self):
        # the overlap graph's occurrence index is the legality check, before realism
        assert run(["classify", "--string", "232"]) == (
            3, "", "error: not a legal string: '2 3 2'\n"
        )

    def test_check_realism(self):
        code, out, _ = run(["check-realism", "--string", "24535423"])
        assert (code, out) == (4, "not-realistic\n")
        code, out, _ = run(["check-realism", "--string", "72673456-3-245"])
        assert code == 0
        assert out.startswith("M")

    def test_check_realism_graph_input(self):
        _, overlap_json, _ = run(["overlap", "24535423"])
        code, out, _ = run(["check-realism", "--graph", overlap_json.strip()])
        assert (code, out) == (4, "not-realistic\n")


class TestEdgeInputs:
    def test_empty_string_verbs(self):
        assert run(["validate", ""]) == (0, "legal\n", "")
        assert run(["components", ""]) == (0, "0\n", "")
        code, out, _ = run(["overlap", ""])
        assert (code, out) == (0, '{"vertices":[],"edges":[]}\n')
        code, out, _ = run(["decode", ""])
        assert (code, out) == (4, "not-realistic\n")

    # str.isdigit is true for '\u0663', '\u00b2' and '\u0662'; pointer and arrangement text takes only 0-9
    @pytest.mark.parametrize("argv, message", [
        (["components", "--", "\u06632\u06632"], "malformed pointer token '\u06632\u06632'"),
        (["components", "--", "2\u00b2"], "malformed pointer token '2\u00b2'"),
        (["validate", "--", "2 \u0663 2 \u0663"], "malformed pointer token '\u0663'"),
        (["overlap", "--", "2 -\u00b2"], "malformed pointer token '-\u00b2'"),
        (["encode", "--", "M1 M\u0662"], "malformed arrangement token 'M\u0662'"),
        (["encode", "--", "-M\u0662 M1"], "malformed arrangement token '-M\u0662'"),
    ], ids=["compact", "compact-superscript", "spaced", "spaced-barred", "arrangement",
            "arrangement-inverted"])
    def test_only_ascii_digits(self, argv, message):
        assert run(argv) == (2, "", f"error: {message}\n")

    def test_direct_from_graph_json_matches_string_route(self):
        _, via_string, _ = run(["direct", "--string", "453475623267"])
        _, overlap_json, _ = run(["overlap", "453475623267"])
        _, via_graph, _ = run(["direct", "--graph", overlap_json.strip()])
        assert via_graph == via_string

    def test_count_negative_graph_route(self):
        _, overlap_json, _ = run(["overlap", "453475623267"])
        code, out, _ = run(["count-negative", "--graph", overlap_json.strip()])
        assert (code, out) == (0, "2\n")

    @pytest.mark.parametrize("verb", ["direct"])
    def test_graph_input_must_be_realistic(self, verb):
        _, overlap_json, _ = run(["overlap", "24535423"])  # the star: not realistic
        assert run([verb, "--graph", overlap_json.strip()]) == (
            4, "", "error: overlap graph is not realistic\n"
        )

    # not realistic: the star of 24535423, and the edge 2-4 beside a positive 3,
    # whose direct-construction component count - 1 (3) is not its gnr count (0)
    NOT_REALISTIC = {
        "star": overlap.overlap_graph(pointers.parse_pointer_string("24535423")),
        "split": overlap.OverlapGraph({2, 3, 4}, {3}, {(2, 4)}),
    }

    @pytest.mark.parametrize("verb", ["count-negative", "classify"])
    @pytest.mark.parametrize("graph", sorted(NOT_REALISTIC))
    def test_gprs_verbs_answer_on_graphs_that_are_not_realistic(self, verb, graph):
        g = self.NOT_REALISTIC[graph]
        assert overlap.is_realistic_overlap(g) is None
        assert run([verb, "--graph", overlap.emit_overlap_json(g)]) == (
            0, _searched_stdout(verb, g), ""
        )

    @pytest.mark.parametrize("verb", ["direct", "count-negative", "classify"])
    @pytest.mark.parametrize("text", ["2244", "4-4", "3535", ""])
    def test_gapped_graph_input_is_not_realistic(self, verb, text):
        # direct needs realism; the GPRS verbs answer on any vertex set
        _, overlap_json, _ = run(["overlap", text])
        got = run([verb, "--graph", overlap_json.strip()])
        if verb == "direct":
            assert got == (4, "", "error: overlap graph is not realistic\n")
        else:
            g = overlap.parse_overlap_json(overlap_json)
            assert got == (0, _searched_stdout(verb, g), "")

    @pytest.mark.parametrize("verb", ["direct", "count-negative", "classify", "check-realism"])
    def test_graph_input_max_kappa(self, verb, capsys):
        # realism has no cap, so --max-kappa is an unknown option on either input
        _, overlap_json, _ = run(["overlap", "453475623267"])
        for source in (["--graph", overlap_json.strip()], ["--string", "453475623267"]):
            with pytest.raises(SystemExit) as exc:
                cli.main([verb, *source, "--max-kappa", "7"])
            assert exc.value.code == 2
            assert capsys.readouterr().err.endswith(
                "error: unrecognized arguments: --max-kappa 7\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "-3-223"],
            ["validate", "-3-223", "--format", "json"],
            ["decode", "-3-223"],
            ["overlap", "-3-223"],
            ["overlap", "--format", "text", "-3-223"],
            ["reduction-graph", "-3-223", "--format", "json"],
            ["cps", "-3-223", "--format", "text"],
            ["components", "-3-223"],
            ["components", "-3 -2 2 3"],
            ["validate", "-3"],
        ],
    )
    def test_positional_string_may_start_barred(self, argv):
        words = [w for w in argv if w.startswith("-") and w[1:2].isdigit()]
        rest = [w for w in argv if w not in words]
        result = run(argv)
        assert result[0] != 2
        assert result == run(rest + ["--"] + words)

    @pytest.mark.parametrize(
        "argv",
        [
            ["count-negative", "--string", "-32-23"],
            ["iso-check", "--cps", "-32-23", "--direct",
             '{"kappa":3,"edges":[["J2","Jp2"],["J2","J3"],["Jp2","Jp3"],["J3","Jp3"]]}'],
            ["iso-check", "--strings", "-32-23", "2323"],
            ["iso-check", "--strings", "2323", "-3-223"],
            ["direct", "--string", "-3-223", "--format", "text"],
        ],
    )
    def test_option_value_may_start_barred(self, argv):
        # answered as its spaced spelling, which argparse always read as a value
        spaced = [pointers.format_pointer_string(pointers.parse_pointer_string(w))
                  if w.startswith("-") and w[1:2].isdigit() else w for w in argv]
        result = run(argv)
        assert result[0] != 2
        assert result == run(spaced)

    def test_components_of_a_barred_start(self, monkeypatch):
        assert run(["components", "-3-223"]) == (0, "1\n", "")
        monkeypatch.setattr("sys.argv", ["geneasm", "components", "-3-223"])
        assert run(None) == (0, "1\n", "")
        assert run(["decode", "-3-223"]) == (0, "-M2 M1 M3\n", "")

    def test_stdin_source(self, monkeypatch):
        import io as _io

        monkeypatch.setattr("sys.stdin", _io.StringIO("24535423"))
        code, out, _ = run(["components", "-"])
        assert (code, out) == (0, "3\n")  # value frozen from the BFS oracle
        # classify reads its string once: stdin is empty on a second read
        monkeypatch.setattr("sys.stdin", _io.StringIO("2-3-23\n"))
        code, out, err = run(["classify", "--string", "-"])
        assert (code, out, err) == run(["classify", "--string", "2-3-23"])
        assert (code, out.splitlines()[4]) == (0, "S={Gnr,Gpr} successful=true")

    def test_dot_output_is_byte_stable(self):
        runs = {run(["reduction-graph", "234234", "--format", "dot"]) for _ in range(3)}
        assert len(runs) == 1
        runs = {run(["direct", "--string", "234234", "--format", "dot"]) for _ in range(3)}
        assert len(runs) == 1
        code, out, _ = next(iter(runs))
        assert out.splitlines()[0] == "graph direct {"
        assert '  J2 [label="2"];' in out and '  Jp2 [label="2"];' in out


class TestInputForms:
    """A graph verb answers a legal string exactly as it answers the string's overlap graph."""

    @settings(max_examples=200, deadline=None)
    @given(u=strategies.legal_strings(), fmt=st.sampled_from(("json", "dot", "text")),
           explain=st.booleans())
    def test_string_input_is_its_overlap_graph(self, u, fmt, explain):
        text = pointers.format_pointer_string(u, "spaced")
        graph = overlap.emit_overlap_json(overlap.overlap_graph(u))
        for verb, options in (("direct", ["--format", fmt] + ["--explain"] * explain),
                              ("classify", []), ("count-negative", []), ("check-realism", [])):
            assert (run([verb, "--string=" + text, *options])
                    == run([verb, "--graph", graph, *options])), (verb, text)


class TestSeededVerbs:
    def test_random_is_deterministic(self):
        first = run(["random", "--seed", "42", "--kappa", "6", "--count", "3"])
        second = run(["random", "--seed", "42", "--kappa", "6", "--count", "3"])
        assert first == second
        assert first[0] == 0
        lines = first[1].splitlines()
        assert len(lines) == 3
        assert all(tok.lstrip("-").startswith("M") for tok in lines[0].split())

    def test_random_string_emission(self):
        code, out, _ = run(["random", "--seed", "7", "--kappa", "4", "--emit", "string"])
        assert code == 0
        from geneasm import pointers

        seq = pointers.parse_pointer_string(out.strip())
        assert pointers.is_realistic(seq)

    def test_crossval_small_run(self):
        code, out, _ = run(["crossval", "--seed", "3", "--trials", "10", "--kappa", "5"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "check=root-subgraph trials=10 failures=0"
        assert lines[1] == "check=cps-vs-direct trials=10 failures=0"
        assert all(line.endswith("failures=0") for line in lines)

    def test_crossval_prints_replayable_failures(self, monkeypatch):
        from geneasm import pointers, reduction

        monkeypatch.setattr(reduction, "is_rooted", lambda rg: False)
        code, out, _ = run(["crossval", "--seed", "3", "--trials", "4", "--kappa", "5"])
        assert code == 5
        lines = out.splitlines()
        assert lines[-6] == "check=root-subgraph trials=4 failures=4"
        assert len(lines) == 10
        for line in lines[:4]:
            check, kappa, source = line.split(" ")
            assert check == "check=root-subgraph"
            text = source.removeprefix("input=")
            seq = pointers.parse_pointer_string(text)
            assert kappa == f"kappa={len(pointers.domain(seq)) + 1}"
            assert run(["components", "--", text])[0] == 0
            assert run(["classify", f"--string={text}"])[0] == 0

    def test_crossval_prints_replayable_graph_failures(self, monkeypatch):
        # a classifier that contradicts the enumerator, and an enumerator that contradicts
        # every gnr count, fail every graph check
        monkeypatch.setattr(rewriting, "successful_rule_sets", lambda h: [frozenset()])
        monkeypatch.setattr(rewriting, "successful_graph_reductions",
                            lambda h, kinds=None: iter([[rewriting.Rule("gnr", (2,))]
                                                        * (h.nullity() + 1)]))
        code, out, _ = run(["crossval", "--seed", "3", "--trials", "5", "--kappa", "5"])
        assert code == 5
        lines = out.splitlines()
        assert lines[-3:] == ["check=classifier trials=5 failures=5",
                              "check=classifier-toggled trials=5 failures=5",
                              "check=graph-negative-count trials=5 failures=5"]
        failed = [line.split(" ") for line in lines[:-6]]
        assert len(failed) == 15
        for trial in range(5):
            (c1, k1, source), (c2, k2, toggled), (c3, k3, own) = failed[3 * trial : 3 * trial + 3]
            assert (c1, c2, c3) == ("check=classifier", "check=classifier-toggled",
                                    "check=graph-negative-count")
            assert k1 == k2 == k3
            g = overlap.overlap_graph(pointers.parse_pointer_string(source.removeprefix("input=")))
            assert overlap.parse_overlap_json(own.removeprefix("graph=")) == g
            h = overlap.parse_overlap_json(toggled.removeprefix("graph="))
            assert h.vertices == g.vertices
            assert len(h.positive ^ g.positive) + len(h.edges ^ g.edges) == 1
            for verb in ("classify", "count-negative"):
                assert run([verb, "--graph", toggled.removeprefix("graph=")])[0] == 0

    def test_crossval_classifier_checks_read_the_enumerator(self, monkeypatch):
        # with no sequence found for any rule set, only the two classifier checks fail
        monkeypatch.setattr(rewriting, "successful_graph_reductions",
                            lambda h, kinds=None: iter(()))
        code, out, _ = run(["crossval", "--seed", "3", "--trials", "5", "--kappa", "5"])
        assert code == 5
        assert out.splitlines()[-3:] == ["check=classifier trials=5 failures=5",
                                         "check=classifier-toggled trials=5 failures=5",
                                         "check=graph-negative-count trials=5 failures=0"]

    def test_crossval_negative_count_reads_the_string_enumerator(self, monkeypatch):
        # a reduction with one snr too many fails the check on every string it runs on
        enumerate_, extra = rewriting.successful_string_reductions, rewriting.Rule("snr", (2,))
        monkeypatch.setattr(rewriting, "successful_string_reductions",
                            lambda u: [[*seq, extra] for seq in enumerate_(u)])
        code, out, _ = run(["crossval", "--seed", "3", "--trials", "5", "--kappa", "5"])
        assert code == 5
        lines = out.splitlines()
        assert lines[-4] == "check=negative-count trials=5 failures=5"
        failed = [line for line in lines[:-6] if line.startswith("check=negative-count ")]
        assert len(failed) == 5 and all(" input=" in line for line in failed)

    @pytest.mark.parametrize(
        "argv, message",
        [(["crossval", "--seed", "1", "--kappa", "1"], "kappa must be >= 2"),
         (["crossval", "--seed", "1", "--kappa", "0"], "kappa must be >= 2"),
         (["crossval", "--seed", "1", "--trials", "-3"], "trials must be >= 0"),
         (["random", "--seed", "1", "--kappa", "1"], "kappa must be >= 2"),
         (["random", "--seed", "1", "--count", "-1"], "count must be >= 0")],
    )
    def test_bad_sizes_exit_2_with_one_error_line(self, argv, message):
        assert run(argv) == (2, "", f"error: {message}\n")

    def test_crossval_deterministic(self):
        a = run(["crossval", "--seed", "9", "--trials", "8", "--kappa", "6"])
        b = run(["crossval", "--seed", "9", "--trials", "8", "--kappa", "6"])
        assert a == b


_MISSING = "missing option value"
_EMPTY_JSON = "invalid JSON: Expecting value: line 1 column 1 (char 0)"


class TestParserBehaviour:
    def test_unknown_verb_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "error, code",
        [
            (errors.ParseError, 2),
            (errors.LegalityError, 3),
            (errors.RealismError, 4),
            (errors.CapError, 6),
            (ValueError, 2),
            (OSError, 2),
        ],
    )
    def test_exit_code_table(self, monkeypatch, error, code):
        def fail(args):
            raise error("boom")

        monkeypatch.setattr(cli, "_cmd_components", fail)
        assert run(["components", "2323"]) == (code, "", "error: boom\n")

    def test_a_closed_stdout_pipe_exits_141_with_nothing_printed(self):
        """A reader that stops early ends the run as SIGPIPE would, not as a parse error."""
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        env.pop("PYTHONUNBUFFERED", None)  # stdout to a pipe is buffered, as by default
        command = [sys.executable, "-m", "geneasm.cli"]
        argv = ["random", "--seed", "1", "--count", "200000", "--kappa", "9"]
        with subprocess.Popen(command + argv, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline().startswith(b"M6 ")
            proc.stdout.close()
            err = proc.stderr.read()
            assert (proc.wait(timeout=60), err) == (cli.EXIT_PIPE, b"") == (141, b"")
        # a short output, to a pipe closed before the run starts, meets it at the last flush
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(command + ["components", "2323"], env=env, stdout=write,
                                  stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (141, b"")

    def test_unreadable_file_exits_2(self):
        code, out, err = run(["components", "@/nonexistent/file"])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, want",
        [([verb, option], want)
         for verb in ("direct", "count-negative", "classify", "check-realism")
         for option, want in (("--string=--", _MISSING), ("--graph=--", _MISSING),
                              ("--graph=", _EMPTY_JSON))]
        + [(["iso-check", "--cps=--"], _MISSING),
           (["iso-check", "--cps", "2323", "--direct=--"], _MISSING)],
    )
    def test_missing_option_value_exits_2(self, argv, want):
        # argparse reads "--string=--" as no value, and "--graph=" is empty JSON
        assert run(argv) == (2, "", f"error: {want}\n")


def _discrete_graph_json(kappa):
    vertices = [{"p": p, "sign": "-"} for p in range(2, kappa + 1)]
    return json.dumps({"vertices": vertices, "edges": []})


class TestRealismCap:
    """Realism has no cap: large graphs and strings are decided, whatever the environment."""

    KAPPA_9 = "67-8-7-9-856-5-42-9-3-234"

    def test_kappa_9_string_gets_its_witness(self):
        assert run(["check-realism", "--string", self.KAPPA_9]) == (
            0, "-M1 M4 -M5 M8 M7 -M6 -M3 M2 M9\n", ""
        )

    def test_kappa_12_graph_is_decided(self):
        code, out, _ = run(["classify", "--graph", _discrete_graph_json(12)])
        assert code == 0
        assert len(out.splitlines()) == 8

    @pytest.mark.parametrize("verb", ["check-realism", "classify", "direct", "count-negative"])
    def test_kappa_13_graph_is_decided(self, verb):
        assert run([verb, "--graph", _discrete_graph_json(13)])[0] == 0
        domain = range(2, 14)
        star = json.dumps({"vertices": [{"p": p, "sign": "-"} for p in domain],
                           "edges": [[2, q] for q in domain if q > 2]})
        got = run([verb, "--graph", star])
        if verb == "check-realism":
            assert got == (4, "not-realistic\n", "")
        elif verb == "direct":
            assert got == (4, "", "error: overlap graph is not realistic\n")
        else:  # the GPRS verbs need no realism
            g = overlap.parse_overlap_json(star)
            assert got == (0, _searched_stdout(verb, g, max_kappa=13), "")

    def test_max_kappa_variable_is_ignored(self, monkeypatch):
        # GENEASM_MAX_KAPPA is not read: no environment variable caps realism
        monkeypatch.setenv("GENEASM_MAX_KAPPA", "8")
        assert run(["check-realism", "--graph", _discrete_graph_json(13)]) == (
            0, " ".join(f"M{k}" for k in range(1, 14)) + "\n", ""
        )
        assert run(["check-realism", "--string", self.KAPPA_9])[0] == 0

    @pytest.mark.parametrize("value", ["eight", "8.5", " "])
    def test_bad_env_value(self, monkeypatch, value):
        monkeypatch.setenv("GENEASM_MAX_KAPPA", value)
        assert run(["check-realism", "--string", "22"]) == (0, "M1 M2\n", "")
