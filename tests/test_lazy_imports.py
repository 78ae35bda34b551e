"""The package and the CLI load only the submodules a run uses.

``import geneasm`` loads no submodule, as every name is read from the
submodule that defines it, and each CLI verb loads only the modules on
its own code path.
"""

import os
import subprocess
import sys

import pytest

import geneasm

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Runs the CLI the way ``python -m geneasm.cli`` does, then prints the
# modules the run added to sys.modules as the last line of stdout.
_RUN_AS_MAIN = (
    "import runpy, sys\n"
    "before = set(sys.modules)\n"
    "sys.argv = ['geneasm', *sys.argv[1:]]\n"
    "try:\n"
    "    runpy.run_module('geneasm.cli', run_name='__main__', alter_sys=True)\n"
    "except SystemExit:\n"
    "    pass\n"
    "print(' '.join(sorted(set(sys.modules) - before)))\n"
)


def _python_stdout(code, *argv):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, check=True).stdout


def _modules_loaded_by(argv):
    return set(_python_stdout(_RUN_AS_MAIN, *argv).splitlines()[-1].split())


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["encode", "--", "M7 M1 M6 M3 M5 -M2 M4"], set()),
        (["decode", "--", "72673456-3-245"], set()),
        (["validate", "--", "24535423"], set()),
        (["random", "--seed", "3", "--kappa", "7", "--count", "2"], {"geneasm.sampling"}),
    ],
    ids=["encode", "decode", "validate", "random"],
)
def test_short_verbs_load_only_their_modules(argv, extra):
    loaded = _modules_loaded_by(argv)
    ours = {name for name in loaded if name.split(".")[0] == "geneasm"}
    assert ours <= {"geneasm", "geneasm.cli", "geneasm.errors", "geneasm.pointers"} | extra
    assert "geneasm.pointers" in ours
    assert not {"dataclasses", "json"} & loaded


@pytest.mark.parametrize(
    "argv",
    [
        ["overlap", "--format", "text", "--", "72673456-3-245"],
        ["reduction-graph", "--format", "json", "--", "72673456-3-245"],
        ["cps", "--format", "text", "--", "72673456-3-245"],
        ["direct", "--explain", "--string=72673456-3-245"],
        ["iso-check", "--cps", "2323", "--direct", '{"kappa":3,"edges":[]}'],
        ["components", "--", "72673456-3-245"],
        ["count-negative", "--string=72673456-3-245"],
        ["classify", "--string=72673456-3-245"],
        ["check-realism", "--graph", '{"vertices":[{"p":2,"sign":"-"}],"edges":[]}'],
        ["crossval", "--seed", "1", "--trials", "5"],
    ],
    ids=lambda argv: argv[0],
)
def test_no_verb_loads_dataclasses(argv):
    # dataclasses brings in inspect, ast, dis and tokenize: 8-18 ms per process
    assert "dataclasses" not in _modules_loaded_by(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--string=72673456-3-245"],
        ["classify", "--graph", '{"vertices":[{"p":2,"sign":"-"}],"edges":[]}'],
        ["count-negative", "--string=72673456-3-245"],
        ["count-negative", "--graph", '{"vertices":[{"p":2,"sign":"-"}],"edges":[]}'],
    ],
    ids=lambda argv: f"{argv[0]} {argv[1].split('=')[0]}",
)
def test_counting_verbs_build_no_reduction_graph_from_the_overlap_graph(argv):
    # the component count they need is the overlap graph's nullity + 1, and
    # they decide no realism, so the arrangement scan is not loaded either
    assert not {"geneasm.direct", "geneasm.compress", "geneasm.kernels"} & _modules_loaded_by(argv)


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["overlap", "--format", "dot", "--", "72673456-3-245"],
         {"geneasm.reduction", "geneasm.compress"}),
        (["cps", "--format", "dot", "--", "72673456-3-245"], {"geneasm.overlap"}),
        (["reduction-graph", "--format", "dot", "--", "72673456-3-245"],
         {"geneasm.compress", "geneasm.overlap"}),
        (["direct", "--string=72673456-3-245", "--format", "dot"], {"geneasm.reduction"}),
    ],
    ids=["overlap", "cps", "reduction-graph", "direct"],
)
def test_a_drawing_loads_only_its_own_graph(argv, absent):
    # the DOT writer imports no graph module; each verb loads the graph it draws
    loaded = _modules_loaded_by(argv)
    assert "geneasm.dot" in loaded
    assert not absent & loaded


def test_iso_check_strings_loads_neither_graph_side():
    # it compares two reduction graphs, so neither the compression, the direct
    # construction, the overlap graph nor the arrangement scan is on its path
    loaded = _modules_loaded_by(["iso-check", "--strings", "2323", "3232"])
    assert "geneasm.reduction" in loaded
    assert not {"geneasm.direct", "geneasm.overlap", "geneasm.compress",
                "geneasm.kernels"} & loaded


def test_iso_check_direct_json_loads_no_overlap_graph():
    # a direct graph parsed from JSON is compared with a string's code: the
    # direct construction's module is loaded, and with it compress, which it
    # imports, but no overlap graph is built
    loaded = _modules_loaded_by(["iso-check", "--cps", "2323", "--direct",
                                 '{"kappa":3,"edges":[]}'])
    assert {"geneasm.direct", "geneasm.compress"} <= loaded
    assert not {"geneasm.overlap", "geneasm.kernels"} & loaded


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        geneasm.nope
    assert not hasattr(geneasm, "brute_force_isomorphic")


def test_import_geneasm_loads_no_submodule():
    code = ("import sys; before = set(sys.modules); import geneasm; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    assert _python_stdout(code).split() == ["geneasm"]
