"""The names of geneasm that perfbench reaches into still resolve.

``perfbench/run.py`` stamps every run with ``kernels.backend_name()``, its
traced run patches each ``bench_spec.LAYER_FUNCTIONS`` entry by module and
attribute path, and its workloads call submodule functions by name.
Deleting or renaming one of them makes every perfbench run exit with an
error, and perfbench's own tests are not in tier-1.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPEC = PERFBENCH / "bench_spec.py"

# EDGE_TEST names direct._matching_subsets, which the direct construction
# stopped calling and which was then deleted; the two perfbench tests that
# read it have failed since, and mending them is a change to the benchmark
# (ROADMAP item 1).  So it is the one module-level name left unchecked here.
STALE = {"EDGE_TEST"}


@pytest.fixture(scope="module")
def spec():
    loader_spec = importlib.util.spec_from_file_location("bench_spec", SPEC)
    module = importlib.util.module_from_spec(loader_spec)
    loader_spec.loader.exec_module(module)
    return module


def _resolve(module, path):
    obj = importlib.import_module(f"geneasm.{module}")
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_traced_layer_resolves(spec):
    assert spec.LAYER_FUNCTIONS
    for name, (module, path) in spec.LAYER_FUNCTIONS.items():
        assert callable(_resolve(module, path)), name


def test_every_other_named_function_resolves_but_the_stale_one(spec):
    pairs = {name: value for name, value in vars(spec).items()
             if name.isupper() and isinstance(value, tuple) and len(value) == 2
             and all(isinstance(part, str) for part in value)}
    assert STALE <= set(pairs)
    for name, (module, path) in pairs.items():
        if name not in STALE:
            assert callable(_resolve(module, path)), name


def test_the_run_stamp_names_a_backend():
    assert isinstance(_resolve("kernels", "backend_name")(), str)


def _submodule_reads():
    """(file, submodule, attribute) for each ``X.attr`` read in perfbench/*.py.

    X is any name that a ``from geneasm import X`` binds in that file.
    """
    reads = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {alias.asname or alias.name: alias.name
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "geneasm"
                   for alias in node.names}
        reads |= {(path.name, aliases[node.value.id], node.attr)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases}
    return sorted(reads)


def test_every_submodule_name_perfbench_reads_resolves():
    reads = _submodule_reads()
    assert ("run.py", "kernels", "backend_name") in reads
    for path, module, attr in reads:
        assert hasattr(importlib.import_module(f"geneasm.{module}"), attr), (path, module, attr)
