"""Every public function and class of the library has a reader outside the tests.

A public module-level name under ``src/geneasm/`` is read when its
identifier occurs in code of the package outside its own definition
(docstrings and comments are not code), or anywhere in
``perfbench/*.py`` or ``benchmarks/*.py`` but their docstrings: perfbench
names the layers it traces as strings.  A name only the tests read
belongs in ``tests/oracles.py`` or nowhere.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Read by no verb yet, each kept for the ROADMAP item that would read it.
WAITING = {
    "apply_graph_rule": "item 2",
    "format_rule_sequence": "item 2",
    "parse_rule_sequence": "item 2",
    "random_legal_string": "item 7",
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _identifiers(node, strings: bool) -> set:
    """The names and attributes in node, and with ``strings`` the words of its string
    constants other than docstrings."""
    docstrings = {id(n.value) for n in ast.walk(node) if isinstance(n, ast.Expr)}
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif (strings and isinstance(n, ast.Constant) and isinstance(n.value, str)
              and id(n) not in docstrings):
            found.update(_WORD.findall(n.value))
    return found


def _unread_public_names() -> set:
    definitions = []  # (name, the top-level statement defining it)
    statements = []
    for path in sorted((ROOT / "src" / "geneasm").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            statements.append(node)
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                definitions.append((node.name, node))
    outside = set()
    for folder in ("perfbench", "benchmarks"):
        for path in sorted((ROOT / folder).glob("*.py")):
            outside |= _identifiers(ast.parse(path.read_text()), strings=True)
    read_by = [(node, _identifiers(node, strings=False)) for node in statements]
    return {name for name, definition in definitions
            if name not in outside
            and not any(name in found for node, found in read_by if node is not definition)}


def test_every_public_name_is_read_outside_the_tests():
    assert _unread_public_names() == set(WAITING)
