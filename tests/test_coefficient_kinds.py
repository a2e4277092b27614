"""Which coefficients have a closed-form |q| integral is decided in
`coefficient`, by the kinds that define `abs_integral`: the code of `bounds`
names no coefficient kind, so it has no branch of its own on one.  Docstrings
may name them."""

import ast
from pathlib import Path

import hadamard_bvp

PACKAGE = Path(hadamard_bvp.__file__).parent
KINDS = {"Table", "Constant", "Expression"}


def _names(tree: ast.AST) -> set[str]:
    """Every identifier the code uses: names, attributes and imported names."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(filter(None, (node.name, node.asname)))
    return found


def test_bounds_names_no_coefficient_kind():
    tree = ast.parse((PACKAGE / "bounds.py").read_text())
    assert _names(tree) & KINDS == set()


def test_detects_a_kind_in_code_but_not_in_a_docstring():
    tree = ast.parse(
        '"""A Table or a Constant."""\nfrom .coefficient import Coefficient as Table\n\n'
        'def f(q):\n    """An Expression."""\n    return coefficient.Constant\n'
    )
    assert _names(tree) & KINDS == {"Table", "Constant"}
