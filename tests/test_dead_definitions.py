"""Every module-level function or class of the package is exported in its
module's ``__all__`` or referenced elsewhere in the package.  A stand-in for
a linter's dead-code rule, with no linter dependency.  The package's PEP 562
``__getattr__`` is exempt: the interpreter calls it, not the package."""

import ast
from collections import Counter
from pathlib import Path

import hadamard_bvp

MODULES = sorted(Path(hadamard_bvp.__file__).parent.glob("*.py"))
EXEMPT = {"__getattr__"}


def _references(node: ast.AST) -> Counter:
    """How often each name is read or written in ``node``, as a bare name or
    as an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            return set(ast.literal_eval(node.value))
    return set()


def _dead_definitions(sources: dict[str, str]) -> list[str]:
    """The module-level functions and classes, as "module:name", that are
    neither in their module's ``__all__`` nor referenced outside their own
    body by any of the modules given as {name: source}."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = sum(map(_references, trees.values()), Counter())
    dead = []
    for module, tree in trees.items():
        exported = _exported(tree) | EXEMPT
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name not in exported and used[node.name] <= _references(node)[node.name]:
                dead.append(f"{module}:{node.name}")
    return dead


def test_no_dead_definitions():
    assert _dead_definitions({path.name: path.read_text() for path in MODULES}) == []


def test_detects_a_dead_definition():
    sources = {
        "a.py": '__all__ = ["api"]\n\ndef api(q):\n    return helper(q)\n\n'
                "def helper(q):\n    return q\n\ndef left_behind(q):\n    return left_behind(q)\n",
        "b.py": "from . import a\n\nclass Unused:\n    pass\n\nprint(a.api(1))\n",
    }
    assert _dead_definitions(sources) == ["a.py:left_behind", "b.py:Unused"]
