"""Every module-level function, class or constant of the package is exported
in its module's ``__all__`` or read elsewhere in the package.  A stand-in
for a linter's dead-code rule, with no linter dependency.  The package's
``__all__`` is derived from its ``_LAZY`` table, so the names of that table
are its exports.  The package's PEP 562 ``__getattr__`` and ``__dir__`` and
``__all__`` itself are exempt: the interpreter reads them, not the package.
Every error class is also a package export, since public functions raise
them all."""

import ast
from collections import Counter
from pathlib import Path

import hadamard_bvp
from hadamard_bvp import errors

MODULES = sorted(Path(hadamard_bvp.__file__).parent.glob("*.py"))
EXEMPT = {"__getattr__", "__dir__", "__all__"}


def _references(node: ast.AST) -> Counter:
    """How often each name is read in ``node``, as a bare name or as an
    attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


def _defined(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function or class, or
    the plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else []
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _exported(tree: ast.Module) -> set[str]:
    """The literal entries of a module's ``__all__`` and the names of its
    ``_LAZY`` table, {module: names}."""
    exported = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        for target in (t.id for t in targets if isinstance(t, ast.Name)):
            if target == "__all__":
                exported.update(ast.literal_eval(elt) for elt in node.value.elts
                                if not isinstance(elt, ast.Starred))
            elif target == "_LAZY":
                exported.update(name for names in ast.literal_eval(node.value).values()
                                for name in names)
    return exported


def _dead_definitions(sources: dict[str, str]) -> list[str]:
    """The module-level functions, classes and constants, as "module:name",
    that are neither in their module's ``__all__`` nor read outside their
    own definition by any of the modules given as {name: source}."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = sum(map(_references, trees.values()), Counter())
    dead = []
    for module, tree in trees.items():
        exported = _exported(tree) | EXEMPT
        for node in tree.body:
            for name in _defined(node):
                if name not in exported and used[name] <= _references(node)[name]:
                    dead.append(f"{module}:{name}")
    return dead


def test_no_dead_definitions():
    assert _dead_definitions({path.name: path.read_text() for path in MODULES}) == []


def test_detects_a_dead_definition():
    sources = {
        "a.py": '__all__ = ["api"]\n\nSCALE = 2.0\nSTALE: int = 3\n\ndef api(q):\n    return helper(q)\n\n'
                "def helper(q):\n    return q * SCALE\n\ndef left_behind(q):\n    return left_behind(q)\n",
        "b.py": "from . import a\n\nLIMIT, _SPARE = 4, 5\n\nclass Unused:\n    pass\n\n"
                "print(a.api(LIMIT))\n",
    }
    assert _dead_definitions(sources) == [
        "a.py:STALE", "a.py:left_behind", "b.py:_SPARE", "b.py:Unused",
    ]


def test_every_error_class_is_exported():
    classes = [value for value in vars(errors).values()
               if isinstance(value, type) and issubclass(value, errors.HadamardBVPError)]
    assert len(classes) > 10
    for cls in classes:
        assert cls.__name__ in hadamard_bvp.__all__, cls.__name__
        assert getattr(hadamard_bvp, cls.__name__) is cls
