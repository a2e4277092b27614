"""Every module-level function, class or constant of the package is exported
or read elsewhere in the package.  A stand-in for a linter's dead-code rule,
with no linter dependency.  The package's one export list is the ``_LAZY``
table of its ``__init__`` (module: names), so a definition of a module that
table names is exported only if the table lists it, and those modules assign
no ``__all__`` of their own; the other modules (``__init__``, ``cli``,
``selftest``) export the literal entries of their ``__all__``.  The
package's PEP 562 ``__getattr__`` and ``__dir__`` and ``__all__`` itself are
exempt: the interpreter reads them, not the package.  Every error class is
also a package export, since public functions raise them all."""

import ast
from collections import Counter
from pathlib import Path

import hadamard_bvp
from hadamard_bvp import errors

PACKAGE = Path(hadamard_bvp.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
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


def _assigned(tree: ast.Module, target: str) -> ast.expr | None:
    """The value a module-level ``target = ...`` statement of ``tree`` binds."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == target for t in node.targets
        ):
            return node.value
    return None


def _exported(module: str, tree: ast.Module, lazy: dict) -> set[str]:
    """The names ``lazy``, the ``_LAZY`` table, lists under ``module``, or
    for a module it does not name, the literal entries of its ``__all__``."""
    if module in lazy:
        return set(lazy[module])
    value = _assigned(tree, "__all__")
    elts = value.elts if value is not None else []
    return {ast.literal_eval(elt) for elt in elts if not isinstance(elt, ast.Starred)}


def _dead_definitions(sources: dict[str, str]) -> list[str]:
    """The module-level functions, classes and constants, as "module:name",
    that are neither exported (`_exported`, with the ``_LAZY`` table of
    ``__init__.py``) nor read outside their own definition by any of the
    modules given as {file name: source}."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    lazy = ast.literal_eval(_assigned(trees["__init__.py"], "_LAZY"))
    used = sum(map(_references, trees.values()), Counter())
    dead = []
    for module, tree in trees.items():
        exported = _exported(module.removesuffix(".py"), tree, lazy) | EXEMPT
        for node in tree.body:
            for name in _defined(node):
                if name not in exported and used[name] <= _references(node)[name]:
                    dead.append(f"{module}:{name}")
    return dead


def test_no_dead_definitions():
    assert _dead_definitions({path.name: path.read_text() for path in MODULES}) == []


def test_no_library_module_assigns_all():
    """A module the ``_LAZY`` table names declares its exports there alone."""
    assigns = [module for module in hadamard_bvp._LAZY
               if any(isinstance(node, ast.Name) and node.id == "__all__"
                      and isinstance(node.ctx, ast.Store)
                      for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())))]
    assert assigns == []


def test_detects_a_dead_definition():
    # a is a library module: its stray __all__ exports nothing, so STALE is
    # dead; b is not, and its __all__ keeps run.
    sources = {
        "__init__.py": '_LAZY = {"a": ("api",)}\n__all__ = [*_LAZY]\n',
        "a.py": '__all__ = ["api", "STALE"]\n\nSCALE = 2.0\nSTALE: int = 3\n\n'
                "def api(q):\n    return helper(q)\n\ndef helper(q):\n    return q * SCALE\n\n"
                "def left_behind(q):\n    return left_behind(q)\n",
        "b.py": '__all__ = ["run"]\n\nfrom . import a\n\nLIMIT, _SPARE = 4, 5\n\n'
                "class Unused:\n    pass\n\ndef run():\n    return a.api(LIMIT)\n",
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
