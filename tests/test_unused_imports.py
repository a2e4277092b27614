"""Every name a module of the package or of its tests imports is used, or
re-exported in ``__all__`` or, in the package's ``__init__``, in the
``_LAZY`` table its ``__all__`` is derived from.  A stand-in for a linter's
unused-import rule, with no linter dependency."""

import ast
from pathlib import Path

import pytest

import hadamard_bvp

MODULES = sorted(Path(hadamard_bvp.__file__).parent.glob("*.py"))
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if not (isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        for target in (t.id for t in targets if isinstance(t, ast.Name)):
            if target == "__all__":
                used.update(ast.literal_eval(elt) for elt in node.value.elts
                            if not isinstance(elt, ast.Starred))
            elif target == "_LAZY":
                used.update(name for names in ast.literal_eval(node.value).values()
                            for name in names)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_detects_an_unused_import():
    tree = ast.parse("from dataclasses import asdict, dataclass\n\n@dataclass\nclass A: pass\n")
    assert _unused_imports(tree) == ["asdict (line 1)"]
