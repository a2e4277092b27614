"""Which modules load numpy is decided by the module graph, not inside
function bodies: the scalar modules never import it, the array modules
import it once at the top, and the CLI imports only `fredholm` and
`selftest`, only inside the commands that need them (never numpy or `grid`).
The package itself imports none of its modules: each loads on first use of
one of its names.  The expression parser is a scalar module that, like the
array modules, no other scalar module imports at the top."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import hadamard_bvp

PACKAGE = Path(hadamard_bvp.__file__).parent
SCALAR = (
    "__init__", "__main__", "bounds", "coefficient", "errors", "expression", "kernel", "params",
)
ARRAY = ("fredholm", "grid", "operators", "selftest")
LOADS_NUMPY = {"numpy", *ARRAY}
# The package's _LAZY table: every module but the entry points and the
# self-check, each loaded on first use of one of its names.
LIBRARY = sorted({*SCALAR, *ARRAY} - {"__init__", "__main__", "selftest"})
# The other scalar modules and the CLI import these only inside functions.
DEFERRED = ("expression", "fredholm", "grid", "operators", "csv")


def _imports(tree: ast.AST) -> list[tuple[str, bool]]:
    """(module, inside a function) for every import; a package-relative
    import names the sibling module, an absolute one its top-level package."""
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((alias.name.split(".")[0], in_function) for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                if child.module:
                    found.append((child.module.split(".")[0], in_function))
                else:
                    found.extend((alias.name, in_function) for alias in child.names)
            visit(child, in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(tree, False)
    return found


def _tree(name: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{name}.py").read_text())


def test_every_module_is_placed():
    assert sorted(path.stem for path in PACKAGE.glob("*.py")) == sorted((*SCALAR, *ARRAY, "cli"))


@pytest.mark.parametrize("name", SCALAR)
def test_scalar_modules_load_no_numpy(name):
    tree = _tree(name)
    imports = _imports(tree)
    assert [module for module, _ in imports if module == "numpy"] == []
    assert [module for module, nested in imports if module in LOADS_NUMPY and not nested] == []
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert "TYPE_CHECKING" not in names


@pytest.mark.parametrize("name", ARRAY)
def test_array_modules_import_numpy_once_at_the_top(name):
    assert [nested for module, nested in _imports(_tree(name)) if module == "numpy"] == [False]


def test_cli_imports_array_modules_only_in_commands():
    imports = _imports(_tree("cli"))
    assert [module for module, nested in imports if module in LOADS_NUMPY and not nested] == []
    nested_imports = {module for module, nested in imports if nested}
    assert nested_imports & LOADS_NUMPY == {"fredholm", "selftest"}


def test_lazy_modules_are_the_library():
    assert sorted(hadamard_bvp._LAZY) == LIBRARY


def test_the_package_loads_no_module_before_first_use():
    # In a fresh interpreter: `import hadamard_bvp` loads none of its modules,
    # dir() already lists every export, and a module name yields the module.
    code = (
        "import hadamard_bvp, sys\n"
        "print(sorted(m for m in sys.modules if m.startswith('hadamard_bvp.')))\n"
        "print(sorted(set(hadamard_bvp.__all__) - set(dir(hadamard_bvp))))\n"
        "from hadamard_bvp import errors\n"
        "print(errors is sys.modules['hadamard_bvp.errors'],"
        " hadamard_bvp.kernel is sys.modules['hadamard_bvp.kernel'])\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
    )
    assert done.stdout.splitlines() == ["[]", "[]", "True True"]


@pytest.mark.parametrize("name", [name for name in (*SCALAR, "cli") if name not in DEFERRED])
def test_scalar_modules_defer_the_parser_and_csv(name):
    top_level = {module for module, nested in _imports(_tree(name)) if not nested}
    assert top_level.isdisjoint(DEFERRED)


@pytest.mark.parametrize("name", [*SCALAR, *ARRAY, "cli"])
def test_no_module_imports_a_test_dependency(name):
    # scipy, mpmath, hypothesis and pytest are test extras, not runtime
    # dependencies, so not even a function-local import may load them.
    imported = {module for module, _ in _imports(_tree(name))}
    assert imported.isdisjoint({"scipy", "mpmath", "hypothesis", "pytest"})


def test_no_module_imports_dataclasses():
    for path in PACKAGE.glob("*.py"):
        assert "dataclasses" not in {module for module, _ in _imports(_tree(path.stem))}, path.name


def test_detects_a_function_local_import():
    tree = ast.parse(
        "import numpy as np\nfrom . import grid\n\n"
        "def f():\n    from .fredholm import K\n    import numpy.linalg\n"
    )
    assert _imports(tree) == [
        ("numpy", False), ("grid", False), ("fredholm", True), ("numpy", True),
    ]
