"""Every source file of the package and of its tests parses with the grammar
of the oldest Python that ``pyproject.toml`` declares, so syntax of a later
version (``except*``, say) cannot land where only a later one runs."""

import ast
import re
from pathlib import Path

import pytest

import hadamard_bvp

PACKAGE = Path(hadamard_bvp.__file__).parent
TESTS = Path(__file__).parent
PYPROJECT = (TESTS.parent / "pyproject.toml").read_text()
OLDEST = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', PYPROJECT).groups()))


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda path: f"{path.parent.name}/{path.name}",
)
def test_parses_with_the_oldest_grammar(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=OLDEST)


def test_an_older_grammar_refuses_later_syntax():
    # except* is Python 3.11 grammar.
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
