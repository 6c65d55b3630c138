"""Every Python file of the project parses as Python 3.10, the oldest version pyproject.toml accepts.

ast.parse with feature_version rejects syntax newer than 3.10 (except*, for
one) on a newer interpreter too, so the claim is checked wherever the tests
run.  It checks syntax only, not the standard library calls a file makes.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
FILES = sorted(path for top in ("src", "tests", "bench") for path in (ROOT / top).rglob("*.py"))


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_parses_as_python_3_10(path):
    ast.parse(path.read_bytes(), filename=str(path), feature_version=(3, 10))
