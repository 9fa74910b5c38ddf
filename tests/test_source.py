"""Checks on the package source itself."""

import ast
from pathlib import Path

import bifill

SRC = Path(bifill.__file__).parent


def test_no_bare_assert_in_the_package():
    # python -O strips assert statements; the package's internal checks must
    # raise explicitly so they hold under every interpreter flag
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
