"""Source rules for the package itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "splitfree"


def test_package_has_no_assert_statements():
    """python -O strips assert, so a check written as one would silently stop
    checking; the package raises its own errors instead."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert sorted(PACKAGE.glob("*.py")) and not found, found
