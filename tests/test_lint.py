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


def _raised_name(node: ast.Raise) -> str | None:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_package_raises_no_assertion_error():
    """An AssertionError escapes the CLI as a traceback, since it is not a
    SplitfreeError; a broken invariant raises InvariantViolation instead."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Raise) and node.exc is not None
             and _raised_name(node) == "AssertionError"]
    assert not found, found


def test_no_module_imports_another_modules_private_names():
    """A module's underscore names are its own: another module that needs one
    needs a public name, or the code belongs in the owning module."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ImportFrom)
             and (node.level or (node.module or "").split(".")[0] == "splitfree")
             and any(alias.name.startswith("_") for alias in node.names)]
    assert not found, found
