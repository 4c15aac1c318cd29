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


def _names_used(node: ast.AST) -> set[str]:
    """Every name a piece of code reads, an attribute it takes or a name it imports."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.split(".")[-1] for alias in sub.names)
    return found


def test_every_public_definition_has_a_caller_outside_the_tests():
    """A public function or class of the package is used by package code
    other than its own definition, by scripts/ or by perfbench/; one that
    only the tests use belongs in the tests.  __init__'s re-export is not a use."""
    root = PACKAGE.parents[1]
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    outside = set().union(*(_names_used(ast.parse(path.read_text(encoding="utf-8")))
                            for folder in ("scripts", "perfbench")
                            for path in sorted((root / folder).glob("*.py"))))
    unused = []
    for name, tree in modules.items():
        used = outside.union(*(_names_used(other) for key, other in modules.items() if key != name))
        own = [_names_used(stmt) for stmt in tree.body]
        for i, node in enumerate(tree.body):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name not in used.union(*own[:i], *own[i + 1:]):
                unused.append(f"{name}:{node.name}")
    assert modules and not unused, unused


def _calls_itself(func: ast.FunctionDef) -> bool:
    """Whether a function's body calls it by name, or as a method of self or cls."""
    for sub in ast.walk(func):
        if isinstance(sub, ast.Call):
            f = sub.func
            if isinstance(f, ast.Name) and f.id == func.name:
                return True
            if isinstance(f, ast.Attribute) and f.attr == func.name \
                    and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls"):
                return True
    return False


# the oracle's search recurses once per pattern vertex: at most ORACLE_PATTERN_CAP deep
BOUNDED_RECURSION = {("freeness.py", "place")}


def test_no_function_calls_itself():
    """A recursion as deep as its input ends in a RecursionError traceback once
    the input passes Python's recursion limit; the package loops over an
    explicit stack instead, except where the depth has a small cap."""
    found = [(path.name, node.name)
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _calls_itself(node)]
    assert set(found) <= BOUNDED_RECURSION, found
