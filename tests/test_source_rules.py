"""Rules on the package source that no behavioural test can see."""

import ast
from pathlib import Path

import slicesdr

PACKAGE_DIR = Path(slicesdr.__file__).resolve().parent


def _raised_name(node: ast.Raise):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_no_bare_value_error_is_raised():
    # The CLI maps errors to exit codes by their family base in
    # slicesdr.errors; a bare ValueError has none and ends in a traceback.
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise) and node.exc is not None
        and _raised_name(node) == "ValueError"
    ]
    assert not offenders, offenders
