"""Rules on the package source that no behavioural test can see."""

import ast
import builtins
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


def test_no_builtin_exception_but_os_error_is_raised():
    # Every failure leaves the library as a slicesdr.errors family, which
    # the CLI maps to an exit code.  cli._check_output raises the OSError
    # family on purpose, as open() would for the same --output.
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Raise) and node.exc is not None):
                continue
            cls = getattr(builtins, _raised_name(node) or "", None)
            if (isinstance(cls, type) and issubclass(cls, BaseException)
                    and not issubclass(cls, OSError)):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders
