"""Rules on the package source that no behavioural test can see."""

import ast
import builtins
import re
from pathlib import Path

import slicesdr

PACKAGE_DIR = Path(slicesdr.__file__).resolve().parent
README = PACKAGE_DIR.parents[1] / "README.md"


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


def _used_names(tree: ast.Module) -> set:
    """Names a module reads, as a bare name or an attribute, except a
    top-level definition's reads of its own name."""
    used = set()
    for stmt in tree.body:
        names = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(stmt)
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        used |= names
    return used


def _named_in_readme(name: str) -> bool:
    text = README.read_text(encoding="utf-8")
    return re.search(rf"\b{re.escape(name)}\b", text) is not None


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def test_every_public_definition_is_used_or_documented():
    # A public function or class that no code in the package reads and
    # README does not document is shipped for the tests alone; such
    # helpers belong in tests/oracles.py.
    trees = {p.name: _parse(p) for p in sorted(PACKAGE_DIR.glob("*.py"))
             if p.name != "__init__.py"}
    used = set().union(*map(_used_names, trees.values()))
    unused = [
        f"{name}:{stmt.name}"
        for name, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_")
        and stmt.name not in used and not _named_in_readme(stmt.name)
    ]
    assert not unused, unused


def test_every_exported_name_is_used_by_the_cli_or_documented():
    used = _used_names(_parse(PACKAGE_DIR / "cli.py"))
    missing = [
        name for name in slicesdr.__all__
        if name not in used and not _named_in_readme(name)
    ]
    assert not missing, missing
