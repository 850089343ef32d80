"""Rules on the package source that no behavioural test can see."""

import argparse
import ast
import builtins
import re
from pathlib import Path

import slicesdr
from slicesdr.cli import build_parser

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


def _warned_names(node: ast.Call):
    """Names passed to a ``warnings.warn`` call, positionally or by keyword."""
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr == "warn"
            and isinstance(func.value, ast.Name) and func.value.id == "warnings"):
        return set()
    args = node.args + [kw.value for kw in node.keywords]
    return {arg.id for arg in args if isinstance(arg, ast.Name)}


def test_every_error_class_is_raised():
    # A class earns its place in slicesdr.errors when some caller can act
    # on it apart from its family: the library raises it (or warns with
    # it), or it is the base of a class that is.
    bases = {
        stmt.name: {b.id for b in stmt.bases if isinstance(b, ast.Name)}
        for stmt in _parse(PACKAGE_DIR / "errors.py").body
        if isinstance(stmt, ast.ClassDef)
    }
    used = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                used.add(_raised_name(node))
            elif isinstance(node, ast.Call):
                used |= _warned_names(node)
    reached = set()
    while used - reached:
        name = (used - reached).pop()
        reached.add(name)
        used |= bases.get(name, set())
    assert sorted(set(bases) - reached) == []


def test_no_catch_all_except():
    # A catch-all handler would turn a bug into a reported failure; each
    # handler names the errors it means.
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(c is None or (isinstance(c, ast.Name)
                                 and c.id in ("Exception", "BaseException"))
                   for c in caught):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders


#: numpy functions that import numpy.ma on their first call (numpy 2.4):
#: the order statistics through ``np.ma.isMaskedArray``, and ``np.unique``
#: without counts or indexes and ``np.unique_values`` through
#: ``np.ma.is_masked``; the rest of the unique family goes with them.
#: ``simulation.order_stats`` and ``slicing.slice_discrete`` take the same
#: results from one sort.
LOAD_NUMPY_MA = {
    "median", "quantile", "percentile",
    "nanmedian", "nanquantile", "nanpercentile",
    "unique", "unique_values", "unique_counts", "unique_inverse", "unique_all",
    "ma",
}


def test_no_call_loads_numpy_ma():
    # numpy.ma costs every process that loads it about 1.3 MiB of resident
    # memory and 11-17 ms, and no command needs it.
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = {node.attr} if node.value.id in ("np", "numpy") else set()
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                names = {alias.name for alias in node.names} | set(node.module.split("."))
            elif isinstance(node, ast.Import):
                names = {part for alias in node.names for part in alias.name.split(".")
                         if alias.name.startswith("numpy")}
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}:{name}"
                          for name in sorted(names & LOAD_NUMPY_MA)]
    assert not offenders, f"these load numpy.ma: {offenders}"


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


def _imported_names(tree: ast.Module):
    """(name, line) of each name a module's imports bind, except those of
    ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported_names(tree: ast.Module) -> set:
    """The strings of a module's ``__all__`` list."""
    return {
        elt.value
        for stmt in tree.body
        if isinstance(stmt, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
        for elt in stmt.value.elts
    }


def test_every_imported_name_is_read():
    # An import that nothing reads is dead code; the package's __init__
    # reads its imports by listing them in __all__.
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = _parse(path)
        read = _exported_names(tree) | {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        offenders += [f"{path.name}:{line}:{name}"
                      for name, line in _imported_names(tree) if name not in read]
    assert not offenders, offenders


#: Every settable parameter in src/, as "module:function(name)" or
#: "module:Class.field": keyword defaults and dataclass fields with a
#: value.  Each is a knob that a caller can leave out; a new one shows up
#: in the diff of this list.
SETTABLE_PARAMETERS = [
    "cli:main(argv)",
    "simulation:run_grid(seed)",
    "simulation:run_grid(methods)",
    "simulation:run_grid(standardize)",
    "simulation:run_grid(p)",
    "simulation:bias_sweep(seed)",
    "simulation:bias_sweep(p)",
    "slicing:_Buffers.get(dtype)",
    "slicing:_flat_index(out)",
    "slicing:stable_order(buffers)",
    "slicing:_gram(out)",
]


def _decorator_name(node: ast.expr):
    target = node.func if isinstance(node, ast.Call) else node
    return target.id if isinstance(target, ast.Name) else None


def _settable(node: ast.AST, prefix: str):
    """The settable parameters defined in ``node``, in source order."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            a = child.args
            positional = a.posonlyargs + a.args
            defaulted = positional[len(positional) - len(a.defaults):] + [
                arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None
            ]
            yield from (f"{prefix}{child.name}({arg.arg})" for arg in defaulted)
            yield from _settable(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            if "dataclass" in map(_decorator_name, child.decorator_list):
                yield from (
                    f"{prefix}{child.name}.{stmt.target.id}"
                    for stmt in child.body
                    if isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                )
            yield from _settable(child, f"{prefix}{child.name}.")
        else:
            yield from _settable(child, prefix)


def test_settable_parameters_are_the_listed_ones():
    found = [
        name
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for name in _settable(_parse(path), f"{path.stem}:")
    ]
    assert sorted(found) == sorted(SETTABLE_PARAMETERS)


#: Every dataclass in src/, as "module:Class": each is a type that a caller
#: builds or reads, which shows here when it is added or removed.
DATACLASSES = [
    "estimators:CdrBasis",
    "linalg:EigenResult",
    "slicing:SliceAssignment",
    "slicing:SliceStats",
]


def test_dataclasses_are_the_listed_ones():
    found = [
        f"{path.stem}:{node.name}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.ClassDef)
        and "dataclass" in map(_decorator_name, node.decorator_list)
    ]
    assert sorted(found) == sorted(DATACLASSES)


#: Every name in ``slicesdr.__all__``: each is public API that a caller
#: may import, which shows here when it is added or removed.
PUBLIC_NAMES = [
    "__version__",
    "CdrBasis",
    "DEFAULT_SEED",
    "EigenResult",
    "METHODS",
    "SliceAssignment",
    "SliceStats",
    "bias_sweep",
    "candidate_matrix",
    "cdr_basis",
    "correction_coefficients",
    "csave_matrix",
    "directions_to_x_scale",
    "ensure_symmetric",
    "inv_sqrt",
    "lambda_corrected",
    "load_csv",
    "model_streams",
    "negative_eigenvalue_count",
    "r2_single",
    "run_grid",
    "save_matrix",
    "sir_matrix",
    "slice_discrete",
    "slice_equal_count",
    "slice_stats",
    "standardize",
    "sym_eig",
]


def test_public_names_are_the_listed_ones():
    assert sorted(slicesdr.__all__) == sorted(PUBLIC_NAMES)


#: Every private name that a package module takes from another one, as
#: "importer <- module.name": each is a coupling between the internals of
#: two modules, which shows here when it is added or removed.
PRIVATE_IMPORTS = [
    "simulation <- estimators._write_candidates",
    "simulation <- linalg._leading_vectors",
    "simulation <- metrics._orthonormalize",
    "simulation <- metrics._r2_rows",
    "simulation <- slicing._Buffers",
    "simulation <- slicing._SliceGrid",
]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_imports(tree: ast.Module, modules: set):
    """(module, name) of each private name that a package module imports
    from one of ``modules``, as ``from .x import _y`` or as ``x._y`` on a
    module bound by ``from . import x``; the package imports itself only
    relatively."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None and alias.name in modules:
                    bound[alias.asname or alias.name] = alias.name
                elif _is_private(alias.name):
                    yield node.module or "__init__", alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound and _is_private(node.attr)):
            yield bound[node.value.id], node.attr


def test_private_names_that_cross_modules_are_the_listed_ones():
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    modules = {path.stem for path in paths}
    found = {
        f"{path.stem} <- {module}.{name}"
        for path in paths
        for module, name in _private_imports(_parse(path), modules)
    }
    assert sorted(found) == sorted(PRIVATE_IMPORTS)


def _parser_options(parser: argparse.ArgumentParser, command: str = "") -> list:
    """The --options of ``parser`` and of its subcommands, each after its
    subcommand's name, without argparse's own --help."""
    options = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                options += _parser_options(sub, f"{name} ")
        elif not isinstance(action, argparse._HelpAction):
            options += [command + s for s in action.option_strings if s.startswith("--")]
    return options


def test_readme_options_are_the_parsers():
    # An option README names but the CLI lacks is stale documentation, and
    # one the CLI has but README never names is undocumented.
    text = README.read_text(encoding="utf-8")
    documented = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", text))
    documented -= {"--no-build-isolation"}  # pip's, in the install line
    assert documented == {o.split()[-1] for o in _parser_options(build_parser())}


#: Every CLI option, as "command --option" ("--version" is the top level's):
#: each is a knob that a user can set, which shows here when it is added or
#: removed.
CLI_OPTIONS = [
    "--version",
    "estimate --input",
    "estimate --y",
    "estimate --slices",
    "estimate --method",
    "estimate --k",
    "estimate --out",
    "estimate --output",
    "simulate --model",
    "simulate --n",
    "simulate --p",
    "simulate --slices",
    "simulate --reps",
    "simulate --seed",
    "simulate --methods",
    "simulate --quantiles",
    "simulate --standardize",
    "simulate --out",
    "simulate --output",
    "table1 --reps",
    "table1 --seed",
    "table1 --models",
    "table1 --H",
    "table1 --n",
    "table1 --standardize",
    "table1 --out",
    "table1 --output",
    "sweep --mode",
    "sweep --n-grid",
    "sweep --c-grid",
    "sweep --reps",
    "sweep --seed",
    "sweep --p",
    "sweep --out",
    "sweep --output",
]


def test_cli_options_are_the_listed_ones():
    assert sorted(_parser_options(build_parser())) == sorted(CLI_OPTIONS)
