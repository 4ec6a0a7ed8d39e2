"""Every name a module of the package imports is used in it, every
private module-level helper is read in it, and every public function, class
and method is read somewhere in the package.

A stdlib stand-in for a linter's unused-import and dead-code rules: each
``src/derleib`` module is parsed with :mod:`ast`, and a name counts as used
when it is read anywhere in the module, appears in a string annotation, or
is listed in ``__all__`` (a re-export).  A private helper's reads inside
its own definition (recursion) do not count.
"""

import ast
import re
from pathlib import Path

import pytest

from test_span_targets import _targets, after_cli_import

SRC = Path(__file__).resolve().parent.parent / "src" / "derleib"


def _imported(tree):
    """``{name: line}`` of the names bound by the module's imports."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                names[name] = node.lineno
    return names


def _used(tree):
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    for ann in annotations:
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used.update(n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                        if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = sorted("%s (line %d)" % (name, line)
                    for name, line in _imported(tree).items() if name not in used)
    assert not unused, "%s imports unused names: %s" % (path.name, ", ".join(unused))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dead_private_helpers(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    dead = []
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.startswith("__")):
            rest = ast.Module([n for n in tree.body if n is not node], [])
            if node.name not in _used(rest):
                dead.append("%s (line %d)" % (node.name, node.lineno))
    assert not dead, "%s defines unread private helpers: %s" % (
        path.name, ", ".join(dead))


def _public_defs(tree):
    """``(qualified name, name, line)`` of the module's public functions and
    classes and of the public methods of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            yield node.name, node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield "%s.%s" % (node.name, sub.name), sub.name, sub.lineno


def test_no_dead_public_api():
    """Every public function, class and method of the package is read by
    some module of it (as a name or an attribute), re-exported in
    ``__all__``, or wrapped by the benchmark's span recorder.  The check
    goes by name: a method passes when any read shares its name, even one
    that resolves to another class."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    read = {path.split(".")[-1] for _, path in _targets()}
    for tree in trees.values():
        read |= _used(tree)
        read.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))
    dead = ["%s:%s (line %d)" % (name, qual, line)
            for name, tree in trees.items()
            for qual, short, line in _public_defs(tree) if short not in read]
    assert not dead, "public API that nothing reads: %s" % ", ".join(dead)


def test_mat_only_at_the_edge():
    """The dense ``Mat`` is named, in code, comments or docstrings, only
    where it is defined, by the span recorder's shims in ``derivations`` and
    in the package's ``__all__``: the catalog's parameter matrices and the
    claims use sparse rows and flats."""
    naming = sorted(path.name for path in SRC.glob("*.py")
                    if re.search(r"\bMat\b", path.read_text(encoding="utf-8")))
    assert naming == ["__init__.py", "derivations.py", "exactlin.py"]


def test_cli_startup_modules():
    """``import derleib.cli`` loads every module the benchmark's span
    recorder wraps, and none of the modules the package no longer needs at
    start-up: ``dataclasses`` (which pulls in ``inspect``), ``json``,
    imported where it is used, ``hashlib``, which it does not use, and
    ``derleib.checkers``, which only ``verify-paper`` runs."""
    loaded = set(after_cli_import("print(*sys.modules)").split())
    assert sorted(loaded & {"dataclasses", "inspect", "json", "hashlib",
                            "derleib.checkers"}) == []
    wanted = {"derleib." + module for module, _ in _targets()}
    assert sorted(wanted - loaded) == []


def test_verify_paper_loads_no_openssl():
    """A whole ``verify-paper`` run takes its report id from CPython's
    built-in SHA-256, so it imports neither ``hashlib`` nor its OpenSSL
    binding ``_hashlib``."""
    out = after_cli_import(
        "import io\n"
        "report = io.StringIO()\n"
        "derleib.cli.main(['verify-paper', '--nmax', '1', '--json'], out=report)\n"
        "assert '\"input\": \"' in report.getvalue()\n"
        "print(*sys.modules)")
    loaded = set(out.split())
    assert "derleib.checkers" in loaded
    assert sorted(loaded & {"hashlib", "_hashlib"}) == []
