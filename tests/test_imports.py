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
import sys
from pathlib import Path

import pytest

from test_span_targets import SPANS_PY, _targets, after_cli_import

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


def _attribute_reads(tree):
    return {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def _dead_public_api(trees, outside):
    """``module:qualified name (line)`` of each public definition in
    ``trees`` that nothing reads.  A function or class counts as read when
    its name is read as a name or an attribute, or is listed in ``__all__``;
    a method only when its name is read as an attribute, so a local
    variable of the same name does not count.  ``outside`` holds the
    attribute names read outside the package.  The check goes by name: a
    method passes when any attribute read shares its name, even one that
    resolves to another class."""
    attrs = set(outside)
    for tree in trees.values():
        attrs |= _attribute_reads(tree)
    names = attrs.union(*map(_used, trees.values()))
    return ["%s:%s (line %d)" % (name, qual, line)
            for name, tree in trees.items()
            for qual, short, line in _public_defs(tree)
            if short not in (attrs if "." in qual else names)]


def test_no_dead_public_api():
    """Every public function, class and method of the package is read by
    some module of it, or by the benchmark's span recorder: the names it
    wraps, and the attributes ``perfbench/spans.py`` reads (parsed, not
    run), such as ``result.basis`` on a kernel's result."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    outside = {path.split(".")[-1] for _, path in _targets()}
    outside |= _attribute_reads(ast.parse(Path(SPANS_PY).read_text(encoding="utf-8")))
    dead = _dead_public_api(trees, outside)
    assert not dead, "public API that nothing reads: %s" % ", ".join(dead)


def test_a_method_read_only_as_a_local_is_dead():
    defs = ast.parse("class A:\n    def view(self):\n        return 1\n")
    local = ast.parse("def _f():\n    view = A()\n    return view\n")
    read = ast.parse("def _g():\n    return A().view\n")
    assert _dead_public_api({"m.py": defs, "f.py": local}, set()) == [
        "m.py:A.view (line 2)"]
    assert _dead_public_api({"m.py": defs, "f.py": local}, {"view"}) == []
    assert _dead_public_api({"m.py": defs, "g.py": read}, set()) == []


def test_src_lines_fit():
    """No line of the package is longer than 92 characters, so its line
    count measures the design and not how tightly the lines are packed."""
    long = ["%s:%d" % (path.name, k)
            for path in sorted(SRC.glob("*.py"))
            for k, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > 92]
    assert long == []


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


def _startup_imports(tree):
    """The top-level names of the modules a module imports when it runs:
    all but those its function bodies import."""
    names, todo = set(), list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
        todo.extend(ast.iter_child_nodes(node))
    return names


def test_readme_lists_the_startup_stdlib_imports():
    """README's Start-up paragraph names every standard library module that
    ``import derleib.cli`` imports: the module-level imports of every module
    but ``checkers``, which ``claims.run_all`` imports when it runs.
    Imports inside functions, such as ``json`` and ``_sha256``, do not
    count, nor does ``__future__``."""
    imported = set()
    for path in SRC.glob("*.py"):
        if path.name != "checkers.py":
            imported |= _startup_imports(ast.parse(path.read_text(encoding="utf-8")))
    stdlib = imported & sys.stdlib_module_names - {"__future__"}
    readme = " ".join((SRC.parent.parent / "README.md").read_text(encoding="utf-8").split())
    sentence = re.search(
        r"From the standard library the package imports only (.*?) at start-up", readme)
    assert sentence, "README lost its sentence on the start-up imports"
    assert sorted(re.findall(r"`([^`]+)`", sentence.group(1))) == sorted(stdlib)


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
