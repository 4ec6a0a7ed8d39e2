"""The benchmark's span recorder (``perfbench/spans.py``) wraps functions of
``derleib`` by name.  A name it lists that the package no longer has breaks
only a traced benchmark run, so this test resolves every one of them.

The benchmark's child installs the recorder right after ``import
derleib.cli``, so the names are looked up in a fresh interpreter that ran
only that import: inside the test process, other test files have already
imported every module, and a module that the CLI loads lazily would pass
here while the traced run fails."""

import importlib.util
import os
import subprocess
import sys

TESTS = os.path.dirname(os.path.abspath(__file__))
SPANS_PY = os.path.join(TESTS, os.pardir, "perfbench", "spans.py")
SRC = os.path.join(TESTS, os.pardir, "src")


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, path) for targets in spans.TARGETS.values()
            for module, path in targets]


def after_cli_import(code: str, *args) -> str:
    """Stdout of ``code`` run with ``args`` in a fresh interpreter, right
    after ``import derleib.cli``."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys\nimport derleib.cli\n" + code, *args],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# Looked up as ``Recorder.install`` does: ``owner.__dict__[attr]`` for a
# dotted path, ``getattr`` on the module otherwise; a module that is not
# loaded resolves nothing.
_RESOLVE = """
for arg in sys.argv[1:]:
    module, path = arg.split(":")
    home = sys.modules.get("derleib." + module)
    if "." in path:
        owner, attr = path.split(".")
        found = attr in vars(getattr(home, owner, None) or object)
    else:
        found = callable(getattr(home, path, None))
    if not found:
        print("%s.%s" % (module, path))
"""


def test_every_span_target_resolves():
    targets = _targets()
    missing = after_cli_import(
        _RESOLVE, *("%s:%s" % target for target in targets)).split()
    assert missing == []
    assert len(targets) == 32


# The checkers module is imported by the claim runner after the recorder is
# installed; the wrappers must reach it through the home-module bindings.
_TRACED_VERIFY = """
import importlib.util, io
sys.dont_write_bytecode = True
assert "derleib.checkers" not in sys.modules
spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
recorder = spans.Recorder()
recorder.install()
derleib.cli.main(["verify-paper", "--nmax", "1", "--json"], out=io.StringIO())
for name in sorted({recorder.names[span[0]] for span in recorder.spans}):
    print(name)
"""


def test_traced_verify_records_the_lazily_imported_checkers():
    recorded = after_cli_import(_TRACED_VERIFY, SPANS_PY).split()
    assert {"derivations.der", "claims.run_claim"} <= set(recorded)


# ``analyze --der`` runs the Killing form, the radical and its quotient
# check under the recorder; the kernel counter reads each result's dense
# ``basis``, which is built from the canonical ``rows``
_TRACED_ANALYZE = """
import importlib.util, io
sys.dont_write_bytecode = True
spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
recorder = spans.Recorder()
recorder.install()
out = io.StringIO()
argv = ["analyze", "--family", "heisenberg-lie", "--n", "3", "--der"]
assert derleib.cli.main(argv, out=out) == 0
assert "nilradical (dim" in out.getvalue()
for name in sorted({recorder.names[span[0]] for span in recorder.spans}):
    print(name)
print(recorder.counters["kernel.max_bits"])
"""


def test_traced_analyze_records_the_killing_form_and_the_quotient():
    *recorded, max_bits = after_cli_import(_TRACED_ANALYZE, SPANS_PY).split()
    assert {"liestruct.killing", "liestruct.radical", "algebra.quotient",
            "exactlin.kernel"} <= set(recorded)
    assert int(max_bits) > 0
