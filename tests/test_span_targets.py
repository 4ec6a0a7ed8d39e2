"""The benchmark's span recorder (``perfbench/spans.py``) wraps functions of
``derleib`` by name.  A name it lists that the package no longer has breaks
only a traced benchmark run, so this test resolves every one of them."""

import importlib.util
import os
import sys

# the benchmark's child imports derleib.cli, which loads every module
import derleib.cli

SPANS_PY = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, path) for targets in spans.TARGETS.values()
            for module, path in targets]


def test_every_span_target_resolves():
    """Looked up as ``Recorder.install`` does: ``owner.__dict__[attr]`` for
    a dotted path, ``getattr`` on the module otherwise."""
    missing = []
    targets = _targets()
    for module, path in targets:
        home = sys.modules["derleib." + module]
        if "." in path:
            owner, attr = path.split(".")
            found = attr in vars(getattr(home, owner, None) or object)
        else:
            found = callable(getattr(home, path, None))
        if not found:
            missing.append("%s.%s" % (module, path))
    assert missing == []
    assert len(targets) == 32
