"""Span recorder for the traced benchmark run, and the span arithmetic.

Recording happens inside a ``derleib`` child process: :meth:`Recorder.install`
wraps the public functions of each layer, at every module binding (a name
taken with ``from .exactlin import kernel_from_rows`` is a binding of its
own), so each call appends a span ``(name, start, end, parent)`` to an
in-memory list.  :meth:`Recorder.dump` writes the list out once, when the
invocation ends.

Analysis happens in the benchmark process: :func:`layer_metrics` turns the
spans of every invocation of a pass into the per-layer metrics named in
``METRICS``.  A layer's self time is its span's duration minus the part of
that interval its child spans cover.  A span nested in a span of the same
name (``radical`` calling ``radical``, ``heisenberg_lie`` calling
``heisenberg_leibniz``) is not counted a second time.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# span name -> (module, attribute path) of every function the span wraps
TARGETS = {
    "derivations.closure": [("derivations", "MatrixLieAlgebra.from_matrices")],
    "derivations.commutator": [("derivations", "commutator")],
    "derivations.der": [("derivations", "der_algebra")],
    "derivations.aider": [("derivations", "almost_inner_genus1")],
    "derivations.inn": [("derivations", "inner_derivations")],
    "derivations.is_derivation": [("derivations", "is_derivation")],
    "exactlin.kernel": [("exactlin", "kernel_from_rows")],
    "exactlin.coords": [("exactlin", "Subspace.coords")],
    "exactlin.matmul": [("exactlin", "Mat.__mul__")],
    "exactlin.span": [("exactlin", "Subspace.span")],
    "exactlin.contains": [("exactlin", "Subspace.contains")],
    "exactlin.intersect": [("exactlin", "Subspace.intersect")],
    "liestruct.nilradical": [("liestruct", "nilradical")],
    "liestruct.radical": [("liestruct", "radical")],
    "liestruct.killing": [("liestruct", "killing")],
    "liestruct.verify_levi": [("liestruct", "verify_levi")],
    "algebra.kind": [("algebra", "Algebra.kind")],
    "algebra.product_space": [("algebra", "Algebra.product_space")],
    "algebra.series": [("algebra", "Algebra.series")],
    "algebra.centers": [("algebra", "Algebra.centers")],
    "algebra.quotient": [("algebra", "Algebra.quotient")],
    "algebra.from_brackets": [("algebra", "Algebra.from_brackets")],
    "catalog.build": [("catalog", f) for f in (
        "heisenberg_leibniz", "heisenberg_lie", "kronecker", "dieudonne",
        "realify_heisenberg", "realify_algebra")],
    "dsl.parse": [("dsl", "parse")],
    "dsl.report_json": [("dsl", "report_json")],
    "claims.run_claim": [("claims", "run_claim")],
    "cli.main": [("cli", "main")],
}

# Time spent in counter hooks is recorded under this name (name index 0), so
# that it is excluded from the self time of the span that made the call.
HOOK = "trace.hook"

# metric name -> (unit, better, how it is computed from the spans)
#   ("calls", span)      outermost spans of that name
#   ("s", span)          their summed duration
#   ("self_s", span)     their summed self time
#   ("nested", span, a)  spans of that name with an ancestor named a
#   ("counter", key)     a counter the child recorded
METRICS = {
    "derivations.closure.calls": ("count", "lower", ("calls", "derivations.closure")),
    "derivations.closure.s": ("s", "lower", ("s", "derivations.closure")),
    "derivations.closure.commutators": (
        "count", "lower", ("nested", "derivations.commutator", "derivations.closure")),
    "derivations.der.calls": ("count", "lower", ("calls", "derivations.der")),
    "derivations.der.s": ("s", "lower", ("s", "derivations.der")),
    "derivations.der.self_s": ("s", "lower", ("self_s", "derivations.der")),
    "derivations.der.cache_hits": ("count", "higher", ("counter", "der.cache_hits")),
    "derivations.der.dim_sum": ("count", "lower", ("counter", "der.dim_sum")),
    "derivations.aider.s": ("s", "lower", ("s", "derivations.aider")),
    "derivations.aider.self_s": ("s", "lower", ("self_s", "derivations.aider")),
    "derivations.inn.s": ("s", "lower", ("s", "derivations.inn")),
    "derivations.is_derivation.calls": (
        "count", "lower", ("calls", "derivations.is_derivation")),
    "derivations.is_derivation.s": ("s", "lower", ("s", "derivations.is_derivation")),
    "exactlin.kernel.calls": ("count", "lower", ("calls", "exactlin.kernel")),
    "exactlin.kernel.s": ("s", "lower", ("s", "exactlin.kernel")),
    "exactlin.kernel.rows": ("count", "lower", ("counter", "kernel.rows")),
    "exactlin.kernel.nnz": ("count", "lower", ("counter", "kernel.nnz")),
    "exactlin.kernel.rank": ("count", "lower", ("counter", "kernel.rank")),
    "exactlin.kernel.max_bits": ("bits", "lower", ("counter", "kernel.max_bits")),
    "exactlin.coords.calls": ("count", "lower", ("calls", "exactlin.coords")),
    "exactlin.coords.s": ("s", "lower", ("s", "exactlin.coords")),
    "exactlin.matmul.calls": ("count", "lower", ("calls", "exactlin.matmul")),
    "exactlin.matmul.s": ("s", "lower", ("s", "exactlin.matmul")),
    "exactlin.span.calls": ("count", "lower", ("calls", "exactlin.span")),
    "exactlin.span.s": ("s", "lower", ("s", "exactlin.span")),
    "exactlin.contains.calls": ("count", "lower", ("calls", "exactlin.contains")),
    "exactlin.contains.s": ("s", "lower", ("s", "exactlin.contains")),
    "exactlin.intersect.s": ("s", "lower", ("s", "exactlin.intersect")),
    "liestruct.nilradical.s": ("s", "lower", ("s", "liestruct.nilradical")),
    "liestruct.radical.s": ("s", "lower", ("s", "liestruct.radical")),
    "liestruct.killing.s": ("s", "lower", ("s", "liestruct.killing")),
    "liestruct.verify_levi.s": ("s", "lower", ("s", "liestruct.verify_levi")),
    "algebra.kind.calls": ("count", "lower", ("calls", "algebra.kind")),
    "algebra.kind.s": ("s", "lower", ("s", "algebra.kind")),
    "algebra.product_space.calls": ("count", "lower", ("calls", "algebra.product_space")),
    "algebra.product_space.s": ("s", "lower", ("s", "algebra.product_space")),
    "algebra.series.s": ("s", "lower", ("s", "algebra.series")),
    "algebra.centers.s": ("s", "lower", ("s", "algebra.centers")),
    "algebra.quotient.s": ("s", "lower", ("s", "algebra.quotient")),
    "algebra.from_brackets.calls": ("count", "lower", ("calls", "algebra.from_brackets")),
    "algebra.from_brackets.s": ("s", "lower", ("s", "algebra.from_brackets")),
    "catalog.build.calls": ("count", "lower", ("calls", "catalog.build")),
    "catalog.build.s": ("s", "lower", ("s", "catalog.build")),
    "dsl.parse.s": ("s", "lower", ("s", "dsl.parse")),
    "dsl.report_json.s": ("s", "lower", ("s", "dsl.report_json")),
    "dsl.report_json.bytes": ("bytes", "lower", ("counter", "report_json.bytes")),
    "claims.run_claim.calls": ("count", "lower", ("calls", "claims.run_claim")),
    "claims.run_claim.self_s": ("s", "lower", ("self_s", "claims.run_claim")),
    "cli.main.s": ("s", "lower", ("s", "cli.main")),
}


# ---------------------------------------------------------------------------
# recording (child process)
# ---------------------------------------------------------------------------

def _bits(x) -> int:
    parts = (x.re, x.im) if hasattr(x, "im") else (x,)
    return max(max(abs(p.numerator).bit_length(), p.denominator.bit_length())
               for p in parts)


def _max_bits(vectors) -> int:
    best = 0
    for v in vectors:
        for x in (v.values() if isinstance(v, dict) else v):
            if x:
                best = max(best, _bits(x))
    return best


def _wrap_attr(owner, attr, wrap):
    """Replace a class attribute, keeping classmethod / cached_property."""
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(wrap(raw.__func__)))
    elif isinstance(raw, functools.cached_property):
        prop = functools.cached_property(wrap(raw.func))
        prop.__set_name__(owner, attr)
        setattr(owner, attr, prop)
    else:
        setattr(owner, attr, wrap(raw))


class Recorder:
    """The spans and counters of one invocation, kept in memory until
    :meth:`dump`.  A span is ``[name index, start, end, parent index]``,
    with parent -1 at the top; a parent always precedes its children."""

    def __init__(self):
        self.names = [HOOK]
        self.spans = []
        self.stack = []  # indices of the open spans
        self.counters = {}
        self.der_cache = None  # der_algebra's lru_cache, read at dump time
        self._der_misses = 0

    def _hook(self, hook, *args):
        """Run a counter hook as a span of its own."""
        span = [0, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
        try:
            return hook(*args)
        finally:
            span[2] = time.perf_counter()
            self.spans.append(span)

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` recording a span per call; ``before(args)`` may replace the
        arguments, ``after(args, result)`` reads counters."""
        if name not in self.names:
            self.names.append(name)
        name_idx = self.names.index(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = self._hook(before, args)
            span = [name_idx, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                self._hook(after, args, result)
            return result
        return wrapper

    def _add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    @staticmethod
    def _kernel_before(args):
        rows, *rest = args
        return (list(rows), *rest)

    def _kernel_after(self, args, result):
        rows, ncols = args[0], args[1]
        self._add("kernel.rows", len(rows))
        self._add("kernel.nnz", sum(len(r) if isinstance(r, dict)
                                    else sum(1 for x in r if x) for r in rows))
        self._add("kernel.rank", ncols - result.dim)
        self.counters["kernel.max_bits"] = max(
            self.counters.get("kernel.max_bits", 0),
            _max_bits(rows), _max_bits(result.basis))

    def _der_after(self, args, result):
        misses = self.der_cache.cache_info().misses
        if misses != self._der_misses:
            self._der_misses = misses
            self._add("der.dim_sum", result.dim)

    def _report_after(self, args, result):
        self._add("report_json.bytes", len(result.encode("utf-8")))

    def install(self):
        """Wrap every target at every binding in the loaded ``derleib``
        modules."""
        package = {name: mod for name, mod in sys.modules.items()
                   if name == "derleib" or name.startswith("derleib.")}
        hooks = {"exactlin.kernel": (self._kernel_before, self._kernel_after),
                 "derivations.der": (None, self._der_after),
                 "dsl.report_json": (None, self._report_after)}
        for span_name, targets in TARGETS.items():
            before, after = hooks.get(span_name, (None, None))

            def wrap(fn, span_name=span_name, before=before, after=after):
                return self.wrap(span_name, fn, before, after)
            for module, path in targets:
                home = package["derleib." + module]
                if "." in path:
                    owner, attr = path.split(".")
                    _wrap_attr(getattr(home, owner), attr, wrap)
                    continue
                original = getattr(home, path)
                if span_name == "derivations.der":
                    self.der_cache = original
                wrapped = wrap(original)
                for mod in package.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    def dump(self, path, invocation):
        """Write the spans and counters of this invocation to ``path``."""
        counters = dict(self.counters)
        if self.der_cache is not None:
            counters["der.cache_hits"] = self.der_cache.cache_info().hits
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"invocation": invocation, "names": self.names,
                       "spans": self.spans, "counters": counters}, fh)


# ---------------------------------------------------------------------------
# analysis (benchmark process)
# ---------------------------------------------------------------------------

def load(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def self_times(spans) -> list:
    """Self time of each span: its duration minus the union of the
    intervals of its direct children, clipped to the span."""
    children = [[] for _ in spans]
    for idx, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for (_, start, end, _), kids in zip(spans, children):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[k][1], spans[k][2]) for k in kids):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def _ancestor_names(spans, names):
    """For each span, the frozen set of names of its strict ancestors.
    A parent always precedes its children, so one forward pass suffices."""
    interned = {}
    out = []
    for name_idx, _, _, parent in spans:
        if parent < 0:
            anc = frozenset()
        else:
            key = (out[parent], names[spans[parent][0]])
            anc = interned.get(key)
            if anc is None:
                anc = interned[key] = key[0] | {key[1]}
        out.append(anc)
    return out


_NESTED = [tuple(what) for _, _, (how, *what) in METRICS.values()
           if how == "nested"]


def layer_metrics(dumps) -> dict:
    """Per-layer metrics summed over the invocations of one pass."""
    calls, total, self_total, nested = {}, {}, {}, {}
    counters = {}
    for dump_ in dumps:
        names, spans = dump_["names"], dump_["spans"]
        ancestors = _ancestor_names(spans, names)
        selfs = self_times(spans)
        for (name_idx, start, end, _), anc, own in zip(spans, ancestors, selfs):
            name = names[name_idx]
            for pair in _NESTED:
                if name == pair[0] and pair[1] in anc:
                    nested[pair] = nested.get(pair, 0) + 1
            if name in anc:
                continue
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            self_total[name] = self_total.get(name, 0.0) + own
        for key, value in dump_["counters"].items():
            if key == "kernel.max_bits":
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
    out = {}
    for metric, (unit, _, (how, *what)) in METRICS.items():
        if how == "calls":
            value = calls.get(what[0], 0)
        elif how == "s":
            value = total.get(what[0], 0.0)
        elif how == "self_s":
            value = self_total.get(what[0], 0.0)
        elif how == "nested":
            value = nested.get(tuple(what), 0)
        else:
            value = counters.get(what[0], 0)
        out[metric] = (value, unit)
    return out
