"""Text format for algebra definitions and the JSON report schema.

Document grammar (one entry per line, ``#`` starts a comment):

    doc   := "algebra" IDENT "field" ("Q"|"Qi") NL "basis" IDENT+ NL entry* "end"
    entry := "[" IDENT "," IDENT "]" "=" term ("+" term)*
    term  := SCALAR IDENT | IDENT

Scalars use the shared exact syntax (``3``, ``-1/2``, ``1+1i``, ``i``).
Brackets are listed pairwise: nothing is assumed antisymmetric, so both
``[e,f]`` and ``[f,e]`` appear when both are nonzero.  Omitted brackets are
zero, and duplicate entries are errors.

Report JSON is machine-diffable: fixed key order, and every scalar is an
exact string, never a float.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .algebra import MAX_DIM, Algebra
from .exactlin import Q, QI, axpy, coerce_scalar, format_scalar, parse_scalar

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_LEXEME = re.compile(r"[\[\],=]|[^\s\[\],=]+")


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__("line %d, column %d: %s" % (line, col, msg))
        self.line = line
        self.col = col
        self.msg = msg


@dataclass(frozen=True)
class AlgebraDoc:
    """A parsed algebra document in canonical entry order."""

    name: str
    field: str
    labels: tuple
    # ((i, j), ((coeff, k), ...)) sorted by (i, j); coefficients nonzero
    entries: tuple


def _words(line: str):
    """Split a line into lexemes with their 1-based column positions."""
    return [(m.group(), m.start() + 1) for m in _LEXEME.finditer(line)]


class _Parser:
    def __init__(self, text: str):
        self.lines = []
        for idx, raw in enumerate(text.splitlines()):
            body = raw.split("#", 1)[0]
            words = _words(body)
            if words:
                self.lines.append((idx + 1, words))
        self.pos = 0

    def error(self, msg, line, col=1):
        raise ParseError(msg, line, col)

    def next_line(self, what):
        if self.pos >= len(self.lines):
            last = self.lines[-1][0] if self.lines else 1
            self.error("unexpected end of input, expected %s" % what, last)
        item = self.lines[self.pos]
        self.pos += 1
        return item

    def parse(self) -> AlgebraDoc:
        lineno, words = self.next_line("algebra header")
        toks = [w for w, _ in words]
        if len(toks) != 4 or toks[0] != "algebra" or toks[2] != "field":
            self.error("expected 'algebra NAME field Q|Qi'", lineno, words[0][1])
        name = toks[1]
        if not _IDENT.match(name):
            self.error("bad algebra name %r" % name, lineno, words[1][1])
        fld = toks[3]
        if fld not in (Q, QI):
            self.error("field must be Q or Qi", lineno, words[3][1])

        lineno, words = self.next_line("basis line")
        toks = [w for w, _ in words]
        if len(toks) < 2 or toks[0] != "basis":
            self.error("expected 'basis IDENT...'", lineno, words[0][1])
        labels = []
        for w, col in words[1:]:
            if not _IDENT.match(w):
                self.error("bad basis label %r" % w, lineno, col)
            if w in labels:
                self.error("duplicate basis label %r" % w, lineno, col)
            if len(labels) == MAX_DIM:
                self.error("more than %d basis labels" % MAX_DIM, lineno, col)
            labels.append(w)
        index = {lbl: i for i, lbl in enumerate(labels)}

        entries = {}
        while True:
            lineno, words = self.next_line("bracket entry or 'end'")
            toks = [w for w, _ in words]
            if toks == ["end"]:
                break
            if len(toks) < 7 or toks[0] != "[" or toks[2] != "," or toks[4] != "]" \
                    or toks[5] != "=":
                self.error("expected '[a,b] = term (+ term)*' or 'end'",
                           lineno, words[0][1])
            for w, col, what in ((toks[1], words[1][1], "left"),
                                 (toks[3], words[3][1], "right")):
                if w not in index:
                    self.error("undeclared label %r" % w, lineno, col)
            key = (index[toks[1]], index[toks[3]])
            if key in entries:
                self.error("duplicate entry for [%s,%s]" % (toks[1], toks[3]),
                           lineno, words[1][1])
            coeffs = {}
            terms = words[6:]
            # split on standalone '+' separators
            groups = [[]]
            for w, col in terms:
                if w == "+":
                    groups.append([])
                else:
                    groups[-1].append((w, col))
            for grp in groups:
                if len(grp) == 1:
                    (w, col), = grp
                    if not _IDENT.match(w):
                        self.error("malformed term %r" % w, lineno, col)
                    if w not in index:
                        self.error("undeclared label %r" % w, lineno, col)
                    k = index[w]
                    cf = coerce_scalar(1, fld)
                elif len(grp) == 2:
                    (sw, scol), (lw, lcol) = grp
                    try:
                        cf = parse_scalar(sw, fld)
                    except ValueError as exc:
                        self.error(str(exc), lineno, scol)
                    if lw not in index:
                        self.error("undeclared label %r" % lw, lineno, lcol)
                    k = index[lw]
                else:
                    self.error("malformed term", lineno,
                               grp[0][1] if grp else words[-1][1])
                axpy(coeffs, cf, ((k, 1),))
            if coeffs:
                entries[key] = tuple((coeffs[k], k) for k in sorted(coeffs))
        if self.pos < len(self.lines):
            lineno, words = self.lines[self.pos]
            self.error("unexpected input after 'end'", lineno, words[0][1])
        return AlgebraDoc(name, fld, tuple(labels),
                          tuple((k, entries[k]) for k in sorted(entries)))


def parse(text: str) -> AlgebraDoc:
    return _Parser(text).parse()


def serialize(doc: AlgebraDoc) -> str:
    """Canonical text: entries in basis order, zero entries omitted."""
    out = ["algebra %s field %s" % (doc.name, doc.field),
           "basis %s" % " ".join(doc.labels)]
    for (i, j), terms in doc.entries:
        parts = []
        for cf, k in terms:
            if cf == 1:
                parts.append(doc.labels[k])
            else:
                parts.append("%s %s" % (format_scalar(cf), doc.labels[k]))
        out.append("[%s,%s] = %s" % (doc.labels[i], doc.labels[j],
                                     " + ".join(parts)))
    out.append("end")
    return "\n".join(out) + "\n"


def to_algebra(doc: AlgebraDoc) -> Algebra:
    brackets = {key: [(k, cf) for cf, k in terms] for key, terms in doc.entries}
    return Algebra.from_brackets(doc.field, doc.labels, brackets)


def from_algebra(name: str, alg: Algebra) -> AlgebraDoc:
    entries = tuple((key, tuple((cf, k) for k, cf in terms))
                    for key, terms in alg.table.items())
    return AlgebraDoc(name, alg.field, alg.labels, entries)


@dataclass(frozen=True)
class Report:
    """Verification/analysis report; serialized by :func:`report_json`."""

    version: str
    input: str  # digest or description of the inputs
    analyses: tuple = ()
    claims: tuple = ()  # mappings with id/params/status/expected/actual/elapsed


def report_json(report: Report, timing: bool = False) -> str:
    """Stable-key JSON; scalars are exact strings.  Per-claim elapsed times
    are emitted as milliseconds only when ``timing`` is set, so that equal
    runs produce byte-identical output by default."""
    claims = []
    for c in report.claims:
        entry = {
            "id": c["id"],
            "params": c["params"],
            "status": c["status"],
            "expected": c["expected"],
            "actual": c["actual"],
            "elapsed_ms": int(c["elapsed"] * 1000) if timing else None,
        }
        claims.append(entry)
    doc = {
        "version": report.version,
        "input": report.input,
        "analyses": list(report.analyses),
        "claims": claims,
    }
    return json.dumps(doc, indent=2) + "\n"
