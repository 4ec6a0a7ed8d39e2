"""Text format for algebra definitions and the JSON report schema.

Document grammar (one entry per line, ``#`` starts a comment):

    doc   := "algebra" IDENT "field" ("Q"|"Qi") NL "basis" IDENT+ NL entry* "end"
    entry := "[" IDENT "," IDENT "]" "=" term ("+" term)*
    term  := SCALAR IDENT | IDENT

Scalars use the shared exact syntax (``3``, ``-1/2``, ``1+1i``, ``i``).
Brackets are listed pairwise: nothing is assumed antisymmetric, so both
``[e,f]`` and ``[f,e]`` appear when both are nonzero.  Omitted brackets are
zero, and each bracket is listed at most once, even when its terms cancel.

Report JSON is machine-diffable: fixed key order, and every scalar is an
exact string, never a float.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .algebra import MAX_DIM, Algebra
from .exactlin import Q, QI, format_scalar, parse_scalar

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_LEXEME = re.compile(r"[\[\],=]|[^\s\[\],=]+")


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__("line %d, column %d: %s" % (line, col, msg))
        self.line = line
        self.col = col
        self.msg = msg


class AlgebraDoc(NamedTuple):
    """A named algebra: what a definition document parses to."""

    name: str
    algebra: Algebra


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

        brackets = {}  # every listed key, even when its terms cancel
        while True:
            lineno, words = self.next_line("bracket entry or 'end'")
            toks = [w for w, _ in words]
            if toks == ["end"]:
                break
            if len(toks) < 7 or toks[0] != "[" or toks[2] != "," or toks[4] != "]" \
                    or toks[5] != "=":
                self.error("expected '[a,b] = term (+ term)*' or 'end'",
                           lineno, words[0][1])
            for w, col in ((toks[1], words[1][1]), (toks[3], words[3][1])):
                if w not in index:
                    self.error("undeclared label %r" % w, lineno, col)
            key = (index[toks[1]], index[toks[3]])
            if key in brackets:
                self.error("duplicate entry for [%s,%s]" % (toks[1], toks[3]),
                           lineno, words[1][1])
            terms = brackets[key] = []
            # split on standalone '+' separators
            groups = [[]]
            for w, col in words[6:]:
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
                    terms.append((index[w], 1))
                elif len(grp) == 2:
                    (sw, scol), (lw, lcol) = grp
                    try:
                        cf = parse_scalar(sw, fld)
                    except ValueError as exc:
                        self.error(str(exc), lineno, scol)
                    if lw not in index:
                        self.error("undeclared label %r" % lw, lineno, lcol)
                    terms.append((index[lw], cf))
                else:
                    self.error("malformed term", lineno,
                               grp[0][1] if grp else words[-1][1])
        if self.pos < len(self.lines):
            lineno, words = self.lines[self.pos]
            self.error("unexpected input after 'end'", lineno, words[0][1])
        return AlgebraDoc(name, Algebra.from_brackets(fld, labels, brackets))


def parse(text: str) -> AlgebraDoc:
    return _Parser(text).parse()


def bracket_lines(alg: Algebra) -> list:
    """One ``[a,b] = terms`` line per nonzero bracket, in table order."""
    labels = alg.labels
    lines = []
    for (i, j), terms in alg.table.items():
        rhs = " + ".join(labels[k] if cf == 1
                         else "%s %s" % (format_scalar(cf), labels[k])
                         for k, cf in terms)
        lines.append("[%s,%s] = %s" % (labels[i], labels[j], rhs))
    return lines


def serialize(doc: AlgebraDoc) -> str:
    """Canonical text: entries in basis order, zero entries omitted."""
    alg = doc.algebra
    out = ["algebra %s field %s" % (doc.name, alg.field),
           "basis %s" % " ".join(alg.labels), *bracket_lines(alg), "end"]
    return "\n".join(out) + "\n"


class Report(NamedTuple):
    """Verification/analysis report; serialized by :func:`report_json`."""

    version: str
    input: str  # digest or description of the inputs
    analyses: tuple = ()
    claims: tuple = ()  # the ``_asdict()`` of each claims.ClaimResult


def report_json(report: Report, timing: bool = False) -> str:
    """Stable-key JSON; scalars are exact strings.  Per-claim elapsed times
    are emitted as milliseconds only when ``timing`` is set, so that equal
    runs produce byte-identical output by default."""
    import json  # deferred: only JSON output pays for it
    doc = report._asdict()
    doc["claims"] = [dict(c) for c in report.claims]
    for c in doc["claims"]:
        ms = int(c.pop("elapsed") * 1000)
        c["elapsed_ms"] = ms if timing else None
    return json.dumps(doc, indent=2) + "\n"
