"""Runner of the machine-checkable structural facts about the catalog families.

Every claim states a documented quantitative fact (a dimension formula, a
named basis, an inclusion, a structural invariant), instantiates it at
concrete parameters (family, n, a), runs it against the engine, and reports
confirmed / refuted / discrepancy / skipped.  The engine, not the statement,
is ground truth: a claim pre-flagged as a suspected misprint reports a
mismatch as ``discrepancy``; everything else reports ``refuted``.

The claims themselves are in :mod:`derleib.checkers`, which :func:`run_all`
imports when it runs, so the other commands never compile them.  A checker
records its comparisons in the :class:`Checks` that :func:`run_claim`
passes it, and :func:`run_claim` alone decides the status.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from . import __version__
from .algebra import MAX_DIM
from .derivations import MatrixLieAlgebra
from .dsl import Report
from .exactlin import SparseVec, Subspace, format_rows, format_scalar
from .liestruct import verify_levi

DEFAULT_A = (Fraction(2), Fraction(1, 2), Fraction(-3),
             Fraction(1), Fraction(-1), Fraction(0))

CONFIRMED = "confirmed"
REFUTED = "refuted"
DISCREPANCY = "discrepancy"
SKIPPED = "skipped"


class Claim(NamedTuple):
    id: str
    statement: str
    domain: Callable
    check: Callable  # check(ck, params) records into ck, returns the summary
    typo_flagged: bool = False


class ClaimResult(NamedTuple):
    """One claim instance; its fields are the keys of its report entry, in
    report order."""
    id: str
    params: dict
    status: str
    expected: str
    actual: str
    elapsed: float


class Checks:
    """The expected-vs-actual comparisons of one claim instance, which its
    checker records and :func:`run_claim` judges."""

    def __init__(self):
        self.problems = []
        self.flagged = None  # (stated, computed) texts of a flagged mismatch

    def eq(self, label: str, expected, actual):
        if expected != actual:
            self.problems.append("%s: expected %s, actual %s"
                                 % (label, expected, actual))

    def flat_eq(self, label: str, d: int, expected: SparseVec, actual: SparseVec):
        """:meth:`eq` on two flattened d x d matrices, printed by :func:`_fmt_flat`."""
        if expected != actual:
            self.eq(label, _fmt_flat(expected, d), _fmt_flat(actual, d))

    def true(self, label: str, cond: bool, detail: str = ""):
        if not cond:
            self.problems.append(label + ((": " + detail) if detail else ""))

    def spans_equal(self, label: str, expected: Optional[Subspace],
                    actual: Subspace):
        if expected is None:
            self.problems.append("%s: a stated generator is not in the "
                                 "computed algebra" % label)
        elif expected != actual:
            self.problems.append("%s: stated span %s != computed span %s"
                                 % (label, _fmt_sub(expected), _fmt_sub(actual)))

    def spans_algebra(self, label: str, mla: MatrixLieAlgebra, mats):
        """The flattened matrices ``mats`` span ``mla``: Der, Inn or AIDer,
        compared in its basis coordinates."""
        self.spans_equal(label, mla.coords_span(mats),
                         Subspace.full(mla.dim, mla.field))

    def levi(self, label: str, der: MatrixLieAlgebra, mats):
        """The span of ``mats`` is a verified Levi complement of ``der``."""
        span = der.coords_span(mats)
        if span is None:
            self.true("Levi generators lie in Der", False)
        else:
            res = verify_levi(der.structure, span)
            self.true(label, res.verified, str(res))

    def flag(self, expected: str, actual: str) -> str:
        """Record a mismatch with a statement that may be a misprint; returns
        the stated text, the checker's summary."""
        self.flagged = (expected, actual)
        return expected


def _fmt_flat(flat: SparseVec, d: int) -> str:
    """Sorted 1-based ``(row, col): value`` pairs, the convention of the
    checkers' matrix units."""
    return "{%s}" % ", ".join("(%d, %d): %s" % (i // d + 1, i % d + 1, format_scalar(v))
                              for i, v in sorted(flat.items()))


def _fmt_sub(s: Subspace) -> str:
    return "{%s}" % "; ".join("[%s]" % ", ".join(cells) for cells in format_rows(s))


def run_claim(claim: Claim, params: dict) -> ClaimResult:
    """Run ``claim.check(ck, params)``, which returns its summary, and judge
    the comparisons it recorded: a flagged mismatch is a discrepancy for a
    flagged claim and a refutation otherwise, and any problem refutes."""
    t0 = time.perf_counter()
    ck = Checks()
    expected = actual = claim.check(ck, params)
    if ck.flagged:
        status = DISCREPANCY if claim.typo_flagged else REFUTED
        expected, actual = ck.flagged
    elif ck.problems:
        status, actual = REFUTED, "; ".join(ck.problems)
    else:
        status = CONFIRMED
    return ClaimResult(claim.id, params, status, expected, actual,
                       time.perf_counter() - t0)


def _report_id(text: str) -> str:
    """The first 16 hex digits of the SHA-256 of ``text``.  CPython's
    built-in module computes it without ``hashlib``, which maps OpenSSL;
    ``random`` takes its built-in ``_sha512`` first for the same reason."""
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        try:
            from _sha2 import sha256  # CPython 3.12+
        except ImportError:
            from hashlib import sha256
    return sha256(text.encode()).hexdigest()[:16]


def run_all(nmax: int = 4, a_values=DEFAULT_A, seed: int = 0,
            only=None) -> Report:
    """Instantiate every claim over its domain clipped to nmax.  The claims
    are exact, so ``seed`` enters only the report's input id."""
    # the Dieudonne algebra, of dimension 2n+2, is the largest family built
    top = (MAX_DIM - 2) // 2
    if not 1 <= nmax <= top:
        raise ValueError("nmax must be between 1 and %d, the largest n every "
                         "family builds within dimension %d" % (top, MAX_DIM))
    from .checkers import registry  # deferred: only verify-paper runs claims
    reg = registry()
    unknown = set(only or ()) - {claim.id for claim in reg}
    if unknown:
        raise ValueError("unknown claim id(s): %s" % ", ".join(sorted(unknown)))
    a_values = tuple(a_values)
    entries = []
    for claim in reg:
        if only and claim.id not in only:
            continue
        domain = claim.domain(nmax, a_values)
        results = [run_claim(claim, params) for params in domain] or [
            ClaimResult(claim.id, {}, SKIPPED, claim.statement,
                        "no applicable parameters at nmax=%d" % nmax, 0.0)]
        for r in results:
            params = {k: v if isinstance(v, (int, str)) else format_scalar(v)
                      for k, v in sorted(r.params.items())}
            entries.append(r._replace(params=params)._asdict())
    digest = "nmax=%d;a=%s;seed=%d" % (
        nmax, ",".join(format_scalar(a) for a in a_values), seed)
    return Report(version=__version__, input=_report_id(digest),
                  analyses=(), claims=tuple(entries))
