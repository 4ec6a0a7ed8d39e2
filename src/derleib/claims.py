"""Runner of the machine-checkable structural facts about the catalog families.

Every claim states a documented quantitative fact (a dimension formula, a
named basis, an inclusion, a structural invariant), instantiates it at
concrete parameters (family, n, a), runs it against the engine, and reports
confirmed / refuted / discrepancy / skipped.  The engine, not the statement,
is ground truth: a claim pre-flagged as a suspected misprint reports a
mismatch as ``discrepancy``; everything else reports ``refuted``.

The claims themselves are in :mod:`derleib.checkers`, which :func:`run_all`
imports when it runs, so the other commands never compile them.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Callable, NamedTuple

from . import __version__
from .algebra import MAX_DIM
from .dsl import Report
from .exactlin import format_scalar

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
    check: Callable
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


def run_claim(claim: Claim, params: dict) -> ClaimResult:
    t0 = time.perf_counter()
    status, expected, actual = claim.check(params)
    if status == DISCREPANCY and not claim.typo_flagged:
        status = REFUTED
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
