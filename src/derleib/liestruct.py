"""Structural analysis of Lie algebras: Killing form, radical, nilradical,
and verification of claimed Levi complements.

The radical is the Killing-orthogonal of the derived algebra (char 0),
checked by requiring the quotient by it to be semisimple.  The nilradical is
the set of x in the radical R with ad_x nilpotent (Jacobson, *Lie Algebras*,
1962).  ad(R) is solvable, so by Lie's theorem the associative algebra A_R
it generates is triangularizable; in characteristic 0 its radical, the
nilpotent elements, is {a in A_R : trace(ab) = 0 for all b in A_R} (de
Graaf, *Lie Algebras: Theory and Algorithms*, 2000).  So the nilradical is
the kernel of trace(ad_x b) = 0 over x in R, one condition per basis
element b of A_R; a Levi factor never enters the envelope.  The naive
Killing-orthogonal shortcut is wrong over Q for mixed-weight solvable
algebras; a regression test pins a five-dimensional counterexample.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .algebra import Algebra, NotAnIdeal
from .exactlin import (
    Echelon,
    InternalInvariantError,
    Subspace,
    cached,
    kernel_from_rows,
    sparse_combine,
    sparse_flat,
    sparse_mul,
    sparse_rows,
    sparse_traces,
)


class NotLie(ValueError):
    """The operation needs a Lie algebra (antisymmetric bracket + Jacobi)."""


def _require_lie(alg: Algebra):
    if not alg.kind.lie:
        raise NotLie("not a Lie algebra")


def _gram(alg: Algebra) -> dict:
    """Sparse rows ``{s: {t: v}}`` of trace(ad_s ad_t) on the int adjoints:
    c^2 times the Gram matrix of the Killing form for c = ``alg.int_scale``,
    which changes neither its rank nor an orthogonal, so nothing here
    divides; uncached."""
    ads = alg.int_ops[0]
    return sparse_traces(ads, ads)


@cached
def killing(alg: Algebra) -> dict:
    """The Killing form of a Lie algebra, as the sparse rows of :func:`_gram`."""
    _require_lie(alg)
    return _gram(alg)


def _orthogonal(sub: Subspace, gram: dict) -> Subspace:
    """Orthogonal of ``sub`` under a symmetric form, given by sparse rows
    ``gram`` of a nonzero multiple of its Gram matrix G: the kernel of the
    products x G over the echelon rows x of ``sub``, which are multiples of
    its canonical rows."""
    x = dict(enumerate(map(dict, sub.erows)))
    return kernel_from_rows(sparse_mul(x, gram).values(), sub.ambient_dim, sub.field)


@cached
def radical(alg: Algebra) -> Subspace:
    """Killing-orthogonal of the derived algebra (char-0 radical); checked by
    requiring the same computation to give zero on the quotient.  A quotient
    of a Lie algebra by an ideal is Lie, so the check reads the quotient's
    Gram matrix without classifying it again."""
    _require_lie(alg)
    rad = _orthogonal(alg.commutator_ideal, killing(alg))
    if rad.dim < alg.dim:
        try:
            q = alg.quotient(rad)
        except NotAnIdeal as exc:  # the engine's radical, not the input, is wrong
            raise InternalInvariantError("radical self-check failed: %s"
                                         % exc) from exc
        if _orthogonal(q.commutator_ideal, _gram(q)).dim != 0:
            raise InternalInvariantError("radical self-check failed")
    return rad


@cached
def nilradical(alg: Algebra) -> Subspace:
    """Largest nilpotent ideal: the x in the radical with trace(ad_x b) = 0
    for every b in the associative envelope of the adjoints of the radical's
    basis; the result is re-verified before returning."""
    _require_lie(alg)
    rad = radical(alg)
    if rad.is_zero():
        return rad
    d = alg.dim
    flats = [sparse_flat(a, d).items() for a in alg.int_ops[0]]
    ads = [sparse_rows(sparse_combine(flats, row), d) for row in rad.erows]
    env_ech = Echelon(d * d, alg.field)
    gens = [a for a in ads if a and env_ech.insert(sparse_flat(a, d))]
    basis = list(gens)
    i = 0
    while i < len(basis):
        w = basis[i]
        i += 1
        for g in gens:
            p = sparse_mul(w, g)
            if p and env_ech.insert(sparse_flat(p, d)):
                basis.append(p)
        if len(basis) > d * d:
            raise InternalInvariantError("envelope closure did not stabilize")
    # ad_x lies in the envelope A_R, so it is in the trace radical of A_R
    # iff trace(ad_x b) = 0 for every basis element b of A_R; solve over the
    # radical's coordinates and map the kernel back through its rows
    traces = sparse_traces(basis, ads).values()
    kernel = kernel_from_rows(traces, rad.dim, alg.field)
    nil = Subspace.span((sparse_combine(rad.erows, row) for row in kernel.erows),
                        d, alg.field)
    if not rad.contains(nil):
        raise InternalInvariantError("nilradical escapes the radical")
    _verify_nilradical(alg, nil)
    return nil


def _verify_nilradical(alg: Algebra, nil: Subspace):
    """``nil`` is a nilpotent ideal of the Lie algebra ``alg``; its bracket
    is antisymmetric, so [L, N] = [N, L] and one side is checked."""
    if not nil.contains(alg.product_space(alg.full_space(), nil)):
        raise InternalInvariantError("nilradical candidate is not an ideal")
    term = nil
    for _ in range(alg.dim + 1):
        if term.is_zero():
            return
        term = alg.product_space(nil, term)
    raise InternalInvariantError("nilradical candidate is not nilpotent")


class LeviResult(NamedTuple):
    verified: bool
    reason: Optional[str] = None  # not-subalgebra | not-complement | degenerate

    def __str__(self):
        return "verified" if self.verified else "failed(%s)" % self.reason


def verify_levi(alg: Algebra, s: Subspace) -> LeviResult:
    """Check that ``s`` is a Levi complement: a subalgebra, transverse to the
    radical, and with nondegenerate restricted Killing form."""
    _require_lie(alg)
    if not s.contains(alg.product_space(s, s)):
        return LeviResult(False, "not-subalgebra")
    rad = radical(alg)
    if s.dim + rad.dim != alg.dim or s.sum(rad).dim != alg.dim:
        return LeviResult(False, "not-complement")
    # the form is degenerate on s iff some nonzero x in s is orthogonal to s
    if not s.intersect(_orthogonal(s, killing(alg))).is_zero():
        return LeviResult(False, "degenerate")
    return LeviResult(True)

