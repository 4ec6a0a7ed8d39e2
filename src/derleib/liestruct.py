"""Structural analysis of Lie algebras: Killing form, radical, nilradical,
semisimplicity, and verification of claimed Levi complements.

The nilradical uses the characteristic-zero associative-envelope method
(de Graaf, *Lie Algebras: Theory and Algorithms*, 2000): x is in the
nilradical iff ad_x lies in the radical of the associative algebra A
generated by the adjoint maps, and in characteristic 0 that radical is
{a in A : trace(ab) = 0 for all b in A}.  So the nilradical is the kernel of
the linear conditions trace(ad_x b) = 0, one for each basis element b of A.
The naive Killing-orthogonal shortcut is wrong over Q for mixed-weight
solvable algebras; a regression test pins a five-dimensional counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .algebra import Algebra
from .exactlin import (
    Echelon,
    InternalInvariantError,
    Mat,
    Subspace,
    kernel_from_rows,
    rref,
    scalar_zero,
    sparse_flat,
    sparse_mul,
    sparse_trace,
)


class NotLie(ValueError):
    """The operation needs a Lie algebra (antisymmetric bracket + Jacobi)."""


def _require_lie(alg: Algebra):
    if not alg.kind.lie:
        raise NotLie("not a Lie algebra")


@dataclass(frozen=True)
class KillingForm:
    gram: Mat

    @property
    def rank(self) -> int:
        return rref(self.gram)[1]

    def value(self, x, y):
        gx = self.gram.apply(y)
        return sum((xi * gi for xi, gi in zip(x, gx) if xi),
                   scalar_zero(self.gram.field))


@lru_cache(maxsize=None)
def killing(alg: Algebra) -> KillingForm:
    """Gram matrix of (x, y) -> trace(ad_x ad_y) on the basis."""
    _require_lie(alg)
    ads = alg.ops[0]
    gram = [[sparse_trace(a, b) for b in ads] for a in ads]
    return KillingForm(Mat.from_rows(gram, alg.field))


def _killing_orthogonal(alg: Algebra) -> Subspace:
    """Killing-orthogonal of the derived algebra."""
    form = killing(alg)
    derived = alg.product_space(alg.full_space(), alg.full_space())
    return kernel_from_rows((form.gram.apply(v) for v in derived.basis),
                            alg.dim, alg.field)


@lru_cache(maxsize=None)
def radical(alg: Algebra) -> Subspace:
    """Killing-orthogonal of the derived algebra (char-0 radical); checked by
    requiring the same computation to give zero on the quotient."""
    _require_lie(alg)
    rad = _killing_orthogonal(alg)
    if rad.dim < alg.dim and _killing_orthogonal(alg.quotient(rad)).dim != 0:
        raise InternalInvariantError("radical self-check failed")
    return rad


@lru_cache(maxsize=None)
def nilradical(alg: Algebra) -> Subspace:
    """Largest nilpotent ideal: the x with trace(ad_x b) = 0 for every b in
    the associative envelope of the adjoint maps; the result is re-verified
    before returning."""
    _require_lie(alg)
    d = alg.dim
    ads = alg.ops[0]
    env_ech = Echelon(d * d)
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
    # ad_x lies in the envelope A, so it is in the trace radical of A
    # iff trace(ad_x b) = 0 for every basis element b of A
    rows = ([sparse_trace(a, b) for a in ads] for b in basis)
    nil = kernel_from_rows(rows, d, alg.field)
    _verify_nilradical(alg, nil)
    return nil


def _verify_nilradical(alg: Algebra, nil: Subspace):
    full = alg.full_space()
    if not (nil.contains(alg.product_space(full, nil))
            and nil.contains(alg.product_space(nil, full))):
        raise InternalInvariantError("nilradical candidate is not an ideal")
    term = nil
    for _ in range(alg.dim + 1):
        if term.is_zero():
            return
        term = alg.product_space(nil, term)
    raise InternalInvariantError("nilradical candidate is not nilpotent")


def is_semisimple(alg: Algebra) -> bool:
    """Cartan criterion: nondegenerate Killing form."""
    _require_lie(alg)
    return killing(alg).rank == alg.dim


@dataclass(frozen=True)
class LeviResult:
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
    if s.intersect(rad).dim != 0 or s.sum(rad).dim != alg.dim:
        return LeviResult(False, "not-complement")
    form = killing(alg)
    k = s.dim
    gram = [[form.value(a, b) for b in s.basis] for a in s.basis]
    if k and rref(Mat.from_rows(gram, alg.field))[1] != k:
        return LeviResult(False, "degenerate")
    return LeviResult(True)


@dataclass(frozen=True)
class StructureReport:
    lower_central_dims: tuple
    derived_dims: tuple
    center_dim: int
    killing_rank: int
    radical: Subspace
    nilradical: Subspace
    levi: Optional[LeviResult]


def structure_report(alg: Algebra, levi_candidate: Optional[Subspace] = None
                     ) -> StructureReport:
    _require_lie(alg)
    rad = radical(alg)
    nil = nilradical(alg)
    if not rad.contains(nil):
        raise InternalInvariantError("nilradical escapes the radical")
    levi = verify_levi(alg, levi_candidate) if levi_candidate is not None else None
    return StructureReport(
        lower_central_dims=tuple(t.dim for t in alg.series("lower_central")),
        derived_dims=tuple(t.dim for t in alg.series("derived")),
        center_dim=alg.centers()[2].dim,
        killing_rank=killing(alg).rank,
        radical=rad,
        nilradical=nil,
        levi=levi,
    )
