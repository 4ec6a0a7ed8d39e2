"""Structural analysis of Lie algebras: Killing form, radical, nilradical,
semisimplicity, and verification of claimed Levi complements.

The nilradical uses the characteristic-zero associative-envelope method
(de Graaf, *Lie Algebras: Theory and Algorithms*, 2000): build the
associative algebra generated by the adjoint maps, take the radical of its
trace form, and pull back.  The naive Killing-orthogonal shortcut is wrong
over Q for mixed-weight solvable algebras; a regression test pins a
five-dimensional counterexample.
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
    axpy,
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


@lru_cache(maxsize=None)
def radical(alg: Algebra, _self_check: bool = True) -> Subspace:
    """Killing-orthogonal of the derived algebra (char-0 radical)."""
    _require_lie(alg)
    form = killing(alg)
    derived = alg.product_space(alg.full_space(), alg.full_space())
    rad = kernel_from_rows((form.gram.apply(v) for v in derived.basis),
                           alg.dim, alg.field)
    if _self_check and rad.dim < alg.dim:
        quot = alg.quotient(rad)
        if radical(quot, False).dim != 0:
            raise InternalInvariantError("radical self-check failed")
    return rad


@lru_cache(maxsize=None)
def nilradical(alg: Algebra) -> Subspace:
    """Largest nilpotent ideal, via the trace-form radical of the adjoint
    associative envelope; the result is re-verified before returning."""
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
    gram = [{} for _ in basis]
    for s, a in enumerate(basis):
        for t in range(s, len(basis)):
            v = sparse_trace(a, basis[t])
            if v:
                gram[s][t] = gram[t][s] = v  # trace(ab) = trace(ba)
    rad_coeffs = kernel_from_rows(gram, len(basis), alg.field)
    rad_ech = Echelon(d * d)
    for lam in rad_coeffs.basis:
        acc: dict = {}
        for s, cf in enumerate(lam):
            if cf:
                axpy(acc, cf, sparse_flat(basis[s], d).items())
        rad_ech.insert(acc)
    rows: dict = {}
    for i, a in enumerate(ads):
        red = rad_ech.reduce(sparse_flat(a, d))
        for c, v in red.items():
            rows.setdefault(c, {})[i] = v
    nil = kernel_from_rows(rows.values(), d, alg.field)
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
