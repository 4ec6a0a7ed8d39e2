"""Structure-constant algebras with Leibniz/Lie identity checking.

An :class:`Algebra` is a finite-dimensional algebra given by basis labels
and a structure tensor ``c[i][j][k]`` (coefficient of basis ``k`` in
``[b_i, b_j]``).  The trilinear identities are decided exactly by exhaustive
checks over basis triples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Literal, Mapping, Sequence

from .exactlin import (
    Mat,
    Subspace,
    ShapeMismatch,
    coerce_scalar,
    kernel_from_rows,
    scalar_zero,
)


class NotAnIdeal(ValueError):
    """Raised when a quotient is requested by a subspace that is not an ideal."""


@dataclass(frozen=True)
class AlgebraKind:
    left_leibniz: bool
    right_leibniz: bool
    symmetric: bool
    lie: bool


@dataclass(frozen=True)
class Algebra:
    field: str
    labels: tuple
    c: tuple  # c[i][j][k], nested tuples, shape dim^3

    @property
    def dim(self) -> int:
        return len(self.labels)

    @classmethod
    def from_brackets(cls, field: str, labels: Sequence[str],
                      brackets: Mapping) -> "Algebra":
        """Build from a sparse table ``{(i, j): [(k, coeff), ...]}``."""
        dim = len(labels)
        z = scalar_zero(field)
        c = [[[z] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j), terms in brackets.items():
            for k, cf in terms:
                c[i][j][k] = c[i][j][k] + coerce_scalar(cf, field)
        return cls(field, tuple(labels),
                   tuple(tuple(tuple(row) for row in plane) for plane in c))

    @classmethod
    def abelian(cls, dim: int, field: str = "Q", prefix: str = "e") -> "Algebra":
        return cls.from_brackets(field, ["%s%d" % (prefix, k + 1) for k in range(dim)], {})

    @cached_property
    def _pairs(self):
        """Nonzero structure entries: (i, j) -> ((k, coeff), ...)."""
        out = {}
        for i in range(self.dim):
            for j in range(self.dim):
                terms = tuple((k, cf) for k, cf in enumerate(self.c[i][j]) if cf)
                if terms:
                    out[(i, j)] = terms
        return out

    @cached_property
    def _by_second(self):
        """j -> {m: ((p, coeff), ...)} with c[p][j][m] = coeff nonzero."""
        out = [dict() for _ in range(self.dim)]
        for (p, j), terms in self._pairs.items():
            for m, cf in terms:
                out[j].setdefault(m, []).append((p, cf))
        return [{m: tuple(v) for m, v in d.items()} for d in out]

    @cached_property
    def _by_first(self):
        """i -> {m: ((q, coeff), ...)} with c[i][q][m] = coeff nonzero."""
        out = [dict() for _ in range(self.dim)]
        for (i, q), terms in self._pairs.items():
            for m, cf in terms:
                out[i].setdefault(m, []).append((q, cf))
        return [{m: tuple(v) for m, v in d.items()} for d in out]

    # -- bracket ---------------------------------------------------------

    def bracket(self, x: Sequence, y: Sequence) -> tuple:
        """Bilinear extension of the structure constants."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ShapeMismatch("vector length != algebra dimension")
        z = scalar_zero(self.field)
        out = [z] * self.dim
        for (i, j), terms in self._pairs.items():
            xi = x[i]
            if not xi:
                continue
            yj = y[j]
            if not yj:
                continue
            f = xi * yj
            for k, cf in terms:
                out[k] = out[k] + f * cf
        return tuple(out)

    def basis_vector(self, i: int) -> tuple:
        z = scalar_zero(self.field)
        v = [z] * self.dim
        v[i] = coerce_scalar(1, self.field)
        return tuple(v)

    def adjoint(self, x: Sequence, side: str = "left") -> Mat:
        """Matrix of ``y -> [x, y]`` (left) or ``y -> [y, x]`` (right)."""
        cols = []
        for j in range(self.dim):
            e = self.basis_vector(j)
            cols.append(self.bracket(x, e) if side == "left" else self.bracket(e, x))
        flat = [cols[c][r] for r in range(self.dim) for c in range(self.dim)]
        return Mat(self.dim, self.dim, self.field, tuple(flat))

    # -- identity checks -------------------------------------------------

    def _triple(self, pair_a, single_b):
        """Accumulate sum over m of c[pair_a][m] * (row of pair with m)."""
        acc = {}
        for m, cf in pair_a:
            for k, cf2 in self._pairs.get(single_b(m), ()):
                v = acc.get(k)
                nv = cf * cf2 if v is None else v + cf * cf2
                if nv:
                    acc[k] = nv
                elif v is not None:
                    del acc[k]
        return acc

    @cached_property
    def kind(self) -> AlgebraKind:
        """Flags decided exhaustively over basis triples (trilinear identities)."""
        left = True
        right = True
        pairs = self._pairs
        empty = ()
        dim = self.dim
        for i in range(dim):
            for j in range(dim):
                p_ij = pairs.get((i, j), empty)
                for k in range(dim):
                    p_jk = pairs.get((j, k), empty)
                    p_ik = pairs.get((i, k), empty)
                    if left:
                        lhs = self._triple(p_jk, lambda m, i=i: (i, m))
                        r1 = self._triple(p_ij, lambda m, k=k: (m, k))
                        r2 = self._triple(p_ik, lambda m, j=j: (j, m))
                        for t, v in r1.items():
                            cur = lhs.get(t)
                            nv = -v if cur is None else cur - v
                            if nv:
                                lhs[t] = nv
                            elif cur is not None:
                                del lhs[t]
                        for t, v in r2.items():
                            cur = lhs.get(t)
                            nv = -v if cur is None else cur - v
                            if nv:
                                lhs[t] = nv
                            elif cur is not None:
                                del lhs[t]
                        if lhs:
                            left = False
                    if right:
                        lhs = self._triple(p_ij, lambda m, k=k: (m, k))
                        r1 = self._triple(p_ik, lambda m, j=j: (m, j))
                        r2 = self._triple(p_jk, lambda m, i=i: (i, m))
                        for t, v in r1.items():
                            cur = lhs.get(t)
                            nv = -v if cur is None else cur - v
                            if nv:
                                lhs[t] = nv
                            elif cur is not None:
                                del lhs[t]
                        for t, v in r2.items():
                            cur = lhs.get(t)
                            nv = -v if cur is None else cur - v
                            if nv:
                                lhs[t] = nv
                            elif cur is not None:
                                del lhs[t]
                        if lhs:
                            right = False
                    if not left and not right:
                        break
                if not left and not right:
                    break
            if not left and not right:
                break
        antisym = all(
            self.c[i][j][k] == -self.c[j][i][k]
            for i in range(dim) for j in range(i, dim) for k in range(dim))
        return AlgebraKind(left_leibniz=left, right_leibniz=right,
                           symmetric=left and right,
                           lie=antisym and left and right)

    def classify(self) -> AlgebraKind:
        return self.kind

    # -- subspace machinery ----------------------------------------------

    def full_space(self) -> Subspace:
        return Subspace.full(self.dim, self.field)

    def product_space(self, u: Subspace, v: Subspace) -> Subspace:
        """span{[x, y] : x in basis(u), y in basis(v)}; valid by bilinearity."""
        if u.ambient_dim != self.dim or v.ambient_dim != self.dim:
            raise ShapeMismatch("subspace ambient != algebra dimension")
        vecs = [self.bracket(x, y) for x in u.basis for y in v.basis]
        return Subspace.span(vecs, self.dim, self.field)

    def series(self, kind: Literal["lower_central", "derived"] = "lower_central"):
        """Strictly decreasing until stabilization; ends in 0 iff nilpotent/solvable."""
        full = self.full_space()
        terms = [full]
        while True:
            prev = terms[-1]
            if prev.is_zero():
                break
            left = full if kind == "lower_central" else prev
            nxt = self.product_space(left, prev)
            if nxt == prev:
                break
            terms.append(nxt)
        return terms

    def is_nilpotent(self) -> tuple[bool, int]:
        terms = self.series("lower_central")
        nonzero = sum(1 for t in terms if not t.is_zero())
        return (terms[-1].is_zero(), nonzero)

    def is_solvable(self) -> tuple[bool, int]:
        terms = self.series("derived")
        nonzero = sum(1 for t in terms if not t.is_zero())
        return (terms[-1].is_zero(), nonzero)

    def centers(self) -> tuple[Subspace, Subspace, Subspace]:
        """Left center {x : [x,L]=0}, right center {x : [L,x]=0}, and their meet."""
        left_rows = {}
        right_rows = {}
        for (i, j), terms in self._pairs.items():
            for k, cf in terms:
                left_rows.setdefault((j, k), {})[i] = cf
                right_rows.setdefault((i, k), {})[j] = cf
        left = kernel_from_rows(left_rows.values(), self.dim, self.field)
        right = kernel_from_rows(right_rows.values(), self.dim, self.field)
        return left, right, left.intersect(right)

    def leib_ideal(self) -> Subspace:
        """Span of the squares; generated by [b_i,b_j] + [b_j,b_i] (char != 2)."""
        vecs = []
        for i in range(self.dim):
            ei = self.basis_vector(i)
            for j in range(i, self.dim):
                ej = self.basis_vector(j)
                a = self.bracket(ei, ej)
                b = self.bracket(ej, ei)
                vecs.append(tuple(x + y for x, y in zip(a, b)))
        return Subspace.span(vecs, self.dim, self.field)

    def quotient(self, ideal: Subspace) -> "Algebra":
        """Algebra induced on the non-pivot coordinates of the ideal's basis."""
        if ideal.ambient_dim != self.dim:
            raise ShapeMismatch("ideal ambient != algebra dimension")
        full = self.full_space()
        if not (ideal.contains(self.product_space(full, ideal))
                and ideal.contains(self.product_space(ideal, full))):
            raise NotAnIdeal("subspace is not a two-sided ideal")
        pivots = [next(i for i, x in enumerate(row) if x) for row in ideal.basis]
        comp = [i for i in range(self.dim) if i not in pivots]

        def project(v):
            v = list(v)
            for p, row in zip(pivots, ideal.basis):
                cf = v[p]
                if cf:
                    for t, x in enumerate(row):
                        if x:
                            v[t] = v[t] - cf * x
            return [v[t] for t in comp]

        brackets = {}
        for a, ia in enumerate(comp):
            for b, ib in enumerate(comp):
                w = project(self.bracket(self.basis_vector(ia), self.basis_vector(ib)))
                terms = [(t, cf) for t, cf in enumerate(w) if cf]
                if terms:
                    brackets[(a, b)] = terms
        return Algebra.from_brackets(self.field, [self.labels[i] for i in comp], brackets)

    def relabel(self, labels: Sequence[str]) -> "Algebra":
        if len(labels) != self.dim:
            raise ShapeMismatch("label count mismatch")
        return Algebra(self.field, tuple(labels), self.c)
