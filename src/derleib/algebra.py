"""Structure-constant algebras with Leibniz/Lie identity checking.

An :class:`Algebra` is a finite-dimensional algebra given by basis labels
and a sparse bracket table ``{(i, j): ((k, coeff), ...)}`` listing the
nonzero coefficients of ``b_k`` in ``[b_i, b_j]``.  The Leibniz identities
are decided exactly, by one column walk over every ordered basis pair of
the table and of its opposite.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm
from typing import Literal, Mapping, NamedTuple, Optional, Sequence

from .exactlin import (
    Frozen,
    Q,
    Subspace,
    ShapeMismatch,
    axpy,
    coerce_scalar,
    kernel_from_rows,
)


# The largest algebra dimension the catalog builds and a definition file may
# declare.  Der of a d-dimensional algebra is a kernel in d^2 unknowns:
# `derive --json --family heisenberg --a 2 --n 50` (d = 101) takes 0.69 s at a
# peak RSS (the process's own VmHWM) of 164 000 kB, median of 5 fresh processes
# on a 2-core x86-64 host under CPython 3.11.
MAX_DIM = 101


class NotAnIdeal(ValueError):
    """Raised when a quotient is requested by a subspace that is not an ideal."""


class AlgebraKind(NamedTuple):
    left_leibniz: bool
    right_leibniz: bool
    symmetric: bool
    lie: bool


class Algebra(Frozen):
    field: str
    labels: tuple
    # {(i, j): ((k, coeff), ...)}: keys sorted, k ascending, no zero coeffs;
    # canonical, so equal algebras have equal tables
    table: dict

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # order-free, as ``==`` on the table is
        return hash((self.field, self.labels, frozenset(self.table.items())))

    @property
    def dim(self) -> int:
        return len(self.labels)

    @classmethod
    def from_brackets(cls, field: str, labels: Sequence[str],
                      brackets: Mapping) -> "Algebra":
        """Build from a sparse table ``{(i, j): [(k, coeff), ...]}``; repeated
        terms add up and zero sums are dropped."""
        dim = len(labels)
        table = {}
        for (i, j) in sorted(brackets):
            row = {}
            for k, cf in brackets[(i, j)]:
                if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                    raise ShapeMismatch("bracket index out of range")
                row[k] = row.get(k, 0) + coerce_scalar(cf, field)
            terms = tuple((k, row[k]) for k in sorted(row) if row[k])
            if terms:
                table[(i, j)] = terms
        return cls(field, tuple(labels), table)

    @cached_property
    def int_ops(self) -> tuple[list, list]:
        """``(left, right)``: for each basis vector b_i, the sparse matrices
        ``{row: {col: coeff}}`` of y -> [b_i, y] and y -> [y, b_i] in
        :attr:`int_table`.  Built once and shared; callers only read them."""
        return _operators(self.int_table, self.dim)

    # -- identity checks -------------------------------------------------

    @cached_property
    def int_scale(self) -> int:
        """The lcm of the denominators of the table over Q, 1 over Q(i)."""
        if self.field != Q:
            return 1
        return lcm(*(cf.denominator for terms in self.table.values() for _, cf in terms))

    @cached_property
    def int_table(self) -> dict:
        """The table over Q times :attr:`int_scale`, so its coefficients are
        ints; over Q(i) the table itself.  Every identity and linear
        condition homogeneous in the structure constants holds for it iff
        it holds for the table."""
        if self.field != Q:
            return self.table
        n = self.int_scale
        return {key: tuple((k, cf.numerator * (n // cf.denominator)) for k, cf in terms)
                for key, terms in self.table.items()}

    @cached_property
    def antisymmetric(self) -> bool:
        """[b_j, b_i] = -[b_i, b_j] for all i, j, read on :attr:`int_table`.
        Then every one-sided notion equals the other side's."""
        table = self.int_table
        return all(table.get((j, i)) == tuple((k, -cf) for k, cf in terms)
                   for (i, j), terms in table.items())

    @cached_property
    def kind(self) -> AlgebraKind:
        """Flags decided by :func:`_leibniz` on :attr:`int_table`, in ints
        over Q, as the identities are homogeneous, on every ordered basis
        pair.  L is left Leibniz iff its table satisfies the identity, and
        right Leibniz iff the opposite table [b_i, b_j]' = [b_j, b_i] does.
        An :attr:`antisymmetric` table is minus its opposite, and the
        identity, quadratic in the bracket, cannot tell T from -T: it is Lie
        iff it is left Leibniz, and its opposite is not walked."""
        table, d = self.int_table, self.dim
        left = _leibniz(table, d)
        if self.antisymmetric:
            return AlgebraKind(left, left, left, left)
        right = _leibniz({(j, i): terms for (i, j), terms in table.items()}, d)
        return AlgebraKind(left_leibniz=left, right_leibniz=right,
                           symmetric=left and right, lie=False)

    @cached_property
    def commutator_ideal(self) -> Subspace:
        """[L, L], built once per algebra."""
        full = self.full_space()
        return self.product_space(full, full)

    # -- subspace machinery ----------------------------------------------

    def full_space(self) -> Subspace:
        return Subspace.full(self.dim, self.field)

    def product_space(self, u: Subspace, v: Subspace,
                      bound: Optional[Subspace] = None) -> Subspace:
        """span{[x, y] : x in basis(u), y in basis(v)}; valid by bilinearity.
        Each bracket of two sparse rows accumulates the terms of
        :attr:`int_table`.  For u = v and an :attr:`antisymmetric` table,
        [x, x] = 0 and [y, x] = -[x, y]: each pair s < t of rows is taken once.
        ``bound``, a subspace the caller has proved contains [u, v], is
        returned once the brackets reach its dimension (:meth:`Subspace.span`)."""
        if u.ambient_dim != self.dim or v.ambient_dim != self.dim:
            raise ShapeMismatch("subspace ambient != algebra dimension")
        table, half = self.int_table, self.antisymmetric and u == v

        def brackets():
            for s, x in enumerate(u.erows):
                for y in u.erows[s + 1:] if half else v.erows:
                    acc = {}
                    for i, xi in x:
                        for j, yj in y:
                            terms = table.get((i, j))
                            if terms:
                                axpy(acc, xi * yj, terms)
                    if acc:
                        yield acc
        return Subspace.span(brackets(), self.dim, self.field, bound)

    def series(self, kind: Literal["lower_central", "derived"] = "lower_central"):
        """Strictly decreasing until stabilization; ends in 0 iff nilpotent/solvable.
        Built once per algebra and kind; each call returns a new list."""
        terms = self._series.get(kind)
        if terms is None:
            full = self.full_space()
            terms = [full]
            nxt = self.commutator_ideal
            while nxt != terms[-1]:
                terms.append(nxt)
                if nxt.is_zero():
                    break
                # for any bilinear product L^{k+1} = [L, L^k] lies in L^k
                # and L^{(k+1)} = [L^{(k)}, L^{(k)}] in L^{(k)}, by induction
                # from [L, L] in L, so the last term bounds the next
                left = full if kind == "lower_central" else nxt
                nxt = self.product_space(left, nxt, bound=nxt)
            self._series[kind] = terms = tuple(terms)
        return list(terms)

    @cached_property
    def _series(self) -> dict:
        return {}  # kind -> tuple of terms, filled by `series`

    def is_nilpotent(self) -> tuple[bool, int]:
        terms = self.series("lower_central")
        nonzero = sum(1 for t in terms if not t.is_zero())
        return (terms[-1].is_zero(), nonzero)

    def is_solvable(self) -> tuple[bool, int]:
        terms = self.series("derived")
        nonzero = sum(1 for t in terms if not t.is_zero())
        return (terms[-1].is_zero(), nonzero)

    @cached_property
    def center(self) -> Subspace:
        """The two-sided center {x : [x,L] = [L,x] = 0}: the kernel of both
        sides' operator rows of :attr:`int_table`, of one side's for an
        :attr:`antisymmetric` table."""
        lrows, rrows = ([row for m in ops for row in m.values()] for ops in self.int_ops)
        return kernel_from_rows(rrows if self.antisymmetric else rrows + lrows,
                                self.dim, self.field)

    def centers(self) -> tuple[Subspace, Subspace, Subspace]:
        """Left center {x : [x,L]=0}, right center {x : [L,x]=0}, and their
        meet, :attr:`center`; kernels of the operator rows of
        :attr:`int_table`.  For an :attr:`antisymmetric` table the three are
        one kernel."""
        if self.antisymmetric:
            return self.center, self.center, self.center
        lrows, rrows = ([row for m in ops for row in m.values()] for ops in self.int_ops)
        return (kernel_from_rows(rrows, self.dim, self.field),
                kernel_from_rows(lrows, self.dim, self.field), self.center)

    def quotient(self, ideal: Subspace) -> "Algebra":
        """Algebra induced on the non-pivot coordinates of the ideal's basis.
        For an :attr:`antisymmetric` table [L, I] = [I, L], so one side of
        the ideal check is made."""
        if ideal.ambient_dim != self.dim:
            raise ShapeMismatch("ideal ambient != algebra dimension")
        full = self.full_space()
        if not (ideal.contains(self.product_space(full, ideal))
                and (self.antisymmetric
                     or ideal.contains(self.product_space(ideal, full)))):
            raise NotAnIdeal("subspace is not a two-sided ideal")
        index = {old: new for new, old in enumerate(
            i for i in range(self.dim) if i not in ideal.pivots)}
        brackets = {}
        for (i, j), terms in self.table.items():
            if i in index and j in index:
                v = dict(terms)
                for row in ideal.rows:
                    p = row[0][0]
                    if v.get(p):
                        axpy(v, -v[p], row)
                brackets[(index[i], index[j])] = [(index[k], cf) for k, cf in v.items()]
        return Algebra.from_brackets(self.field, [self.labels[i] for i in index],
                                     brackets)


def _operators(table: Mapping, dim: int) -> tuple[list, list]:
    """Sparse left and right multiplication operators of a bracket table."""
    left = [{} for _ in range(dim)]
    right = [{} for _ in range(dim)]
    for (i, j), terms in table.items():
        for k, cf in terms:
            left[i].setdefault(k, {})[j] = cf
            right[j].setdefault(k, {})[i] = cf
    return left, right


def _leibniz(table: Mapping, d: int) -> bool:
    """The left Leibniz identity [x,[y,z]] = [[x,y],z] + [y,[x,z]] on every
    ordered basis pair.  cols[i] = {k: [b_i, b_k]} is the column-major
    operator of b_i; for each pair (i, j) the Jacobiator [b_i,[b_j,b_k]] -
    [b_j,[b_i,b_k]] - [[b_i,b_j],b_k] is summed over the columns k each
    operator makes nonzero, flattened at k * d + out."""
    cols = [{} for _ in range(d)]
    for (i, k), terms in table.items():
        cols[i][k] = terms
    for ci in cols:
        for j, cj in enumerate(cols):
            acc = {}
            for sign, outer, inner in ((1, cj, ci), (-1, ci, cj)):
                for k, terms in outer.items():
                    for m, v in terms:
                        for o, w in inner.get(m, ()):
                            acc[k * d + o] = acc.get(k * d + o, 0) + sign * v * w
            for m, v in ci.get(j, ()):
                for k, terms in cols[m].items():
                    for o, w in terms:
                        acc[k * d + o] = acc.get(k * d + o, 0) - v * w
            if any(acc.values()):
                return False
    return True
