"""Structure-constant algebras with Leibniz/Lie identity checking.

An :class:`Algebra` is a finite-dimensional algebra given by basis labels
and a sparse bracket table ``{(i, j): ((k, coeff), ...)}`` listing the
nonzero coefficients of ``b_k`` in ``[b_i, b_j]``.  The Leibniz identities
are decided exactly on the sparse multiplication operators, pair by pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm
from typing import Literal, Mapping, Sequence

from .exactlin import (
    Q,
    Subspace,
    ShapeMismatch,
    axpy,
    coerce_scalar,
    kernel_from_rows,
    scalar_zero,
    sparse_combine,
    sparse_commutator,
    sparse_flat,
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
    # {(i, j): ((k, coeff), ...)}: keys sorted, k ascending, no zero coeffs;
    # canonical, so equal algebras have equal tables
    table: dict

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.field, self.labels, tuple(self.table.items())))

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

    @classmethod
    def abelian(cls, dim: int, field: str = "Q", prefix: str = "e") -> "Algebra":
        return cls.from_brackets(field, ["%s%d" % (prefix, k + 1) for k in range(dim)], {})

    @property
    def ops(self) -> tuple[list, list]:
        """``(left, right)``: for each basis vector b_i, the sparse matrices
        ``{row: {col: coeff}}`` of y -> [b_i, y] and y -> [y, b_i].  Rebuilt
        on every call; the callers that need them often are cached."""
        return _operators(self.table, self.dim)

    @property
    def int_ops(self) -> tuple[list, list]:
        """:attr:`ops` of :attr:`int_table`, for the callers whose results
        do not change when every structure constant is scaled alike."""
        return _operators(self.int_table, self.dim)

    # -- bracket ---------------------------------------------------------

    def bracket(self, x: Sequence, y: Sequence) -> tuple:
        """Bilinear extension of the structure constants."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ShapeMismatch("vector length != algebra dimension")
        table = self.table
        out = [scalar_zero(self.field)] * self.dim
        ys = [(j, yj) for j, yj in enumerate(y) if yj]
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in ys:
                terms = table.get((i, j))
                if terms:
                    f = xi * yj
                    for k, cf in terms:
                        out[k] = out[k] + f * cf
        return tuple(out)

    def basis_vector(self, i: int) -> tuple:
        z = scalar_zero(self.field)
        v = [z] * self.dim
        v[i] = coerce_scalar(1, self.field)
        return tuple(v)

    # -- identity checks -------------------------------------------------

    @cached_property
    def int_table(self) -> dict:
        """The table over Q times the lcm of its denominators, so its
        coefficients are ints; over Q(i) the table itself.  Every identity
        and linear condition homogeneous in the structure constants holds
        for it iff it holds for the table."""
        if self.field != Q:
            return self.table
        n = lcm(*(cf.denominator for terms in self.table.values() for _, cf in terms))
        return {key: tuple((k, cf.numerator * (n // cf.denominator)) for k, cf in terms)
                for key, terms in self.table.items()}

    @cached_property
    def kind(self) -> AlgebraKind:
        """Flags decided on the operators of :attr:`int_table` by
        :func:`_left_leibniz`: L is right Leibniz iff its opposite, whose
        left operators are L's right ones, is left Leibniz.  The identities
        are homogeneous of degree 2, so over Q they run on Python ints."""
        table = self.int_table
        op = {(j, i): terms for (i, j), terms in table.items()}
        left, right = map(_left_leibniz, self.int_ops, (table, op))
        antisym = op == {key: tuple((k, -cf) for k, cf in terms)
                         for key, terms in table.items()}
        return AlgebraKind(left_leibniz=left, right_leibniz=right,
                           symmetric=left and right,
                           lie=antisym and left and right)

    @cached_property
    def commutator_ideal(self) -> Subspace:
        """[L, L], built once per algebra."""
        full = self.full_space()
        return self.product_space(full, full)

    # -- subspace machinery ----------------------------------------------

    def full_space(self) -> Subspace:
        return Subspace.full(self.dim, self.field)

    def product_space(self, u: Subspace, v: Subspace) -> Subspace:
        """span{[x, y] : x in basis(u), y in basis(v)}; valid by bilinearity.
        Each bracket of two sparse rows accumulates the table's terms.  Over
        Q it runs on ints, the rows of ``u.echelon`` and ``v.echelon`` with
        :attr:`int_table`: their brackets are nonzero multiples of those of
        the canonical rows, so they span the same space."""
        if u.ambient_dim != self.dim or v.ambient_dim != self.dim:
            raise ShapeMismatch("subspace ambient != algebra dimension")
        table = self.int_table
        ys = [y.items() for y in v.echelon.rows.values()]

        def brackets():
            for x in u.echelon.rows.values():
                for y in ys:
                    acc = {}
                    for i, xi in x.items():
                        for j, yj in y:
                            terms = table.get((i, j))
                            if terms:
                                axpy(acc, xi * yj, terms)
                    if acc:
                        yield acc
        return Subspace.span(brackets(), self.dim, self.field)

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
                left = full if kind == "lower_central" else nxt
                nxt = self.product_space(left, nxt)
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

    def centers(self) -> tuple[Subspace, Subspace, Subspace]:
        """Left center {x : [x,L]=0}, right center {x : [L,x]=0}, and their
        meet; kernels of the operator rows of :attr:`int_table`."""
        lops, rops = self.int_ops
        left = kernel_from_rows((row for m in rops for row in m.values()),
                                self.dim, self.field)
        right = kernel_from_rows((row for m in lops for row in m.values()),
                                 self.dim, self.field)
        return left, right, left.intersect(right)

    def leib_ideal(self) -> Subspace:
        """Span of the squares; generated by [b_i,b_j] + [b_j,b_i] (char != 2)."""
        t = self.table
        vecs = (axpy(dict(t.get((i, j), ())), 1, t.get((j, i), ()))
                for i in range(self.dim) for j in range(i, self.dim))
        return Subspace.span(vecs, self.dim, self.field)

    def quotient(self, ideal: Subspace) -> "Algebra":
        """Algebra induced on the non-pivot coordinates of the ideal's basis."""
        if ideal.ambient_dim != self.dim:
            raise ShapeMismatch("ideal ambient != algebra dimension")
        full = self.full_space()
        if not (ideal.contains(self.product_space(full, ideal))
                and ideal.contains(self.product_space(ideal, full))):
            raise NotAnIdeal("subspace is not a two-sided ideal")
        index = {old: new for new, old in enumerate(
            i for i in range(self.dim) if i not in ideal.pivots)}
        brackets = {}
        for (i, j), terms in self.table.items():
            if i in index and j in index:
                v = dict(terms)
                for row in ideal.rows:
                    if v.get(row[0][0]):
                        axpy(v, -v[row[0][0]], row)
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


def _left_leibniz(ops: list, table: Mapping) -> bool:
    """[x,[y,z]] = [[x,y],z] + [y,[x,z]], with L_k = ops[k] the map y ->
    [b_k, y]: L_i L_j - L_j L_i = L_[b_i,b_j] for i < j, and L_s = 0 for
    s = [b_i,b_j] + [b_j,b_i], i <= j, which holds in every left Leibniz
    algebra and gives the identity for j < i and for i = j."""
    d = len(ops)
    flats = [sparse_flat(m, d).items() for m in ops]
    for i in range(d):
        for j in range(i, d):
            ij = table.get((i, j), ())
            sym = axpy(dict(ij), 1, table.get((j, i), ())).items()
            if sparse_combine(flats, sym) or i < j and (
                    sparse_commutator(ops[i], ops[j], d) != sparse_combine(flats, ij)):
                return False
    return True
