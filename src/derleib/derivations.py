"""Derivation Lie algebras: Der(L), Inn(L) and the almost inner derivations.

Der(L) is the exact nullspace of the linear system collecting the derivation
identity over all basis pairs, built from the sparse multiplication
operators of ``Algebra.int_table``, so over Q on Python ints.  The result
is wrapped as a :class:`MatrixLieAlgebra`: the canonical subspace of
row-major flattened matrices and the induced abstract Lie algebra, built
the first time it is read, once per distinct subspace, together with the
closure check on the subspace's sparse rows, since derivation matrices are
mostly zero.  Der, Inn and AIDer are closed by theorem, so they leave both
to that read; ``from_subspace`` reads it at once, so any other span is
checked when wrapped.  A matrix is passed to the subspace, or to
``coords_span``, by its row-major flattening, a dense tuple or a sparse
dict; the CLI prints the canonical rows as matrices.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional

from .algebra import Algebra, AlgebraKind
from .exactlin import (
    FieldMismatch,
    Frozen,
    InternalInvariantError,
    Mat,
    Q,
    ShapeMismatch,
    Subspace,
    axpy,
    cached,
    kernel_from_rows,
    sparse_commutator,
    sparse_flat,
    sparse_rows,
)


class ClosureError(InternalInvariantError):
    """A matrix family that was expected to close under commutators does not."""


# kept for the benchmark's span recorder, which wraps it by name
def commutator(a: Mat, b: Mat) -> Mat:
    """``a b - b a`` of two square matrices of one shape and field."""
    a._check(b, True)
    if a.rows != a.cols:
        raise ShapeMismatch("commutator of a non-square matrix")
    d = a.rows
    sa, sb = (sparse_rows(m.sparse(), d) for m in (a, b))
    return Mat.unflatten(sparse_commutator(sa, sb, d), d, d, a.field)


# kept for the benchmark's span recorder, which wraps it by name
def is_derivation(d: Mat, alg: Algebra) -> bool:
    """Membership of ``d`` in Der(alg): the derivation identity is stated
    once, by :func:`der_algebra`'s constraint rows."""
    if d.field != alg.field:
        raise FieldMismatch("matrix over %s, algebra over %s" % (d.field, alg.field))
    if d.rows != alg.dim or d.cols != alg.dim:
        raise ShapeMismatch("matrix is %dx%d, algebra dimension is %d"
                            % (d.rows, d.cols, alg.dim))
    return der_algebra(alg).subspace.contains(d.sparse())


class MatrixLieAlgebra(Frozen):
    """A Lie algebra of d x d matrices with echelon-canonical basis; two are
    equal when their subspaces are."""

    ambient_dim: int  # matrices are ambient_dim x ambient_dim
    subspace: Subspace  # flattened, canonical

    @property
    def dim(self) -> int:
        return self.subspace.dim

    @property
    def field(self) -> str:
        return self.subspace.field

    @cached_property
    def structure(self) -> Algebra:
        """The induced structure constants, closure-checked on first read
        and shared by equal subspaces: :func:`_structure`."""
        return _structure(self.subspace, self.ambient_dim)

    # kept for the benchmark's span recorder, which wraps it by name
    @classmethod
    def from_matrices(cls, mats: Iterable[Mat], ambient_dim: int,
                      field: str) -> "MatrixLieAlgebra":
        return cls.from_subspace(Subspace.span((m.flatten() for m in mats),
                                               ambient_dim * ambient_dim, field),
                                 ambient_dim)

    @classmethod
    def from_subspace(cls, sub: Subspace, ambient_dim: int) -> "MatrixLieAlgebra":
        """Wrap a subspace of flattened ambient_dim x ambient_dim matrices,
        checked at once: its :attr:`structure` is read before returning, so
        a span that is not closed raises :class:`ClosureError` here."""
        mla = cls(ambient_dim, sub)
        mla.structure
        return mla

    def coords_span(self, flats: Iterable) -> Optional[Subspace]:
        """Span of the given flattened matrices in basis coordinates; None
        if one of them falls outside the algebra."""
        vs = []
        for m in flats:
            cs = self.subspace.coords(m)
            if cs is None:
                return None
            vs.append(cs)
        return Subspace.span(vs, self.dim, self.field)


@cached
def _structure(sub: Subspace, d: int) -> Algebra:
    """The closure-checked structure constants induced on the rows of
    ``sub``, a subspace of flattened d x d matrices, cached by value, so
    matrix algebras with equal subspaces share one (Der of the Jordan
    members at every nonzero parameter is one subspace).  A bracket of two
    rows lies in the span, and its values at the pivots, divided by the
    two rows' pivot values, are its coordinates, written straight into
    the canonical table: k ascends with the pivots, (t, s) has the
    negated coefficients of (s, t), made from the same ints, and the
    keys are inserted in sorted order.  [s, t] = st - ts is zero unless a
    column of one row is a row index of the other, so only those pairs
    are bracketed."""
    q = sub.field == Q  # int rows over Q, pivot-one GaussRat rows over Q(i)
    index = {p: k for k, p in enumerate(sub.pivots)}
    ops = [sparse_rows(dict(row), d) for row in sub.erows]
    # bit s of at_row[r] (at_col[c]) is set when ops[s] has an entry in row r
    # (column c)
    at_row, at_col = [0] * d, [0] * d
    for s, row in enumerate(sub.erows):
        for f, _ in row:
            at_row[f // d] |= 1 << s
            at_col[f % d] |= 1 << s
    table = {}
    lower = [[] for _ in ops]  # lower[t]: ((t, s), terms) items, s ascending
    coeffs = {}  # (value, pivot product) -> (coefficient, its negation)
    for s, op in enumerate(ops):
        table.update(lower[s])
        partners, t = 0, s
        for f, _ in sub.erows[s]:
            partners |= at_col[f // d] | at_row[f % d]
        partners >>= s + 1
        while partners:  # the set bits, ascending: t > s
            step = (partners & -partners).bit_length()
            partners >>= step
            t += step
            at = sub.take_coords(sparse_commutator(op, ops[t], d))
            if at is None:
                raise ClosureError("commutator of basis elements %d, %d "
                                   "escapes the span" % (s, t))
            if not at:
                continue
            n = sub.erows[s][0][1] * sub.erows[t][0][1] if q else 1
            pos, neg = [], []
            for p, v in at:
                pair = coeffs.get((v, n)) or coeffs.setdefault(
                    (v, n), (Fraction(v, n), Fraction(-v, n)) if q else (v, -v))
                pos.append((index[p], pair[0]))
                neg.append((index[p], pair[1]))
            table[(s, t)] = tuple(pos)
            lower[t].append(((t, s), tuple(neg)))
    alg = Algebra(sub.field, tuple("m%d" % (k + 1) for k in range(sub.dim)), table)
    # the table is antisymmetric as built, and a commutator-closed span of
    # matrices is a Lie subalgebra of gl(d), so Jacobi holds (de Graaf, *Lie
    # Algebras: Theory and Algorithms*, 2000): no identity walk is needed
    alg.__dict__.update(antisymmetric=True, kind=AlgebraKind(True, True, True, True))
    return alg


@cached
def der_algebra(alg: Algebra) -> MatrixLieAlgebra:
    """Der(L) as the nullspace over the d^2 matrix unknowns (row-major).

    With c[i][j][k] the coefficient of b_k in [b_i, b_j], the equation for
    the basis pair (i, j) in output coordinate m is
    sum_k c[i][j][k] D[m][k] - sum_p c[p][j][m] D[p][i]
    - sum_q c[i][q][m] D[q][j] = 0; rows are assembled in (i, j, m) order.
    Each row is linear in the structure constants, so it is built from
    ``Algebra.int_table``, whose scaling leaves the kernel unchanged.
    """
    d = alg.dim
    table = alg.int_table
    lops, rops = alg.int_ops
    rows = {}  # each distinct row once, keyed by its items in build order
    for i in range(d):
        bf = lops[i]
        for j in range(d):
            terms_ij = table.get((i, j), ())
            bs = rops[j]
            if terms_ij:
                ms: Iterable[int] = range(d)
            else:
                ms = sorted(set(bs) | set(bf))
            for m in ms:
                row = axpy({}, 1, ((m * d + k, cf) for k, cf in terms_ij))
                axpy(row, -1, ((p * d + i, cf) for p, cf in bs.get(m, {}).items()))
                axpy(row, -1, ((q * d + j, cf) for q, cf in bf.get(m, {}).items()))
                if row:
                    rows.setdefault(tuple(row.items()), row)
    return MatrixLieAlgebra(d, kernel_from_rows(rows.values(), d * d, alg.field))


@cached
def inner_derivations(alg: Algebra) -> MatrixLieAlgebra:
    """Span of the left multiplication maps; requires a left Leibniz
    algebra.  Those of ``Algebra.int_table`` are one common multiple of
    them, so they span the same space."""
    if not alg.kind.left_leibniz:
        raise ValueError("inner derivations need a left Leibniz algebra")
    d = alg.dim
    return MatrixLieAlgebra(d, Subspace.span(
        (sparse_flat(m, d) for m in alg.int_ops[0]), d * d, alg.field))


class GenusError(ValueError):
    """Raised when an exact genus-1 computation is applied off-domain."""


@cached
def almost_inner_genus1(alg: Algebra) -> MatrixLieAlgebra:
    """Almost inner derivations of an algebra with dim [L,L] = 1, exactly.
    Each bracket span [x, L] + [L, x] is zero or the commutator line w, so
    they are the derivations D(x) = phi(x) w with phi zero on the center
    (Burde, Dekimpe and Verbeke, *J. Algebra Appl.* 17, 2018).  At the
    pivot p of w, ``Algebra.int_table`` gives the forms b(i, j) = [b_i,
    b_j]_p, r_j = sum_i w_i b(i, j) of [w, y] and s_i = sum_j w_j b(i, j) of
    [x, w]; D is a derivation iff b(i, j) phi(w) = r_j phi_i + s_i phi_j on
    every basis pair: one kernel in the d unknowns phi, and no Der solve."""
    comm = alg.commutator_ideal
    if comm.dim != 1:
        raise GenusError("commutator ideal has dimension %d, need 1" % comm.dim)
    d, w, p = alg.dim, dict(comm.erows[0]), comm.pivots[0]
    lops, rops = alg.int_ops  # lops[i][p][j] = rops[j][p][i] = b(i, j)
    r, s = {}, {}
    for q, wq in w.items():
        axpy(r, wq, lops[q].get(p, {}).items())
        axpy(s, wq, rops[q].get(p, {}).items())
    rows = [dict(z) for z in alg.center.erows]  # phi(z) = 0
    for i in range(d):
        bi = lops[i].get(p, {})
        # the row of (i, j) is zero unless b(i, j), r_j or s_i is nonzero
        for j in (range(d) if i in s else bi.keys() | r.keys()):
            row = axpy({}, -1, ((i, r.get(j, 0)), (j, s.get(i, 0))))
            if axpy(row, bi.get(j, 0), w.items()):
                rows.append(row)
    return MatrixLieAlgebra(d, Subspace.span(
        ({q * d + c: wq * v for q, wq in w.items() for c, v in phi}
         for phi in kernel_from_rows(rows, d, alg.field).erows), d * d, alg.field))
