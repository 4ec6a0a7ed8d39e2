"""Derivation Lie algebras: Der(L), Inn(L) and the almost inner derivations.

Der(L) is the exact nullspace of the linear system collecting the derivation
identity over all basis pairs, built from the sparse multiplication
operators of ``Algebra.int_table``, so over Q on Python ints.  The result
is wrapped as a :class:`MatrixLieAlgebra`: the canonical subspace of
row-major flattened matrices and the induced abstract Lie algebra, with
closure under commutators verified during construction.  The check
brackets the sparse int rows of the subspace's echelon, since derivation
matrices are mostly zero.  A matrix is passed to ``contains``, ``coords``
and ``coords_span`` by its row-major flattening, a dense tuple or a sparse
dict; the dense :class:`Mat` basis is only a view, built when first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Optional

from .algebra import Algebra
from .exactlin import (
    InternalInvariantError,
    Mat,
    ShapeMismatch,
    Subspace,
    axpy,
    kernel_from_rows,
    scalar_zero,
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
    d, z = a.rows, scalar_zero(a.field)
    sa, sb = (sparse_rows(m.sparse(), d) for m in (a, b))
    flat = sparse_commutator(sa, sb, d)
    return Mat(d, d, a.field, tuple(flat.get(i, z) for i in range(d * d)))


# kept for the benchmark's span recorder, which wraps it by name
def is_derivation(d: Mat, alg: Algebra) -> bool:
    """Check d([x,y]) = [d(x),y] + [x,d(y)] on all basis pairs (sufficient
    by bilinearity)."""
    dim = alg.dim
    if d.rows != dim or d.cols != dim:
        raise ShapeMismatch("matrix is %dx%d, algebra dimension is %d"
                            % (d.rows, d.cols, dim))
    cols = [d.col(j) for j in range(dim)]
    for i in range(dim):
        ei = alg.basis_vector(i)
        for j in range(dim):
            ej = alg.basis_vector(j)
            lhs = d.apply(alg.bracket(ei, ej))
            r1 = alg.bracket(cols[i], ej)
            r2 = alg.bracket(ei, cols[j])
            if any(a - b - c for a, b, c in zip(lhs, r1, r2)):
                return False
    return True


@dataclass(frozen=True)
class MatrixLieAlgebra:
    """A Lie algebra of d x d matrices with echelon-canonical basis."""

    ambient_dim: int  # matrices are ambient_dim x ambient_dim
    subspace: Subspace  # flattened, canonical
    structure: Algebra  # induced structure constants on the subspace's rows

    @property
    def dim(self) -> int:
        return self.subspace.dim

    @property
    def field(self) -> str:
        return self.subspace.field

    @cached_property
    def basis(self) -> tuple:
        """Dense view: the canonical rows as matrices, built on first use."""
        d = self.ambient_dim
        return tuple(Mat.unflatten(row, d, d, self.field)
                     for row in self.subspace.basis)

    # kept for the benchmark's span recorder, which wraps it by name
    @classmethod
    def from_matrices(cls, mats: Iterable[Mat], ambient_dim: int,
                      field: str) -> "MatrixLieAlgebra":
        return cls.from_subspace(Subspace.span((m.flatten() for m in mats),
                                               ambient_dim * ambient_dim, field),
                                 ambient_dim)

    @classmethod
    def from_subspace(cls, sub: Subspace, ambient_dim: int) -> "MatrixLieAlgebra":
        """Wrap a subspace of flattened ambient_dim x ambient_dim matrices; a
        bracket in it reduces to zero, and its pivot values are its coordinates.
        The brackets run on the rows of ``sub.echelon``: over Q each is the
        canonical row times its pivot value, so a pivot value of the bracket
        of two rows is divided by the product of their pivots."""
        d = ambient_dim
        ech = sub.echelon
        rows = [ech.rows[p] for p in sub.pivots]
        ops = [sparse_rows(row, d) for row in rows]
        brackets = {}
        for s in range(len(ops)):
            for t in range(s + 1, len(ops)):
                flat = sparse_commutator(ops[s], ops[t], d)
                if ech.reduce(flat):
                    raise ClosureError("commutator of basis elements %d, %d "
                                       "escapes the span" % (s, t))
                # 1 over Q(i), whose rows have pivot one
                n = rows[s][sub.pivots[s]] * rows[t][sub.pivots[t]]
                cs = [(k, flat[p] if n == 1 else Fraction(flat[p], n))
                      for k, p in enumerate(sub.pivots) if p in flat]
                brackets[(s, t)] = cs
                brackets[(t, s)] = [(k, -cf) for k, cf in cs]
        labels = ["m%d" % (k + 1) for k in range(sub.dim)]
        return cls(d, sub, Algebra.from_brackets(sub.field, labels, brackets))

    def contains(self, flat) -> bool:
        return self.subspace.contains(flat)

    def coords(self, flat) -> Optional[tuple]:
        return self.subspace.coords(flat)

    def coords_span(self, flats: Iterable) -> Optional[Subspace]:
        """Span of the given flattened matrices in basis coordinates; None
        if one of them falls outside the algebra."""
        vs = []
        for m in flats:
            cs = self.coords(m)
            if cs is None:
                return None
            vs.append(cs)
        return Subspace.span(vs, self.dim, self.field)


@lru_cache(maxsize=None)
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
    rows = []
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
                    rows.append(row)
    return MatrixLieAlgebra.from_subspace(kernel_from_rows(rows, d * d, alg.field), d)


@lru_cache(maxsize=None)
def inner_derivations(alg: Algebra) -> MatrixLieAlgebra:
    """Span of the left multiplication maps; requires a left Leibniz
    algebra.  Those of ``Algebra.int_table`` are one common multiple of
    them, so they span the same space."""
    if not alg.kind.left_leibniz:
        raise ValueError("inner derivations need a left Leibniz algebra")
    d = alg.dim
    return MatrixLieAlgebra.from_subspace(Subspace.span(
        (sparse_flat(m, d) for m in alg.int_ops[0]), d * d, alg.field), d)


class GenusError(ValueError):
    """Raised when an exact genus-1 computation is applied off-domain."""


@lru_cache(maxsize=None)
def almost_inner_genus1(alg: Algebra) -> MatrixLieAlgebra:
    """Almost inner derivations of an algebra with dim [L,L] = 1, exactly.

    For such an algebra the bracket span of any element is either zero or
    the whole commutator line w, so a derivation D is almost inner iff
    D(x) = phi(x) w for a linear form phi vanishing on the center: AIDer is
    Der intersected with the span of the rank-one maps w (x) phi.
    """
    der = der_algebra(alg)
    comm = alg.commutator_ideal
    if comm.dim != 1:
        raise GenusError("commutator ideal has dimension %d, need 1" % comm.dim)
    w, = comm.echelon.rows.values()
    d = alg.dim
    ann = kernel_from_rows(alg.centers()[2].echelon.rows.values(), d, alg.field)
    rank1 = Subspace.span(({r * d + c: x * y for r, x in w.items()
                            for c, y in phi.items()}
                           for phi in ann.echelon.rows.values()), d * d, alg.field)
    return MatrixLieAlgebra.from_subspace(der.subspace.intersect(rank1), d)
