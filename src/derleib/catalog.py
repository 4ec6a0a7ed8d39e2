"""Constructors for the indecomposable nilpotent genus-1 algebra families.

Three families of nilpotent Leibniz algebras with one-dimensional commutator
ideal are provided (Heisenberg type with an n x n parameter matrix, Kronecker
type, and Dieudonne type), together with parameter-matrix helpers, basis
reordering, and the complex-to-real constructions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .algebra import MAX_DIM, Algebra
from .exactlin import (
    GaussRat,
    Q,
    QI,
    ShapeMismatch,
    SparseVec,
    cached,
    coerce_scalar,
    format_scalar,
    scalar_parts,
    sparse_rows,
)


def _check_n(n: int, dim: int):
    """``n >= 1``, and ``dim``, the dimension of the algebra it gives, at most
    :data:`MAX_DIM`; checked before anything of that size is built."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if dim > MAX_DIM:
        raise ValueError("n=%d gives dimension %d, above the limit of %d"
                         % (n, dim, MAX_DIM))


def jordan(a, n: int) -> dict:
    """Lower-bidiagonal n x n Jordan block with eigenvalue ``a``, as sparse
    rows ``{row: {col: value}}``: the parameter of a (2n+1)-dimensional
    Heisenberg-type algebra."""
    _check_n(n, 2 * n + 1)
    rows = {i: {i - 1: 1} for i in range(1, n)}
    if a:
        for i in range(n):
            rows.setdefault(i, {})[i] = a
    return rows


def realify_parameter(a: dict) -> dict:
    """Entrywise realification of sparse rows: each x + yi becomes the block
    [[x, y], [-y, x]]."""
    out = {}
    for r, row in a.items():
        for c, v in row.items():
            x, y = scalar_parts(v)
            for rr, cc, w in ((2 * r, 2 * c, x), (2 * r, 2 * c + 1, y),
                              (2 * r + 1, 2 * c, -y), (2 * r + 1, 2 * c + 1, x)):
                if w:
                    out.setdefault(rr, {})[cc] = w
    return out


def _ef_labels(n: int) -> list:
    return (["e%d" % (i + 1) for i in range(n)]
            + ["f%d" % (i + 1) for i in range(n)] + ["z"])


GROUPED = "grouped"
INTERLEAVED = "interleaved"


def interleave_perm(n: int) -> list:
    """Permutation taking {e1..en, f1..fn, z} to {e1, f1, ..., en, fn, z}."""
    perm = []
    for i in range(n):
        perm.append(i)
        perm.append(n + i)
    perm.append(2 * n)
    return perm


def permute_basis(alg: Algebra, perm: Sequence[int]) -> Algebra:
    """Conjugate the structure constants: new basis i is old basis perm[i]."""
    dim = alg.dim
    if sorted(perm) != list(range(dim)):
        raise ValueError("not a permutation of 0..%d" % (dim - 1))
    inv = [0] * dim
    for new, old in enumerate(perm):
        inv[old] = new
    brackets = {}
    for (i, j), terms in alg.table.items():
        brackets[(inv[i], inv[j])] = [(inv[k], cf) for k, cf in terms]
    return Algebra.from_brackets(alg.field, [alg.labels[p] for p in perm], brackets)


def _maybe_interleave(alg: Algebra, n: int, order: str) -> Algebra:
    if order == GROUPED:
        return alg
    if order == INTERLEAVED:
        return permute_basis(alg, interleave_perm(n))
    raise ValueError("unknown basis order %r" % (order,))


def heisenberg_leibniz(n: int, a: dict, order: str = GROUPED) -> Algebra:
    """(2n+1)-dimensional algebra with [e_i,f_j] = (d_ij + a_ij) z and
    [f_j,e_i] = (-d_ij + a_ij) z, for the n x n parameter matrix ``a`` in
    sparse rows; over Q(i) when an entry is not real.  The zero parameter
    gives the Heisenberg Lie algebra."""
    _check_n(n, 2 * n + 1)
    # the diagonal and the entries of a: the only (i, j) with brackets
    a_ij = {(i, i): 0 for i in range(n)}
    a_ij.update(((i, j), v) for i, row in a.items() for j, v in row.items())
    if not all(0 <= i < n and 0 <= j < n for i, j in a_ij):
        raise ShapeMismatch("parameter entry outside %d x %d" % (n, n))
    field = QI if any(scalar_parts(v)[1] for v in a_ij.values()) else Q
    zidx = 2 * n
    brackets = {}
    for (i, j), v in a_ij.items():
        d = 1 if i == j else 0
        brackets[(i, n + j)] = [(zidx, v + d)]
        brackets[(n + j, i)] = [(zidx, v - d)]
    alg = Algebra.from_brackets(field, _ef_labels(n), brackets)
    return _maybe_interleave(alg, n, order)


def heisenberg_lie(n: int, order: str = GROUPED) -> Algebra:
    return heisenberg_leibniz(n, {}, order)


def kronecker(n: int, order: str = GROUPED) -> Algebra:
    """(2n+1)-dimensional Kronecker algebra: [e_i,f_i] = [f_i,e_i] = z and
    [e_i,f_{i-1}] = z, [f_{i-1},e_i] = -z."""
    _check_n(n, 2 * n + 1)
    zidx = 2 * n
    brackets = {}
    for i in range(n):
        brackets[(i, n + i)] = [(zidx, 1)]
        brackets[(n + i, i)] = [(zidx, 1)]
    for i in range(1, n):
        brackets[(i, n + i - 1)] = [(zidx, 1)]
        brackets[(n + i - 1, i)] = [(zidx, -1)]
    alg = Algebra.from_brackets(Q, _ef_labels(n), brackets)
    return _maybe_interleave(alg, n, order)


def dieudonne(n: int) -> Algebra:
    """(2n+2)-dimensional Dieudonne algebra on {e_1..e_{2n+1}, z}."""
    _check_n(n, 2 * n + 2)
    labels = ["e%d" % (i + 1) for i in range(2 * n + 1)] + ["z"]
    zidx = 2 * n + 1
    brackets = {}

    def add(i, j, cf):
        # 1-based indices from the defining bracket list
        brackets.setdefault((i - 1, j - 1), []).append((zidx, cf))

    add(1, n + 2, 1)
    for i in range(2, n + 1):
        add(i, n + i, 1)
        add(i, n + i + 1, 1)
    add(n + 1, 2 * n + 1, 1)
    for i in range(n + 2, 2 * n + 2):
        add(i, i - n, 1)
        add(i, i - n - 1, -1)
    return Algebra.from_brackets(Q, labels, brackets)


def realify_heisenberg(n: int, z, order: str = GROUPED) -> Algebra:
    """Real (4n+1)-dimensional form of the complex Heisenberg-type algebra
    with Jordan parameter ``z = a + bi``: the parameter matrix is realified
    entrywise and the algebra rebuilt over Q."""
    _check_n(n, 4 * n + 1)
    zq = z if isinstance(z, GaussRat) else GaussRat(z)
    if not zq.im:
        raise ValueError("parameter must have a nonzero imaginary part")
    param = realify_parameter(jordan(zq, n))
    return heisenberg_leibniz(2 * n, param, order)


# kept for the benchmark's span recorder, which wraps it by name
def realify_algebra(alg: Algebra) -> Algebra:
    """Scalar restriction: dimension doubles, brackets induced over Q.

    Writing c = x + yi for a structure constant, the real basis {u_k, v_k}
    (v_k standing for i*u_k) satisfies [u_j,u_k] = sum(x u_m + y v_m),
    [u_j,v_k] = [v_j,u_k] = sum(-y u_m + x v_m) and [v_j,v_k] = -[u_j,u_k].
    """
    if alg.field != QI:
        raise ValueError("input must live over Qi")
    d = alg.dim
    labels = list(alg.labels) + ["%s_im" % lbl for lbl in alg.labels]
    brackets = {}

    def put(key, terms):
        if terms:
            brackets[key] = terms

    for (j, k), terms in alg.table.items():
        uu, uv = [], []
        for m, cf in terms:
            x, y = scalar_parts(cf)
            if x:
                uu.append((m, x))
                uv.append((d + m, x))
            if y:
                uu.append((d + m, y))
                uv.append((m, -y))
        put((j, k), tuple(uu))
        put((j, d + k), tuple(uv))
        put((d + j, k), tuple(uv))
        put((d + j, d + k), tuple((m, -cf) for m, cf in uu))
    return Algebra.from_brackets(Q, labels, brackets)


def realify_derivation(flat: SparseVec, d: int) -> Optional[SparseVec]:
    """Real form of a derivation-shaped complex d x d matrix on a genus-1
    algebra, a (2d-1) x (2d-1) matrix; both are sparse row-major flats.

    Every complex basis coordinate k expands to the real coordinate pair
    (2k, 2k+1) via the block [[x, y], [-y, x]]; the final coordinate (the
    commutator line) stays one-dimensional, so its diagonal entry must be
    real and its column otherwise zero.  Returns None when the input has no
    real form of this shape.
    """
    last = d * d - 1
    if (any(k % d == d - 1 for k in flat if k != last)
            or scalar_parts(flat.get(last, 0))[1]):
        return None
    # drop row and column 2d-1, the imaginary copy of the commutator line
    m = 2 * d - 1
    real = realify_parameter(sparse_rows(flat, d))
    return {r * m + c: v for r, row in real.items() if r < m
            for c, v in row.items() if c < m}


# the parameters each family takes besides n
_PARAMS = {"heisenberg-lie": ("order",), "heisenberg": ("a", "order"),
           "kronecker": ("order",), "dieudonne": (),
           "realify-heisenberg": ("a", "b", "order")}
FAMILIES = tuple(_PARAMS)


def _real_part(x, default):
    if x is None:
        return Fraction(default)
    re, im = scalar_parts(coerce_scalar(x, QI))
    if im:
        raise ValueError("parameter must be real here; the imaginary part "
                         "has its own slot")
    return re


class FamilySpec(NamedTuple):
    """A concrete family instance; the CLI and the claim checkers build their
    algebras through :meth:`build`, which builds each spec once."""

    family: str
    n: int
    a: object = None  # scalar parameter
    b: object = None
    order: str = GROUPED

    def name(self) -> str:
        parts = [self.family, "n=%d" % self.n]
        if self.a is not None:
            parts.append("a=%s" % format_scalar(coerce_scalar(self.a, QI)))
        if self.b is not None:
            parts.append("b=%s" % format_scalar(coerce_scalar(self.b, QI)))
        if self.order != GROUPED:
            parts.append(self.order)
        return " ".join(parts)

    @cached
    def build(self) -> Algebra:
        """The algebra; a parameter the family does not take is an error."""
        f = self.family
        if f not in _PARAMS:
            raise ValueError("unknown family %r" % (f,))
        given = {"a": self.a is not None, "b": self.b is not None,
                 "order": self.order != GROUPED}
        extra = [k for k, v in given.items() if v and k not in _PARAMS[f]]
        if extra:
            raise ValueError("family %s does not take %s" % (f, ", ".join(extra)))
        if f == "heisenberg-lie":
            return heisenberg_lie(self.n, self.order)
        if f == "heisenberg":
            return heisenberg_leibniz(self.n, jordan(self.a or 0, self.n), self.order)
        if f == "kronecker":
            return kronecker(self.n, self.order)
        if f == "dieudonne":
            return dieudonne(self.n)
        # realify-heisenberg
        a = _real_part(self.a, 0)
        b = _real_part(self.b, 1)
        return realify_heisenberg(self.n, GaussRat(a, b), self.order)
