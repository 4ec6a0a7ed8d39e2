"""Constructors for the indecomposable nilpotent genus-1 algebra families.

Three families of nilpotent Leibniz algebras with one-dimensional commutator
ideal are provided (Heisenberg type with an n x n parameter matrix, Kronecker
type, and Dieudonne type), together with parameter-matrix helpers, basis
reordering, and the complex-to-real constructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .algebra import Algebra
from .exactlin import (
    GaussRat,
    Mat,
    Q,
    QI,
    ShapeMismatch,
    coerce_scalar,
    format_scalar,
    scalar_parts,
    scalar_zero,
)


def _field_of(a) -> str:
    return QI if isinstance(a, GaussRat) and a.im else Q


def jordan(a, n: int, field: Optional[str] = None) -> Mat:
    """Lower-bidiagonal n x n Jordan block with eigenvalue ``a``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    field = field or _field_of(a)
    m = [[scalar_zero(field)] * n for _ in range(n)]
    av = coerce_scalar(a, field)
    one = coerce_scalar(1, field)
    for i in range(n):
        m[i][i] = av
        if i:
            m[i][i - 1] = one
    return Mat.from_rows(m, field)


def companion(coeffs: Sequence, field: str = Q) -> Mat:
    """Companion matrix of the monic polynomial x^m + c_{m-1}x^{m-1}+...+c_0.

    ``coeffs`` lists (c_0, ..., c_{m-1}).
    """
    m = len(coeffs)
    if m < 1:
        raise ValueError("empty coefficient list")
    rows = [[scalar_zero(field)] * m for _ in range(m)]
    one = coerce_scalar(1, field)
    for i in range(1, m):
        rows[i][i - 1] = one
    for i, cf in enumerate(coeffs):
        rows[i][m - 1] = rows[i][m - 1] - coerce_scalar(cf, field)
    return Mat.from_rows(rows, field)


def real_block(a, b, n: int) -> Mat:
    """The 2n x 2n block-bidiagonal matrix with R = [[a, b], [-b, a]] blocks.

    R realifies the complex number a + bi; identity 2x2 blocks sit under the
    diagonal.  Requires b != 0 (otherwise the complex parameter is real).
    """
    a = Fraction(a)
    b = Fraction(b)
    if not b:
        raise ValueError("real_block requires b != 0")
    m = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        m[2 * i][2 * i] = a
        m[2 * i][2 * i + 1] = b
        m[2 * i + 1][2 * i] = -b
        m[2 * i + 1][2 * i + 1] = a
        if i:
            m[2 * i][2 * i - 2] = Fraction(1)
            m[2 * i + 1][2 * i - 1] = Fraction(1)
    return Mat.from_rows(m, Q)


def realify_parameter(a: Mat) -> Mat:
    """Entrywise realification: each x + yi becomes the block [[x, y], [-y, x]]."""
    if a.field != QI:
        raise ValueError("parameter must live over Qi")
    rows = 2 * a.rows
    cols = 2 * a.cols
    m = [[Fraction(0)] * cols for _ in range(rows)]
    for r in range(a.rows):
        for c in range(a.cols):
            re, im = scalar_parts(a.at(r, c))
            m[2 * r][2 * c] = re
            m[2 * r][2 * c + 1] = im
            m[2 * r + 1][2 * c] = -im
            m[2 * r + 1][2 * c + 1] = re
    return Mat.from_rows(m, Q)


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


@lru_cache(maxsize=None)
def heisenberg_leibniz(n: int, a: Mat, order: str = GROUPED) -> Algebra:
    """(2n+1)-dimensional algebra with [e_i,f_j] = (d_ij + a_ij) z and
    [f_j,e_i] = (-d_ij + a_ij) z; the zero parameter gives the Heisenberg
    Lie algebra."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if a.rows != n or a.cols != n:
        raise ShapeMismatch("parameter matrix must be %d x %d" % (n, n))
    field = a.field
    zidx = 2 * n
    brackets = {}
    for i in range(n):
        for j in range(n):
            d = 1 if i == j else 0
            plus = a.at(i, j) + d
            minus = a.at(i, j) - d
            if plus:
                brackets[(i, n + j)] = [(zidx, plus)]
            if minus:
                brackets[(n + j, i)] = [(zidx, minus)]
    alg = Algebra.from_brackets(field, _ef_labels(n), brackets)
    return _maybe_interleave(alg, n, order)


def heisenberg_lie(n: int, order: str = GROUPED, field: str = Q) -> Algebra:
    return heisenberg_leibniz(n, Mat.zero(n, n, field), order)


@lru_cache(maxsize=None)
def kronecker(n: int, order: str = GROUPED, field: str = Q) -> Algebra:
    """(2n+1)-dimensional Kronecker algebra: [e_i,f_i] = [f_i,e_i] = z and
    [e_i,f_{i-1}] = z, [f_{i-1},e_i] = -z."""
    if n < 1:
        raise ValueError("n must be >= 1")
    zidx = 2 * n
    one = coerce_scalar(1, field)
    brackets = {}
    for i in range(n):
        brackets[(i, n + i)] = [(zidx, one)]
        brackets[(n + i, i)] = [(zidx, one)]
    for i in range(1, n):
        brackets[(i, n + i - 1)] = [(zidx, one)]
        brackets[(n + i - 1, i)] = [(zidx, -one)]
    alg = Algebra.from_brackets(field, _ef_labels(n), brackets)
    return _maybe_interleave(alg, n, order)


@lru_cache(maxsize=None)
def dieudonne(n: int, field: str = Q) -> Algebra:
    """(2n+2)-dimensional Dieudonne algebra on {e_1..e_{2n+1}, z}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    labels = ["e%d" % (i + 1) for i in range(2 * n + 1)] + ["z"]
    zidx = 2 * n + 1
    one = coerce_scalar(1, field)
    brackets = {}

    def add(i, j, cf):
        # 1-based indices from the defining bracket list
        brackets.setdefault((i - 1, j - 1), []).append((zidx, cf))

    add(1, n + 2, one)
    for i in range(2, n + 1):
        add(i, n + i, one)
        add(i, n + i + 1, one)
    add(n + 1, 2 * n + 1, one)
    for i in range(n + 2, 2 * n + 2):
        add(i, i - n, one)
        add(i, i - n - 1, -one)
    return Algebra.from_brackets(field, labels, brackets)


def realify_heisenberg(n: int, z, order: str = GROUPED) -> Algebra:
    """Real (4n+1)-dimensional form of the complex Heisenberg-type algebra
    with Jordan parameter ``z = a + bi``: the parameter matrix is realified
    entrywise and the algebra rebuilt over Q."""
    zq = z if isinstance(z, GaussRat) else GaussRat(z)
    if not zq.im:
        raise ValueError("parameter must have a nonzero imaginary part")
    param = realify_parameter(jordan(zq, n, QI))
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


def realify_derivation(dmat: Mat) -> Optional[Mat]:
    """Real form of a derivation-shaped complex matrix on a genus-1 algebra.

    Every complex basis coordinate k expands to the real coordinate pair
    (2k, 2k+1) via the block [[x, y], [-y, x]]; the final coordinate (the
    commutator line) stays one-dimensional, so its diagonal entry must be
    real and its column otherwise zero.  Returns None when the input has no
    real form of this shape.
    """
    if dmat.field != QI or dmat.rows != dmat.cols:
        raise ValueError("expected a square matrix over Qi")
    dd = dmat.rows
    d = dd - 1
    out = [[Fraction(0)] * (2 * d + 1) for _ in range(2 * d + 1)]
    for j in range(d):
        if dmat.at(j, d):
            return None  # commutator-line column must be (0,...,0,gamma)
        for k in range(d):
            x, y = scalar_parts(dmat.at(j, k))
            out[2 * j][2 * k] = x
            out[2 * j][2 * k + 1] = y
            out[2 * j + 1][2 * k] = -y
            out[2 * j + 1][2 * k + 1] = x
    for k in range(d):
        x, y = scalar_parts(dmat.at(d, k))
        out[2 * d][2 * k] = x
        out[2 * d][2 * k + 1] = y
    gr, gi = scalar_parts(dmat.at(d, d))
    if gi:
        return None  # the commutator-line eigenvalue must be real
    out[2 * d][2 * d] = gr
    return Mat.from_rows(out, Q)


FAMILIES = ("heisenberg-lie", "heisenberg", "kronecker", "dieudonne",
            "realify-heisenberg")


def _real_part(x, default):
    if x is None:
        return Fraction(default)
    re, im = scalar_parts(coerce_scalar(x, QI))
    if im:
        raise ValueError("parameter must be real here; the imaginary part "
                         "has its own slot")
    return re


@dataclass(frozen=True)
class FamilySpec:
    """A concrete family instance; the CLI and the claim registry build these."""

    family: str
    n: int
    a: object = None  # scalar parameter, or the full matrix for heisenberg
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

    def build(self) -> Algebra:
        f = self.family
        if f == "heisenberg-lie":
            return heisenberg_lie(self.n, self.order)
        if f == "heisenberg":
            if isinstance(self.a, Mat):
                return heisenberg_leibniz(self.n, self.a, self.order)
            a = 0 if self.a is None else self.a
            return heisenberg_leibniz(self.n, jordan(a, self.n), self.order)
        if f == "kronecker":
            return kronecker(self.n, self.order)
        if f == "dieudonne":
            return dieudonne(self.n)
        if f == "realify-heisenberg":
            a = _real_part(self.a, 0)
            b = _real_part(self.b, 1)
            return realify_heisenberg(self.n, GaussRat(a, b), self.order)
        raise ValueError("unknown family %r" % (f,))
