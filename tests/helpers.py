"""Shared test utilities: independent oracles kept deliberately naive."""

import re
from fractions import Fraction
from random import Random
from typing import Optional

from derleib import checkers
from derleib.algebra import Algebra, AlgebraKind
from derleib.catalog import GROUPED, interleave_perm, permute_basis
from derleib.exactlin import (
    Echelon,
    FieldMismatch,
    GaussRat,
    InternalInvariantError,
    Mat,
    Q,
    QI,
    ShapeMismatch,
    SparseVec,
    Subspace,
    axpy,
    coerce_scalar,
    format_scalar,
    kernel_from_rows,
    scalar_parts,
    scalar_zero,
    sparse_flat,
    sparse_mul,
    sparse_rows,
)
from derleib.liestruct import killing


def scalar_one(field: str):
    return Fraction(1) if field == Q else GaussRat(1)


def abelian(dim: int, field: str = Q) -> Algebra:
    return Algebra.from_brackets(field, ["e%d" % (k + 1) for k in range(dim)], {})


def basis_vector(alg: Algebra, i: int) -> tuple:
    """The i-th standard basis vector of the algebra, dense."""
    return tuple(scalar_one(alg.field) if k == i else scalar_zero(alg.field)
                 for k in range(alg.dim))


def mat(data, field: str = Q) -> Mat:
    """The dense matrix of a list of rows, entries coerced into ``field``;
    ragged rows fail ``Mat``'s shape check."""
    flat = tuple(coerce_scalar(x, field) for row in data for x in row)
    return Mat(len(data), len(data[0]) if data else 0, field, flat)


def zero_mat(rows: int, cols: int, field: str = Q) -> Mat:
    return Mat(rows, cols, field, (scalar_zero(field),) * (rows * cols))


def sparse_mat(rows: dict, n: int, field: str = Q) -> Mat:
    """The dense n x n matrix of sparse rows ``{row: {col: value}}``."""
    return mat([[rows.get(r, {}).get(c, 0) for c in range(n)] for r in range(n)], field)


def entry(m: Mat, r: int, c: int):
    return m.entries[r * m.cols + c]


def mat_row(m: Mat, r: int) -> tuple:
    return m.entries[r * m.cols:(r + 1) * m.cols]


def mat_col(m: Mat, c: int) -> tuple:
    return m.entries[c::m.cols] if m.cols else ()


def unit(d: int, r: int, c: int, field: str = Q, value=1) -> Mat:
    """The d x d matrix with ``value`` at (r, c) and zeros elsewhere."""
    return to_mat({r * d + c: value}, d, field)


def matmul(a: Mat, b: Mat) -> Mat:
    """Dense product ``a b``, row by row of ``a``; the oracle for
    ``Mat.__mul__``."""
    if a.field != b.field:
        raise FieldMismatch("mixed fields %s and %s" % (a.field, b.field))
    if a.cols != b.rows:
        raise ShapeMismatch("cannot multiply %dx%d by %dx%d"
                            % (a.rows, a.cols, b.rows, b.cols))
    n, m, k = a.rows, b.cols, a.cols
    out = [scalar_zero(a.field)] * (n * m)
    for r in range(n):
        for t in range(k):
            av = a.entries[r * k + t]
            if not av:
                continue
            for c in range(m):
                bv = b.entries[t * m + c]
                if bv:
                    out[r * m + c] = out[r * m + c] + av * bv
    return Mat(n, m, a.field, tuple(out))


def matvec(m: Mat, vec) -> tuple:
    """Dense matrix-vector product; columns hold images of basis vectors."""
    if len(vec) != m.cols:
        raise ShapeMismatch("vector length %d != %d" % (len(vec), m.cols))
    out = [scalar_zero(m.field)] * m.rows
    for c, xv in enumerate(vec):
        if not xv:
            continue
        for r in range(m.rows):
            e = m.entries[r * m.cols + c]
            if e:
                out[r] = out[r] + e * xv
    return tuple(out)


def naive_commutator(a: Mat, b: Mat) -> Mat:
    """``a b - b a`` through :func:`matmul`; the oracle for ``commutator``."""
    return lincomb((1, matmul(a, b)), (-1, matmul(b, a)))


def is_zero(m: Mat) -> bool:
    return not any(m.entries)


def identity(n: int, field: str = Q) -> Mat:
    z, o = scalar_zero(field), scalar_one(field)
    flat = [z] * (n * n)
    for k in range(n):
        flat[k * n + k] = o
    return Mat(n, n, field, tuple(flat))


def lincomb(*terms) -> Mat:
    """``sum c * m`` over the ``(c, m)`` pairs of dense matrices of one
    shape and field, entry by entry."""
    first = terms[0][1]
    flat = [scalar_zero(first.field)] * len(first.entries)
    for c, m in terms:
        assert (m.rows, m.cols, m.field) == (first.rows, first.cols, first.field)
        c = coerce_scalar(c, m.field)
        flat = [x + c * y for x, y in zip(flat, m.entries)]
    return Mat(first.rows, first.cols, first.field, tuple(flat))


def to_mat(flat: SparseVec, d: int, field: str = Q) -> Mat:
    """The d x d matrix of a sparse row-major flattening."""
    z = scalar_zero(field)
    return Mat(d, d, field, tuple(coerce_scalar(flat.get(i, z), field)
                                  for i in range(d * d)))


def dense_basis(mla) -> tuple:
    """The canonical basis of a matrix Lie algebra as dense matrices, one
    per row of its subspace, in pivot order."""
    d = mla.ambient_dim
    return tuple(Mat.unflatten(row, d, d, mla.field) for row in mla.subspace.basis)


def pretty(m: Mat) -> str:
    """A dense matrix as ``derive`` prints it, entry by entry: one bracketed
    line per row, each column right-justified to its widest formatted
    entry; the oracle for the CLI's printer."""
    cells = [[format_scalar(entry(m, r, c)) for c in range(m.cols)]
             for r in range(m.rows)]
    widths = [max(len(cells[r][c]) for r in range(m.rows)) if m.rows else 0
              for c in range(m.cols)]
    return "\n".join(
        "[ " + "  ".join(cells[r][c].rjust(widths[c]) for c in range(m.cols)) + " ]"
        for r in range(m.rows))


def adjoint(alg: Algebra, x, side: str = "left") -> Mat:
    """Matrix of ``y -> [x, y]`` (left) or ``y -> [y, x]`` (right), column
    by column through :func:`naive_bracket`."""
    cols = []
    for j in range(alg.dim):
        e = basis_vector(alg, j)
        cols.append(naive_bracket(alg, x, e) if side == "left"
                    else naive_bracket(alg, e, x))
    flat = [cols[c][r] for r in range(alg.dim) for c in range(alg.dim)]
    return Mat(alg.dim, alg.dim, alg.field, tuple(flat))


class Flat(dict):
    """A sparse row-major flattening that adds and subtracts, so that a test
    can write sums of named generators as ``gens["x"] - gens["y"]``."""

    def __add__(self, other):
        return Flat(axpy(dict(self), 1, other.items()))

    def __sub__(self, other):
        return Flat(axpy(dict(self), -1, other.items()))


def j0_gens(n: int) -> dict:
    """:func:`derleib.checkers.j0_gens` with :class:`Flat` values."""
    return {nm: Flat(f) for nm, f in checkers.j0_gens(n).items()}


def kron_gens(n: int) -> dict:
    """:func:`derleib.checkers.kron_gens` with :class:`Flat` values."""
    return {nm: Flat(f) for nm, f in checkers.kron_gens(n).items()}


def l5r_gens() -> dict:
    """:func:`derleib.checkers.l5r_gens` with :class:`Flat` values."""
    return {nm: Flat(f) for nm, f in checkers.l5r_gens().items()}


def nullspace(m: Mat) -> Subspace:
    """Canonical basis of ``{v : m v = 0}``."""
    return kernel_from_rows((mat_row(m, r) for r in range(m.rows)), m.cols, m.field)


def transpose(m: Mat) -> Mat:
    return Mat(m.cols, m.rows, m.field,
               tuple(m.entries[r * m.cols + c]
                     for c in range(m.cols) for r in range(m.rows)))


def trace(m: Mat):
    if m.rows != m.cols:
        raise ShapeMismatch("trace of a non-square matrix")
    t = scalar_zero(m.field)
    for k in range(m.rows):
        t = t + m.entries[k * m.cols + k]
    return t


def sparse_trace(a: dict, b: dict):
    """``trace(a b)`` of two sparse matrices ``{row: {column: value}}``, one
    pair at a time; the int 0 when no terms meet.  An oracle for
    :func:`derleib.exactlin.sparse_traces`."""
    t = 0
    for r, row in a.items():
        for c, v in row.items():
            bc = b.get(c)
            if bc and r in bc:
                t = t + v * bc[r]
    return t


# The engine's echelon as it was before it kept projective integer rows,
# copied unchanged apart from its name: an oracle for `Echelon`.
class FractionEchelon:
    """Incremental row space kept in reduced row-echelon form.

    Rows are sparse mappings ``{column: scalar}``.  The structure maintains
    full reduction: each stored row has pivot coefficient one and zeros in
    every other pivot column, so extraction yields the canonical basis of
    the row space.
    """

    __slots__ = ("ncols", "rows")

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: dict[int, SparseVec] = {}  # pivot column -> row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec) -> SparseVec:
        """Fully reduce ``vec`` against the stored rows (vec is not modified)."""
        out = {c: v for c, v in (vec.items() if isinstance(vec, dict) else enumerate(vec)) if v}
        for p in sorted(c for c in out if c in self.rows):
            cf = out.get(p)
            if cf:
                axpy(out, -cf, self.rows[p].items())
        return out

    def insert(self, vec) -> bool:
        """Add ``vec`` to the row space; returns True iff the rank grew."""
        red = self.reduce(vec)
        if not red:
            return False
        p = min(red)
        piv = red[p]
        row = {c: v / piv for c, v in red.items()}
        for other in self.rows.values():
            cf = other.get(p)
            if cf:
                axpy(other, -cf, row.items())
        self.rows[p] = row
        return True

    def contains(self, vec) -> bool:
        return not self.reduce(vec)

    def canonical_rows(self) -> tuple:
        """The rows in pivot order, each as ``(column, value)`` pairs in
        ascending column order: the canonical sparse basis."""
        return tuple(tuple(sorted(self.rows[p].items())) for p in sorted(self.rows))


def fraction_kernel(rows, ncols: int, field: str) -> tuple:
    """Canonical rows of the common kernel of ``rows``, as the engine found
    them on :class:`FractionEchelon`: x_f = 1 and x_p = -row[f] at each
    pivot p of the pivot-one echelon rows."""
    ech = FractionEchelon(ncols)
    for r in rows:
        ech.insert(r)
    out = FractionEchelon(ncols)
    for f in range(ncols):
        if f not in ech.rows:
            v = {f: scalar_one(field)}
            for p, row in ech.rows.items():
                if row.get(f):
                    v[p] = -row[f]
            out.insert(v)
    return out.canonical_rows()


def fraction_intersect(u_rows, v_rows, n: int) -> tuple:
    """Canonical rows of U ∩ V by Zassenhaus on :class:`FractionEchelon`."""
    ech = FractionEchelon(2 * n)
    for row in u_rows:
        ech.insert(dict(row + tuple((c + n, v) for c, v in row)))
    for row in v_rows:
        ech.insert(dict(row))
    out = FractionEchelon(n)
    for p, row in ech.rows.items():
        if p >= n:
            out.insert({c - n: v for c, v in row.items()})
    return out.canonical_rows()


def fraction_coords(rows, vec) -> Optional[tuple]:
    """Coordinates of the dense ``vec`` in the canonical ``rows``, or None."""
    ech = FractionEchelon(len(vec))
    ech.rows = {row[0][0]: dict(row) for row in rows}
    if ech.reduce(vec):
        return None
    return tuple(vec[row[0][0]] for row in rows)

def solve(m: Mat, b) -> Optional[tuple]:
    """Some solution of ``m x = b``, or None when the system is inconsistent."""
    if len(b) != m.rows:
        raise ShapeMismatch("rhs length %d != %d" % (len(b), m.rows))
    ech = Echelon(m.cols + 1, m.field)
    bcol = m.cols
    for r in range(m.rows):
        row = {c: v for c, v in enumerate(mat_row(m, r)) if v}
        bv = coerce_scalar(b[r], m.field)
        if bv:
            row[bcol] = bv
        ech.insert(row)
    rows = [dict(row) for row in ech.canonical_rows()]
    if any(min(row) == bcol for row in rows):
        return None
    z = scalar_zero(m.field)
    x = [z] * m.cols
    for row in rows:
        x[min(row)] = row.get(bcol, z)
    return tuple(x)


def bilinear(gram: Mat, x, y):
    """``x^T G y`` for the Gram matrix G of a bilinear form."""
    return sum((a * b for a, b in zip(x, matvec(gram, y))), scalar_zero(gram.field))


def naive_gram(alg: Algebra) -> Mat:
    """Gram matrix of the Killing form the dense way: trace(ad_x ad_y) of
    the :func:`adjoint` matrices of every ordered pair of basis vectors,
    each entry computed on its own (no symmetry assumed)."""
    ads = [adjoint(alg, basis_vector(alg, i)) for i in range(alg.dim)]
    return mat([[trace(matmul(a, b)) for b in ads] for a in ads], alg.field)


def killing_gram(alg: Algebra) -> Mat:
    """The true Gram matrix of the engine's Killing form, dense: its sparse
    int rows divided by ``int_scale**2``, to compare with :func:`naive_gram`."""
    d, c2 = alg.dim, alg.int_scale ** 2
    dense = [[0] * d for _ in range(d)]
    for s, row in killing(alg).rows.items():
        for t, v in row.items():
            dense[s][t] = Fraction(v, c2) if alg.field == Q else v
    return mat(dense, alg.field)


def naive_radical(alg: Algebra) -> Subspace:
    """The Killing-orthogonal of [L, L] the dense way: the Gram matrix of
    :func:`naive_gram`, [L, L] spanned by the naive brackets of basis
    vectors, and the kernel of G v over its canonical basis.  Not checked
    on the quotient."""
    e = [basis_vector(alg, i) for i in range(alg.dim)]
    gram = naive_gram(alg)
    derived = Subspace.span((naive_bracket(alg, x, y) for x in e for y in e),
                            alg.dim, alg.field)
    return nullspace(mat([matvec(gram, v) for v in derived.basis]
                                   or [[0] * alg.dim], alg.field))


def is_semisimple(alg: Algebra) -> bool:
    """Cartan criterion: nondegenerate Killing form."""
    return killing(alg).rank == alg.dim


def naive_nilradical(alg: Algebra) -> Subspace:
    """The x with trace(ad_x b) = 0 for every b in the associative envelope
    of all d adjoint maps (de Graaf 2000), Levi factor included; the result
    is not re-verified."""
    assert alg.kind.lie
    d = alg.dim
    ads = [sparse_rows(adjoint(alg, basis_vector(alg, i)).sparse(), d) for i in range(d)]
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
    rows = ([sparse_trace(a, b) for a in ads] for b in basis)
    return kernel_from_rows(rows, d, alg.field)


def _random_scalar(rng: Random, field: str):
    num = rng.randint(-3, 3)
    den = rng.choice((1, 2))
    x = Fraction(num, den)
    if field != QI:
        return x
    return GaussRat(x, Fraction(rng.randint(-3, 3), rng.choice((1, 2))))


def almost_inner_sample(d: Mat, alg: Algebra, trials: int = 40,
                        seed: int = 0) -> Optional[tuple]:
    """Randomized falsifier for almost-innerness (any commutator genus).

    Draws pseudorandom elements x with small rational entries and checks
    that d(x) lies in the two-sided bracket span of x.  Returns the first
    failing x as a witness, or None when all trials pass.  A pass is
    evidence, not a proof.
    """
    if not naive_is_derivation(d, alg):
        raise ValueError("input is not a derivation")
    rng = Random(seed)
    dim = alg.dim
    for _ in range(trials):
        x = tuple(_random_scalar(rng, alg.field) for _ in range(dim))
        cols = []
        for j in range(dim):
            ej = basis_vector(alg, j)
            cols.append(naive_bracket(alg, ej, x))
            cols.append(naive_bracket(alg, x, ej))
        m = Mat(dim, 2 * dim, alg.field,
                tuple(cols[c][r] for r in range(dim) for c in range(2 * dim)))
        if solve(m, matvec(d, x)) is None:
            return x
    return None


def charpoly(m: Mat) -> list:
    """Characteristic polynomial coefficients [c_n..c_0] (monic, c_n = 1)
    via the Faddeev-LeVerrier recurrence; exact."""
    n = m.rows
    coeffs = [Fraction(1)]
    mk = m
    ck = -trace(mk)
    coeffs.append(ck)
    for k in range(2, n + 1):
        mk = matmul(m, lincomb((1, mk), (ck, identity(n, m.field))))
        ck = -trace(mk) / k
        coeffs.append(ck)
    return coeffs


def mat_power_is_zero(m: Mat, exponent: int) -> bool:
    acc = identity(m.rows, m.field)
    for _ in range(exponent):
        acc = matmul(acc, m)
        if is_zero(acc):
            return True
    return is_zero(acc)


def real_block(a, b, n: int) -> Mat:
    """The 2n x 2n block-bidiagonal matrix with R = [[a, b], [-b, a]] blocks,
    identity 2x2 blocks under the diagonal: the realified Jordan block of
    a + bi, built entry by entry.  Requires b != 0."""
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
    return mat(m, Q)


def entrywise_realify_derivation(dmat: Mat) -> Optional[SparseVec]:
    """Real form of a derivation-shaped complex matrix, entry by entry:
    each coordinate k < d becomes the pair (2k, 2k+1) through the block
    [[x, y], [-y, x]], the commutator line d stays one coordinate; the
    sparse row-major flat of the result.  None when that line's column is
    nonzero above the diagonal or its diagonal entry is imaginary."""
    d = dmat.rows - 1
    out = [[Fraction(0)] * (2 * d + 1) for _ in range(2 * d + 1)]
    for j in range(d):
        if entry(dmat, j, d):
            return None
        for k in range(d):
            x, y = scalar_parts(entry(dmat, j, k))
            out[2 * j][2 * k] = x
            out[2 * j][2 * k + 1] = y
            out[2 * j + 1][2 * k] = -y
            out[2 * j + 1][2 * k + 1] = x
    for k in range(d):
        x, y = scalar_parts(entry(dmat, d, k))
        out[2 * d][2 * k] = x
        out[2 * d][2 * k + 1] = y
    gr, gi = scalar_parts(entry(dmat, d, d))
    if gi:
        return None
    out[2 * d][2 * d] = gr
    return mat(out, Q).sparse()


def dense_jordan(a, n: int, field: Optional[str] = None) -> Mat:
    """The Jordan block J(a) as a dense matrix, over Q(i) when ``a`` has an
    imaginary part or ``field`` says so; the oracle for ``catalog.jordan``."""
    field = field or (QI if scalar_parts(a)[1] else Q)
    return mat([[a if r == c else 1 if r == c + 1 else 0 for c in range(n)]
                 for r in range(n)], field)


def dense_heisenberg_leibniz(n: int, a: Mat, order: str = GROUPED) -> Algebra:
    """The Heisenberg-type algebra of a dense n x n parameter matrix over its
    field, every entry read: [e_i, f_j] = (d_ij + a_ij) z and [f_j, e_i] =
    (-d_ij + a_ij) z; the oracle for ``catalog.heisenberg_leibniz``."""
    if a.rows != n or a.cols != n:
        raise ShapeMismatch("parameter matrix must be %d x %d" % (n, n))
    brackets = {}
    for i in range(n):
        for j in range(n):
            d = 1 if i == j else 0
            plus, minus = entry(a, i, j) + d, entry(a, i, j) - d
            if plus:
                brackets[(i, n + j)] = [(2 * n, plus)]
            if minus:
                brackets[(n + j, i)] = [(2 * n, minus)]
    labels = (["e%d" % (i + 1) for i in range(n)]
              + ["f%d" % (i + 1) for i in range(n)] + ["z"])
    alg = Algebra.from_brackets(a.field, labels, brackets)
    return alg if order == GROUPED else permute_basis(alg, interleave_perm(n))


def _split_rational(part: str, text: str) -> Fraction:
    if not re.fullmatch("[+-]?[0-9]+(?:/[0-9]+)?", part):
        raise ValueError("malformed scalar %r" % (text,))
    try:
        return Fraction(part)
    except ZeroDivisionError:
        raise ValueError("zero denominator in scalar %r" % (text,)) from None


def split_parse_scalar(text: str, field: str = QI):
    """The scalar grammar parsed by hand: a token ending in ``i`` is split at
    its last sign that follows a digit; the oracle for ``parse_scalar``."""
    tok = text.strip()
    if not tok or any(ch.isspace() for ch in tok):
        raise ValueError("malformed scalar %r" % (text,))
    if tok.endswith("i"):
        body = tok[:-1]
        split = None
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "+-/":
                split = k
                break
        if split is None:
            re_part, im_part = "", body
        else:
            re_part, im_part = body[:split], body[split:]
        if im_part in ("", "+"):
            im = Fraction(1)
        elif im_part == "-":
            im = Fraction(-1)
        else:
            im = _split_rational(im_part, text)
        re_ = _split_rational(re_part, text) if re_part else Fraction(0)
        if field == Q and im:
            raise FieldMismatch("imaginary scalar %r in field Q" % (text,))
        return coerce_scalar(GaussRat(re_, im), field)
    return coerce_scalar(_split_rational(tok, text), field)


def ad_nilpotent(alg: Algebra, vec) -> bool:
    return mat_power_is_zero(adjoint(alg, vec, "left"), alg.dim)


def random_vector(rng: Random, dim: int):
    return tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                 for _ in range(dim))


def random_solvable_lie(rng: Random) -> tuple:
    """A random solvable Lie algebra of dim <= 5: a weighted diagonal element
    acting on a random two-step nilpotent part.

    Returns (algebra, expected_nilradical_indices); the expected nilradical
    is everything but the diagonal element, or the whole algebra when all
    weights vanish.
    """
    p = rng.randint(1, 3)
    max_cent = min(2, 4 - p, p * (p - 1) // 2)
    ncent = rng.randint(0, max_cent) if max_cent > 0 else 0
    weights = [rng.randint(-2, 2) for _ in range(p)]
    pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
    rng.shuffle(pairs)
    chosen = pairs[:ncent]
    dim = 1 + p + ncent
    labels = ["t"] + ["g%d" % (i + 1) for i in range(p)] \
        + ["z%d" % (k + 1) for k in range(ncent)]
    brackets = {}

    def add(i, j, k, cf):
        brackets.setdefault((i, j), []).append((k, Fraction(cf)))

    for i, w in enumerate(weights):
        if w:
            add(0, 1 + i, 1 + i, w)
            add(1 + i, 0, 1 + i, -w)
    for k, (i, j) in enumerate(chosen):
        zidx = 1 + p + k
        add(1 + i, 1 + j, zidx, 1)
        add(1 + j, 1 + i, zidx, -1)
        wz = weights[i] + weights[j]
        if wz:
            add(0, zidx, zidx, wz)
            add(zidx, 0, zidx, -wz)
    alg = Algebra.from_brackets(Q, labels, brackets)
    assert alg.kind.lie
    if any(weights):
        expected = list(range(1, dim))
    else:
        expected = list(range(dim))
    return alg, expected


def naive_bracket(alg: Algebra, x, y) -> tuple:
    """Bilinear extension of the structure constants by walking the whole
    table, whatever the vectors' supports."""
    out = [scalar_zero(alg.field)] * alg.dim
    for (i, j), terms in alg.table.items():
        if x[i] and y[j]:
            for k, cf in terms:
                out[k] = out[k] + x[i] * y[j] * cf
    return tuple(out)


def naive_product_rows(alg: Algebra, u, v) -> tuple:
    """Canonical rows of span{[x, y] : x in u, y in v} for two lists of
    dense vectors: every :func:`naive_bracket` inserted into a
    :class:`FractionEchelon`, with no bound and no early stop."""
    ech = FractionEchelon(alg.dim)
    for x in u:
        for y in v:
            ech.insert(naive_bracket(alg, x, y))
    return ech.canonical_rows()


def naive_series(alg: Algebra, kind: str) -> list:
    """Canonical rows of the terms of the lower central series (L^{k+1} =
    [L, L^k]) or the derived series (L^{(k+1)} = [L^{(k)}, L^{(k)}]) the
    dense way, each term by :func:`naive_product_rows` and no inclusion
    assumed; it ends at the first zero term or the first term equal to the
    one before."""
    zero = scalar_zero(alg.field)
    e = [basis_vector(alg, i) for i in range(alg.dim)]
    terms, term = [tuple(((k, scalar_one(alg.field)),) for k in range(alg.dim))], e
    while True:
        rows = naive_product_rows(alg, e if kind == "lower_central" else term, term)
        if rows == terms[-1]:
            return terms
        terms.append(rows)
        if not rows:
            return terms
        term = [tuple(dict(row).get(c, zero) for c in range(alg.dim)) for row in rows]


def naive_is_derivation(d: Mat, alg: Algebra) -> bool:
    """d([x,y]) = [d(x),y] + [x,d(y)] on all basis pairs (enough by
    bilinearity), through :func:`naive_bracket` and :func:`matvec`."""
    if d.rows != alg.dim or d.cols != alg.dim:
        raise ShapeMismatch("matrix is %dx%d, algebra dimension is %d"
                            % (d.rows, d.cols, alg.dim))
    e = [basis_vector(alg, i) for i in range(alg.dim)]
    cols = [mat_col(d, j) for j in range(alg.dim)]
    for i in range(alg.dim):
        for j in range(alg.dim):
            lhs = matvec(d, naive_bracket(alg, e[i], e[j]))
            r1 = naive_bracket(alg, cols[i], e[j])
            r2 = naive_bracket(alg, e[i], cols[j])
            if any(a - b - c for a, b, c in zip(lhs, r1, r2)):
                return False
    return True


def leib_ideal(alg: Algebra) -> Subspace:
    """Span of the squares [x, x]: of [b_i, b_i] and [b_i, b_j] + [b_j, b_i]
    (char != 2)."""
    e = [basis_vector(alg, i) for i in range(alg.dim)]
    return Subspace.span((tuple(a + b for a, b in zip(naive_bracket(alg, x, y),
                                                       naive_bracket(alg, y, x)))
                          for x in e for y in e), alg.dim, alg.field)


def naive_structure(mla) -> Algebra:
    """Induced bracket table of a matrix Lie algebra, the dense way: the
    matrix product ``a b - b a`` of every ordered pair of basis matrices,
    read in basis coordinates through ``Subspace.coords``."""
    brackets = {}
    basis = dense_basis(mla)
    for s, a in enumerate(basis):
        for t, b in enumerate(basis):
            cs = mla.subspace.coords(naive_commutator(a, b).flatten())
            assert cs is not None, "bracket %d, %d escapes the span" % (s, t)
            brackets[(s, t)] = list(enumerate(cs))
    return Algebra.from_brackets(mla.field, ["m%d" % (k + 1) for k in range(mla.dim)],
                                 brackets)


def naive_kind(alg: Algebra) -> AlgebraKind:
    """Both Leibniz identities and antisymmetry, evaluated densely on every
    basis triple through :func:`naive_bracket`."""
    e = [basis_vector(alg, i) for i in range(alg.dim)]

    def br(x, y):
        return naive_bracket(alg, x, y)

    def add(u, v):
        return tuple(a + b for a, b in zip(u, v))

    left = all(br(x, br(y, z)) == add(br(br(x, y), z), br(y, br(x, z)))
               for x in e for y in e for z in e)
    right = all(br(br(x, y), z) == add(br(br(x, z), y), br(x, br(y, z)))
                for x in e for y in e for z in e)
    antisym = all(not any(add(br(x, y), br(y, x))) for x in e for y in e)
    return AlgebraKind(left_leibniz=left, right_leibniz=right,
                       symmetric=left and right,
                       lie=antisym and left and right)


def rescale_basis(alg: Algebra, lam, field: Optional[str] = None) -> Algebra:
    """The algebra in the basis b_i' = lam_i b_i, over ``field`` (its own by
    default): [b_i', b_j'] has the coefficient lam_i lam_j c_ijk / lam_k at
    b_k'."""
    return Algebra.from_brackets(field or alg.field, alg.labels, {
        (i, j): [(k, lam[i] * lam[j] * cf / lam[k]) for k, cf in terms]
        for (i, j), terms in alg.table.items()})


def _small(rng: Random):
    return Fraction(rng.choice((-2, -1, 1, 1, 2)))


def random_small_algebra(rng: Random) -> Algebra:
    """A random algebra of dimension <= 4 in a random basis, drawn from
    shapes that cover every outcome of the classification:

    - ``free``: arbitrary sparse structure constants (mostly not Leibniz);
    - ``antisym``: arbitrary antisymmetric brackets (mostly failing Jacobi);
    - ``two_step``: brackets into the last basis vector, which is central
      (Leibniz on both sides, Lie only when antisymmetric);
    - ``left``: [e_0, v] = A v on V = span(e_1, ...) and all else zero, a
      left Leibniz algebra that is right Leibniz iff A^2 = 0;
    - ``right``: the opposite algebra of ``left``.
    """
    dim = rng.randint(2, 4)
    shape = rng.choice(("free", "antisym", "two_step", "left", "right"))
    brackets = {}
    if shape == "free":
        for i in range(dim):
            for j in range(dim):
                if rng.random() < 0.3:
                    brackets[(i, j)] = [(rng.randrange(dim), _small(rng))]
    elif shape == "antisym":
        for i in range(dim):
            for j in range(i + 1, dim):
                if rng.random() < 0.5:
                    k, cf = rng.randrange(dim), _small(rng)
                    brackets[(i, j)] = [(k, cf)]
                    brackets[(j, i)] = [(k, -cf)]
    elif shape == "two_step":
        for i in range(dim - 1):
            for j in range(dim - 1):
                if rng.random() < 0.5:
                    brackets[(i, j)] = [(dim - 1, _small(rng))]
    else:
        for j in range(1, dim):
            terms = [(k, _small(rng)) for k in range(1, dim) if rng.random() < 0.5]
            if terms:
                key = (0, j) if shape == "left" else (j, 0)
                brackets[key] = terms
    alg = Algebra.from_brackets(Q, ["e%d" % (k + 1) for k in range(dim)], brackets)
    # rewrite in a random basis f_i = P e_i: [f_i, f_j] = P^-1 [P e_i, P e_j]
    while True:
        cols = [random_vector(rng, dim) for _ in range(dim)]
        p = mat([[cols[c][r] for c in range(dim)] for r in range(dim)])
        if nullspace(p).dim == 0:
            break
    return Algebra.from_brackets(Q, alg.labels, {
        (i, j): list(enumerate(solve(p, naive_bracket(alg, cols[i], cols[j]))))
        for i in range(dim) for j in range(dim)})
