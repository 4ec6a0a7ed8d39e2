"""Shared test utilities: independent oracles kept deliberately naive."""

from fractions import Fraction
from random import Random
from typing import Optional

from derleib import claims
from derleib.algebra import Algebra, AlgebraKind
from derleib.derivations import is_derivation
from derleib.exactlin import (
    Echelon,
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
    kernel_from_rows,
    rref,
    scalar_one,
    scalar_zero,
    sparse_flat,
    sparse_mul,
    sparse_trace,
)
from derleib.liestruct import killing


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


def adjoint(alg: Algebra, x, side: str = "left") -> Mat:
    """Matrix of ``y -> [x, y]`` (left) or ``y -> [y, x]`` (right), column
    by column through ``alg.bracket``."""
    cols = []
    for j in range(alg.dim):
        e = alg.basis_vector(j)
        cols.append(alg.bracket(x, e) if side == "left" else alg.bracket(e, x))
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
    """:func:`derleib.claims.j0_gens` with :class:`Flat` values."""
    return {nm: Flat(f) for nm, f in claims.j0_gens(n).items()}


def kron_gens(n: int) -> dict:
    """:func:`derleib.claims.kron_gens` with :class:`Flat` values."""
    return {nm: Flat(f) for nm, f in claims.kron_gens(n).items()}


def l5r_gens() -> dict:
    """:func:`derleib.claims.l5r_gens` with :class:`Flat` values."""
    return {nm: Flat(f) for nm, f in claims.l5r_gens().items()}


def nullspace(m: Mat) -> Subspace:
    """Canonical basis of ``{v : m v = 0}``."""
    return kernel_from_rows((m.row(r) for r in range(m.rows)), m.cols, m.field)


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
        row = {c: v for c, v in enumerate(m.row(r)) if v}
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


def is_semisimple(alg: Algebra) -> bool:
    """Cartan criterion: nondegenerate Killing form."""
    return killing(alg).rank == alg.dim


def naive_nilradical(alg: Algebra) -> Subspace:
    """The x with trace(ad_x b) = 0 for every b in the associative envelope
    of all d adjoint maps (de Graaf 2000), Levi factor included; the result
    is not re-verified."""
    assert alg.kind.lie
    d = alg.dim
    ads = alg.ops[0]
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
    if not is_derivation(d, alg):
        raise ValueError("input is not a derivation")
    rng = Random(seed)
    dim = alg.dim
    for _ in range(trials):
        x = tuple(_random_scalar(rng, alg.field) for _ in range(dim))
        cols = []
        for j in range(dim):
            ej = alg.basis_vector(j)
            cols.append(alg.bracket(ej, x))
            cols.append(alg.bracket(x, ej))
        m = Mat(dim, 2 * dim, alg.field,
                tuple(cols[c][r] for r in range(dim) for c in range(2 * dim)))
        if solve(m, d.apply(x)) is None:
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
        mk = m * lincomb((1, mk), (ck, identity(n, m.field)))
        ck = -trace(mk) / k
        coeffs.append(ck)
    return coeffs


def mat_power_is_zero(m: Mat, exponent: int) -> bool:
    acc = identity(m.rows, m.field)
    for _ in range(exponent):
        acc = acc * m
        if acc.is_zero():
            return True
    return acc.is_zero()


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
        for k, cf in terms:
            out[k] = out[k] + x[i] * y[j] * cf
    return tuple(out)


def naive_structure(mla) -> Algebra:
    """Induced bracket table of a matrix Lie algebra, the dense way: the
    matrix product ``a b - b a`` of every ordered pair of basis matrices,
    read in basis coordinates through ``Subspace.coords``."""
    brackets = {}
    for s, a in enumerate(mla.basis):
        for t, b in enumerate(mla.basis):
            cs = mla.subspace.coords(lincomb((1, a * b), (-1, b * a)).flatten())
            assert cs is not None, "bracket %d, %d escapes the span" % (s, t)
            brackets[(s, t)] = list(enumerate(cs))
    return Algebra.from_brackets(mla.field, ["m%d" % (k + 1) for k in range(mla.dim)],
                                 brackets)


def naive_kind(alg: Algebra) -> AlgebraKind:
    """Both Leibniz identities and antisymmetry, evaluated densely on every
    basis triple through ``alg.bracket``."""
    e = [alg.basis_vector(i) for i in range(alg.dim)]
    br = alg.bracket

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
        p = Mat.from_rows([[cols[c][r] for c in range(dim)] for r in range(dim)])
        if rref(p)[1] == dim:
            break
    return Algebra.from_brackets(Q, alg.labels, {
        (i, j): list(enumerate(solve(p, alg.bracket(cols[i], cols[j]))))
        for i in range(dim) for j in range(dim)})
