"""The documented claims: named generators, checkers, domains, :func:`registry`.

Only ``verify-paper`` runs claims, so :func:`derleib.claims.run_all` imports
this module when it runs.  Checkers use only public operations of the other
modules, so a failure here localizes a real mismatch.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from random import Random
from typing import Optional

from .algebra import Algebra
from .catalog import (
    GROUPED,
    INTERLEAVED,
    FamilySpec,
    dieudonne,
    heisenberg_leibniz,
    heisenberg_lie,
    interleave_perm,
    jordan,
    kronecker,
    realify_derivation,
    realify_heisenberg,
)
from .claims import CONFIRMED, DISCREPANCY, REFUTED, Claim
from .derivations import (
    MatrixLieAlgebra,
    almost_inner_genus1,
    der_algebra,
    inner_derivations,
)
from .exactlin import (
    GaussRat,
    Q,
    SparseVec,
    Subspace,
    axpy,
    format_scalar,
    format_vector,
    sparse_commutator,
    sparse_flat,
    sparse_rows,
)
from .liestruct import nilradical, radical, verify_levi


# ---------------------------------------------------------------------------
# named generator matrices, as sparse row-major flats {(r-1)*dim + (c-1): v}
# ---------------------------------------------------------------------------

def _unit(dim: int, r: int, c: int) -> SparseVec:
    """Matrix unit with 1-based indices."""
    return {(r - 1) * dim + c - 1: 1}


def _msum(dim: int, terms) -> SparseVec:
    """Sum of ``v`` times the matrix unit at (r, c), 1-based, per term."""
    return axpy({}, 1, (((r - 1) * dim + c - 1, v) for r, c, v in terms))


def _comb(*terms) -> SparseVec:
    """Sum of ``coeff * flat`` over ``(coeff, flat)`` pairs; zeros vanish."""
    acc = {}
    for cf, flat in terms:
        axpy(acc, cf, flat.items())
    return acc


def _seq(prefix: str, lo: int, hi: int, step: int = 1) -> list:
    """Generator names prefix+lo, prefix+(lo+step), ..., up to hi inclusive."""
    return ["%s%d" % (prefix, i) for i in range(lo, hi + 1, step)]


def _ab(n: int) -> list:
    """The names A_1..A_n, B_1..B_n."""
    return _seq("A", 1, n) + _seq("B", 1, n)


def heis_grouped_gens(n: int) -> dict:
    """Named derivation basis of the Jordan-parameter family, grouped basis."""
    dim = 2 * n + 1
    g = {}
    g["x"] = _msum(dim, [(k, k, 1) for k in range(1, n + 1)] + [(dim, dim, 1)])
    g["y"] = _msum(dim, [(n + k, n + k, 1) for k in range(1, n + 1)]
                   + [(dim, dim, 1)])
    for i in range(1, n):
        g["E%d" % i] = _msum(dim,
                             [(k, k + i, 1) for k in range(1, n - i + 1)]
                             + [(n + i + k, n + k, -1) for k in range(1, n - i + 1)])
    for i in range(1, n + 1):
        g["A%d" % i] = _unit(dim, dim, i)
        g["B%d" % i] = _unit(dim, dim, n + i)
    return g


def _interleaved_core_gens(n: int) -> dict:
    """x, y, E_i, A_i, B_i in the pairwise-interleaved basis {e1,f1,...,z}:
    the grouped ones conjugated by the interleaving, E_i with opposite sign."""
    dim = 2 * n + 1
    pos = {old: k for k, old in enumerate(interleave_perm(n))}
    return {name: {pos[k // dim] * dim + pos[k % dim]: -v if name[0] == "E" else v
                   for k, v in flat.items()}
            for name, flat in heis_grouped_gens(n).items()}


def _mixing_gens(n: int, c_hs, b_hs, sign: int) -> dict:
    """The interleaved core plus the c_h / b_h generators that mix the e and
    f coordinates, with alternating signs starting at ``sign``."""
    dim = 2 * n + 1
    g = _interleaved_core_gens(n)
    for h in c_hs:
        g["c%d" % h] = _msum(dim, [(2 * (h - i - 1) - 1, 2 * (1 + i), sign * (-1) ** i)
                                   for i in range(0, h - 1)])
    for h in b_hs:
        g["b%d" % h] = _msum(dim, [(2 * (n - i), 2 * (h - n + i) - 1, sign * (-1) ** i)
                                   for i in range(0, 2 * n - h + 1)])
    return g


def j0_gens(n: int) -> dict:
    """Named derivation basis for the nilpotent-Jordan-parameter family,
    interleaved basis: c_h for even h <= n+1, b_h for even h in [n+1, 2n]."""
    return _mixing_gens(n, range(2, n + 2, 2),
                        range(n + 2 - n % 2, 2 * n + 1, 2), 1)


def kron_gens(n: int) -> dict:
    """Named derivation basis of the Kronecker family, interleaved basis:
    c_h for odd h in [3, n+1], b_h for odd h in [n+1, 2n-1]."""
    return _mixing_gens(n, range(3, n + 2, 2),
                        range(n + 1 + n % 2, 2 * n, 2), -1)


def l5r_gens() -> dict:
    """Named derivation basis of the realified five-dimensional algebra."""
    g = {}
    g["x"] = _msum(5, [(1, 1, 1), (3, 3, 1), (5, 5, 1)])
    g["y"] = _msum(5, [(2, 2, 1), (4, 4, 1), (5, 5, 1)])
    g["E"] = _msum(5, [(1, 3, 1), (2, 4, 1), (3, 1, -1), (4, 2, -1)])
    g["F"] = _msum(5, [(1, 2, 1), (3, 4, 1)])
    g["G"] = _msum(5, [(2, 1, 1), (4, 3, 1)])
    for i in (1, 2):
        g["A%d" % i] = _unit(5, 5, 2 * i - 1)
        g["B%d" % i] = _unit(5, 5, 2 * i)
    return g


def dieu_gens(n: int) -> dict:
    """Named derivation basis of the Dieudonne family."""
    dim = 2 * n + 2
    g = {}
    g["x"] = _msum(dim, [(i, i, 1) for i in range(1, n + 2)] + [(dim, dim, 1)])
    g["y"] = _msum(dim, [(i, i, 1) for i in range(n + 2, dim + 1)])
    for i in range(1, (n + 1) // 2 + 1):
        g["E%d" % i] = _msum(dim, [(k, n + 2 * i + 1 - k, (-1) ** (k + 1))
                                   for k in range(1, 2 * i)])
    if n % 2 == 0:
        for j in range(1, n // 2 + 1):
            g["E%d" % (n // 2 + j)] = _msum(
                dim, [(n + 2 - k, n + 2 * j - 1 + k, (-1) ** (k + 1))
                      for k in range(1, n + 3 - 2 * j)])
    else:
        for j in range(1, (n - 1) // 2 + 1):
            g["E%d" % ((n + 1) // 2 + j)] = _msum(
                dim, [(n + 2 - k, n + 2 * j + k, (-1) ** k)
                      for k in range(1, n + 2 - 2 * j)])
    for i in range(1, 2 * n + 2):
        g["A%d" % i] = _unit(dim, dim, i)
    return g


# ---------------------------------------------------------------------------
# cached family/derivation access
# ---------------------------------------------------------------------------

# each member built once per (n, a, order); the callers omit the default
# order, so it is never a second key.
# 128 is the smallest power of two above the 112 members `verify-paper
# --nmax 16` builds, so that run evicts nothing.
@lru_cache(maxsize=128)
def _heis(n: int, a: Fraction, order: str = GROUPED) -> Algebra:
    return heisenberg_leibniz(n, jordan(a, n), order)


# ---------------------------------------------------------------------------
# check bookkeeping
# ---------------------------------------------------------------------------

class _Checks:
    """Collects expected-vs-actual comparisons for one claim instance."""

    def __init__(self):
        self.problems = []

    def eq(self, label: str, expected, actual):
        if expected != actual:
            self.problems.append("%s: expected %s, actual %s"
                                 % (label, expected, actual))

    def flat_eq(self, label: str, d: int, expected: SparseVec, actual: SparseVec):
        """:meth:`eq` on two flattened d x d matrices, printed by :func:`_fmt_flat`."""
        if expected != actual:
            self.eq(label, _fmt_flat(expected, d), _fmt_flat(actual, d))

    def true(self, label: str, cond: bool, detail: str = ""):
        if not cond:
            self.problems.append(label + ((": " + detail) if detail else ""))

    def spans_equal(self, label: str, expected: Optional[Subspace],
                    actual: Subspace):
        if expected is None:
            self.problems.append("%s: a stated generator is not in the "
                                 "computed algebra" % label)
        elif expected != actual:
            self.problems.append("%s: stated span %s != computed span %s"
                                 % (label, _fmt_sub(expected), _fmt_sub(actual)))

    def spans_algebra(self, label: str, mla: MatrixLieAlgebra, mats):
        """The flattened matrices ``mats`` span ``mla``: Der, Inn or AIDer,
        compared in its basis coordinates."""
        self.spans_equal(label, mla.coords_span(mats),
                         Subspace.full(mla.dim, mla.field))

    def levi(self, label: str, der: MatrixLieAlgebra, mats):
        """The span of ``mats`` is a verified Levi complement of ``der``."""
        span = der.coords_span(mats)
        if span is None:
            self.true("Levi generators lie in Der", False)
        else:
            res = verify_levi(der.structure, span)
            self.true(label, res.verified, str(res))

    def result(self, summary: str):
        if not self.problems:
            return (CONFIRMED, summary, summary)
        return (REFUTED, summary, "; ".join(self.problems))


def _fmt_flat(flat: SparseVec, d: int) -> str:
    """Sorted 1-based ``(row, col): value`` pairs, the convention of :func:`_msum`."""
    return "{%s}" % ", ".join("(%d, %d): %s" % (i // d + 1, i % d + 1, format_scalar(v))
                              for i, v in sorted(flat.items()))


def _fmt_sub(s: Subspace) -> str:
    return "{" + "; ".join(format_vector(row) for row in s.basis) + "}"


def _named_span(der: MatrixLieAlgebra, gens: dict, names) -> Optional[Subspace]:
    return der.coords_span([gens[nm] for nm in names])


def _comm_table_ok(ck: _Checks, d: int, gens: dict, expected: dict):
    """Verify the complete commutator table of the named d x d generators.

    ``expected`` maps ordered name pairs to flats; unlisted pairs must
    commute.  Only one orientation per pair needs listing.
    """
    names = sorted(gens)
    ops = {nm: sparse_rows(m, d) for nm, m in gens.items()}
    for idx, p in enumerate(names):
        for q in names[idx + 1:]:
            m, sign = expected.get((p, q)), 1
            if m is None:
                m, sign = expected.get((q, p)), -1
            want = {} if m is None else _comb((sign, m))
            if sparse_commutator(ops[p], ops[q], d) != want:
                ck.problems.append("[%s,%s] differs from the stated table"
                                   % (p, q))


# ---------------------------------------------------------------------------
# claim checkers
# ---------------------------------------------------------------------------

def _check_h1(params, seed):
    n, a = params["n"], params["a"]
    der = der_algebra(_heis(n, a))
    ck = _Checks()
    ck.eq("dim Der", 3 * n + 1, der.dim)
    return ck.result("dim Der = 3n+1 = %d" % (3 * n + 1))


def _check_h2(params, seed):
    n, a = params["n"], params["a"]
    der = der_algebra(_heis(n, a))
    gens = heis_grouped_gens(n)
    ck = _Checks()
    for nm, m in gens.items():
        ck.true("%s is a derivation" % nm, der.subspace.contains(m))
    ck.spans_algebra("named basis spans Der", der, gens.values())
    expected = {}
    for i in range(1, n + 1):
        expected[("x", "B%d" % i)] = gens["B%d" % i]
        expected[("y", "A%d" % i)] = gens["A%d" % i]
    for i in range(1, n):
        for k in range(i + 1, n + 1):
            expected[("E%d" % i, "B%d" % k)] = gens["B%d" % (k - i)]
        for k in range(1, n - i + 1):
            expected[("E%d" % i, "A%d" % k)] = _comb((-1, gens["A%d" % (i + k)]))
    _comm_table_ok(ck, 2 * n + 1, gens, expected)
    return ck.result("named basis spans Der and the bracket table matches")


def _check_h3(params, seed):
    n, a = params["n"], params["a"]
    der = der_algebra(_heis(n, a))
    gens = heis_grouped_gens(n)
    derived = der.structure.commutator_ideal
    ck = _Checks()
    ck.eq("dim [Der,Der]", 2 * n, derived.dim)
    ck.eq("[Der,Der] abelian", 0,
          der.structure.product_space(derived, derived).dim)
    ck.spans_equal("[Der,Der] = <A,B>", _named_span(der, gens, _ab(n)), derived)
    return ck.result("commutator ideal abelian of dimension 2n = %d" % (2 * n))


def _check_h4(params, seed):
    n, a = params["n"], params["a"]
    der = der_algebra(_heis(n, a))
    gens = heis_grouped_gens(n)
    ck = _Checks()
    nilp, _ = der.structure.is_nilpotent()
    ck.true("Der not nilpotent", not nilp)
    nil = nilradical(der.structure)
    ck.eq("dim nilradical", 3 * n - 1, nil.dim)
    names = _seq("E", 1, n - 1) + _ab(n)
    ck.spans_equal("nilradical = <E,A,B>", _named_span(der, gens, names), nil)
    return ck.result("not nilpotent; nilradical <E,A,B> of dim 3n-1 = %d"
                     % (3 * n - 1))


def _check_h5(params, seed):
    n, a = params["n"], params["a"]
    der = der_algebra(_heis(n, a))
    ck = _Checks()
    ck.eq("dim Z(Der)", 0, der.structure.centers()[2].dim)
    return ck.result("Z(Der) = 0")


def _check_h6(params, seed):
    n, a = params["n"], params["a"]
    alg = _heis(n, a)
    inn = inner_derivations(alg)
    gens = heis_grouped_gens(n)
    ck = _Checks()
    if a == 1:
        h, k = 2, n
    elif a == -1:
        h, k = 1, n - 1
    else:
        h, k = 1, n
    names = _seq("A", h, n) + _seq("B", 1, k)
    ck.eq("dim Inn", len(names), inn.dim)
    ck.spans_algebra("Inn = <A_h..A_n, B_1..B_k>", inn,
                     [gens[nm] for nm in names])
    # stated left multiplications times c = int_scale; B_0 = A_(n+1) = 0
    d, lops, c = alg.dim, alg.int_ops[0], alg.int_scale
    for i in range(1, n + 1):
        want = _comb((c + c * a, gens["B%d" % i]), (c, gens.get("B%d" % (i - 1), {})))
        ck.flat_eq("ad_e%d" % i, d, want, sparse_flat(lops[i - 1], d))
    for j in range(1, n + 1):
        want = _comb((c * a - c, gens["A%d" % j]), (c, gens.get("A%d" % (j + 1), {})))
        ck.flat_eq("ad_f%d" % j, d, want, sparse_flat(lops[n + j - 1], d))
    return ck.result("Inn has the stated span (h=%d, k=%d; dim %d)"
                     % (h, k, len(names)))


def _check_h7(params, seed):
    n, a = params["n"], params["a"]
    aid = almost_inner_genus1(_heis(n, a))
    gens = heis_grouped_gens(n)
    ck = _Checks()
    ck.eq("dim AIDer", 2 * n, aid.dim)
    ck.spans_algebra("AIDer = <A,B>", aid, [gens[nm] for nm in _ab(n)])
    return ck.result("AIDer = <A,B> of dim 2n = %d for this a" % (2 * n))


def _check_h8(params, seed):
    n, a = params["n"], params["a"]
    d_h = der_algebra(heisenberg_lie(n)).subspace
    d_j0 = der_algebra(_heis(n, Fraction(0))).subspace
    d_ja = der_algebra(_heis(n, a)).subspace
    ck = _Checks()
    ck.true("Der(heisenberg-lie) contains Der(J_0)", d_h.contains(d_j0))
    ck.true("Der(J_0) contains Der(J_a)", d_j0.contains(d_ja))
    return ck.result("derivation algebras nest: lie >= J_0 >= J_a")


def _check_z1(params, seed):
    n = params["n"]
    der = der_algebra(_heis(n, Fraction(0), INTERLEAVED))
    ck = _Checks()
    ck.eq("dim Der", 4 * n + 1, der.dim)
    return ck.result("dim Der = 4n+1 = %d (n even)" % (4 * n + 1))


def _check_z2(params, seed):
    n = params["n"]
    der = der_algebra(_heis(n, Fraction(0), INTERLEAVED))
    ck = _Checks()
    ck.eq("dim Der", 4 * n + 2, der.dim)
    return ck.result("dim Der = 4n+2 = %d (n odd)" % (4 * n + 2))


def _check_z3(params, seed):
    n = params["n"]
    der = der_algebra(_heis(n, Fraction(0), INTERLEAVED))
    gens = j0_gens(n)
    ck = _Checks()
    solv, cls = der.structure.is_solvable()
    ck.true("Der solvable", solv)
    ck.eq("solvable class", n // 2 + 1, cls)
    nil = nilradical(der.structure)
    names = (_seq("E", 1, n - 1) + _seq("c", 2, n, 2)
             + _seq("b", n + 2, 2 * n, 2) + _ab(n))
    ck.eq("dim nilradical", 4 * n - 1, nil.dim)
    ck.spans_equal("nilradical = <E,c,b,A,B>", _named_span(der, gens, names), nil)
    return ck.result("solvable of class n/2+1 = %d with the stated nilradical"
                     % (n // 2 + 1))


def _check_z4(params, seed):
    n = params["n"]
    der = der_algebra(_heis(n, Fraction(0), INTERLEAVED))
    gens = j0_gens(n)
    struct = der.structure
    ck = _Checks()
    solv, _ = struct.is_solvable()
    ck.true("Der not solvable", not solv)
    ck.levi("Levi complement verified", der, [
        _comb((1, gens["x"]), (-1, gens["y"])),
        gens["c%d" % (n + 1)], gens["b%d" % (n + 1)]])
    rad_names = (_seq("E", 1, n - 1) + _seq("c", 2, n - 1, 2)
                 + _seq("b", n + 3, 2 * n, 2) + _ab(n))
    rad = radical(struct)
    xplusy = _comb((1, gens["x"]), (1, gens["y"]))
    rad_span = der.coords_span([xplusy] + [gens[nm] for nm in rad_names])
    ck.spans_equal("radical = <x+y,E,c,b,A,B>", rad_span, rad)
    nil = nilradical(struct)
    nil_span = _named_span(der, gens, rad_names)
    ck.spans_equal("nilradical = radical minus <x+y>", nil_span, nil)
    ck.eq("dim nilradical", 4 * n - 2, nil.dim)
    # flagged misprint probe: the stated sign of [B_i, b_k] for odd n
    d = 2 * n + 1
    for i in range(1, n + 1):
        for k in range(n + 1, 2 * n + 1, 2):
            if 1 <= k - i <= n and ("b%d" % k) in gens:
                got = sparse_commutator(sparse_rows(gens["B%d" % i], d),
                                        sparse_rows(gens["b%d" % k], d), d)
                want = _comb(((-1) ** (i + 1), gens["A%d" % (k - i)]))
                if got != want:
                    return (DISCREPANCY,
                            "[B_i,b_k] = (-1)^(i+1) A_(k-i) as stated",
                            "[B%d,b%d] computes to the opposite sign" % (i, k))
    return ck.result("non-solvable; stated Levi/radical/nilradical verified")


def _check_z5(params, seed):
    n = params["n"]
    inn = inner_derivations(_heis(n, Fraction(0), INTERLEAVED))
    gens = j0_gens(n)
    ck = _Checks()
    ck.eq("dim Inn", 2 * n, inn.dim)
    ck.eq("Inn abelian", 0, inn.structure.commutator_ideal.dim)
    ck.spans_algebra("Inn = <A,B>", inn, [gens[nm] for nm in _ab(n)])
    return ck.result("Inn abelian of dimension 2n = %d" % (2 * n))


def _check_r1(params, seed):
    a = params["a"]
    alg = realify_heisenberg(1, GaussRat(a, 1), INTERLEAVED)
    der = der_algebra(alg)
    gens = l5r_gens()
    ck = _Checks()
    ck.eq("dim Der", 7, der.dim)
    ck.spans_algebra("Der = <x,y,E,A,B>", der,
                     [gens[nm] for nm in ["x", "y", "E"] + _ab(2)])
    inn = inner_derivations(alg)
    ab = [gens[nm] for nm in _ab(2)]
    ck.spans_algebra("Inn = <A,B>", inn, ab)
    nil = nilradical(der.structure)
    ck.spans_equal("nilradical = <A,B>", der.coords_span(ab), nil)
    ck.eq("dim Z(Der)", 0, der.structure.centers()[2].dim)
    return ck.result("dim Der = 7; Inn = nilradical = <A,B>")


def _check_r2(params, seed):
    alg = realify_heisenberg(1, GaussRat(0, 1), INTERLEAVED)
    der = der_algebra(alg)
    gens = l5r_gens()
    struct = der.structure
    ck = _Checks()
    ck.eq("dim Der", 9, der.dim)
    rad = radical(struct)
    ab = [gens[nm] for nm in _ab(2)]
    rad_span = der.coords_span([_comb((1, gens["x"]), (1, gens["y"])), gens["E"]] + ab)
    ck.spans_equal("radical = <x+y,E,A,B>", rad_span, rad)
    ck.levi("Levi <x-y,F,G> verified", der,
            [_comb((1, gens["x"]), (-1, gens["y"])), gens["F"], gens["G"]])
    nil = nilradical(struct)
    ck.spans_equal("nilradical = <A,B>", der.coords_span(ab), nil)
    ck.eq("nilradical abelian", 0, struct.product_space(nil, nil).dim)
    inn = inner_derivations(alg)
    ck.spans_algebra("Inn = nilradical", inn, ab)
    return ck.result("dim Der = 9 with the stated radical, Levi and nilradical")


def _check_r3(params, seed):
    complex_alg = heisenberg_leibniz(1, jordan(GaussRat(0, 1), 1), GROUPED)
    real_alg = realify_heisenberg(1, GaussRat(0, 1), INTERLEAVED)
    der3 = der_algebra(complex_alg).subspace
    der5 = der_algebra(real_alg).subspace
    rng = Random(seed)
    ck = _Checks()

    def rand_q():
        return Fraction(rng.randint(-3, 3), rng.choice((1, 2)))

    def rand_qi():
        return GaussRat(rand_q(), rand_q())

    def build(alpha, beta, mu, nu):
        # the flat of [[alpha, 0, 0], [0, beta, 0], [mu, nu, alpha + beta]]
        return {k: v for k, v in ((0, alpha), (4, beta), (6, mu), (7, nu),
                                  (8, alpha + beta)) if v}

    for t in range(50):
        if t % 2 == 0:
            alpha = beta = GaussRat(rand_q())
        else:
            alpha, beta = rand_qi(), rand_qi()
        d3 = build(alpha, beta, rand_qi(), rand_qi())
        ck.true("sample %d is a derivation" % t, der3.contains(d3))
        real = realify_derivation(d3, 3)
        member = real is not None and der5.contains(real)
        expected = (alpha == beta) and not alpha.im
        if member != expected:
            ck.problems.append(
                "sample %d: alpha=%s beta=%s, realification %s the real "
                "derivation algebra" % (t, format_scalar(alpha),
                                        format_scalar(beta),
                                        "enters" if member else "misses"))
    # the subfamily alpha = beta real spans the stated matrices
    fam = [build(GaussRat(1), GaussRat(1), GaussRat(), GaussRat()),
           build(GaussRat(), GaussRat(), GaussRat(1), GaussRat()),
           build(GaussRat(), GaussRat(), GaussRat(0, 1), GaussRat()),
           build(GaussRat(), GaussRat(), GaussRat(), GaussRat(1)),
           build(GaussRat(), GaussRat(), GaussRat(), GaussRat(0, 1))]
    real_fam = [realify_derivation(d, 3) for d in fam]
    ck.true("family realifies", all(r is not None for r in real_fam))
    real_fam = [r for r in real_fam if r is not None]
    gens = l5r_gens()
    scaled = _msum(5, [(1, 1, 1), (2, 2, 1), (3, 3, 1), (4, 4, 1), (5, 5, 2)])
    want = Subspace.span([scaled] + [gens[nm] for nm in _ab(2)], 25, Q)
    got = Subspace.span(real_fam, 25, Q)
    ck.spans_equal("iff-family span", want, got)
    ck.true("iff-family inside Der", all(der5.contains(r) for r in real_fam))
    return ck.result("realification enters Der iff alpha = beta real; "
                     "the family matches the corner-2a matrices")


def _check_k1(params, seed):
    n = params["n"]
    der = der_algebra(kronecker(n, INTERLEAVED))
    ck = _Checks()
    ck.eq("dim Der", 4 * n, der.dim)
    return ck.result("dim Der = 4n = %d (n odd)" % (4 * n))


def _check_k2(params, seed):
    n = params["n"]
    der = der_algebra(kronecker(n, INTERLEAVED))
    gens = kron_gens(n)
    ck = _Checks()
    ck.eq("dim Der", 4 * n + 1, der.dim)
    ck.spans_algebra("named basis spans Der", der, gens.values())
    return ck.result("dim Der = 4n+1 = %d (n even, counted basis)" % (4 * n + 1))


def _check_k3(params, seed):
    n = params["n"]
    der = der_algebra(kronecker(n, INTERLEAVED))
    gens = kron_gens(n)
    ck = _Checks()
    ck.levi("Levi complement verified", der, [
        _comb((1, gens["x"]), (-1, gens["y"])),
        gens["c%d" % (n + 1)], gens["b%d" % (n + 1)]])
    return ck.result("Levi complement <x-y, c_(n+1), b_(n+1)> verified")


def _check_k4(params, seed):
    n = params["n"]
    der = der_algebra(kronecker(n, INTERLEAVED))
    gens = kron_gens(n)
    struct = der.structure
    ck = _Checks()
    solv, cls = struct.is_solvable()
    ck.true("Der solvable", solv)
    ck.eq("solvable class", (n + 1) // 2 + 1, cls)
    names = (_seq("E", 1, n - 1) + _seq("c", 3, n, 2)
             + _seq("b", n + 2, 2 * n - 1, 2) + _ab(n))
    nil = nilradical(struct)
    ck.spans_equal("nilradical = <E,c,b,A,B>", _named_span(der, gens, names), nil)
    return ck.result("solvable of class (n+1)/2+1 = %d with stated nilradical"
                     % ((n + 1) // 2 + 1))


def _check_k5(params, seed):
    n = params["n"]
    alg = kronecker(n, INTERLEAVED)
    inn = inner_derivations(alg)
    gens = kron_gens(n)
    ck = _Checks()
    ck.eq("dim Inn", 2 * n, inn.dim)
    ck.eq("Inn abelian", 0, inn.structure.commutator_ideal.dim)
    ck.spans_algebra("Inn = <A,B>", inn, [gens[nm] for nm in _ab(n)])
    d, lops, c = alg.dim, alg.int_ops[0], alg.int_scale  # B_0 = A_(n+1) = 0
    for i in range(1, n + 1):
        want = _comb((c, gens["B%d" % i]), (c, gens.get("B%d" % (i - 1), {})))
        ck.flat_eq("ad_e%d = B_(i-1)+B_i" % i, d, want,
                   sparse_flat(lops[2 * i - 2], d))
        want = _comb((c, gens["A%d" % i]), (-c, gens.get("A%d" % (i + 1), {})))
        ck.flat_eq("ad_f%d = A_i - A_(i+1)" % i, d, want,
                   sparse_flat(lops[2 * i - 1], d))
    return ck.result("Inn = <A,B> isomorphic to F^2n via the left multiplications")


def _check_k6(params, seed):
    n, a = params["n"], params["a"]
    d_j0 = der_algebra(_heis(n, Fraction(0))).subspace
    d_k = der_algebra(kronecker(n, GROUPED)).subspace
    d_ja = der_algebra(_heis(n, a)).subspace
    ck = _Checks()
    ck.spans_equal("Der(J_0) meet Der(kronecker) = Der(J_a)",
                   d_ja, d_j0.intersect(d_k))
    return ck.result("Der(J_0) meet Der(kronecker) equals Der(J_a)")


def _check_d1(params, seed):
    n = params["n"]
    der = der_algebra(dieudonne(n))
    gens = dieu_gens(n)
    ck = _Checks()
    ck.eq("dim Der", 3 * n + 3, der.dim)
    for nm, m in gens.items():
        ck.true("%s is a derivation" % nm, der.subspace.contains(m))
    ck.spans_algebra("named basis spans Der", der, gens.values())
    if ck.problems:
        return ck.result("dim Der = 3n+3 = %d with the stated basis" % (3 * n + 3))
    # bracket table; the [x,E_i] = [E_i,y] = E_i reading is a flagged misprint probe
    expected = {}
    for i in range(1, n + 1):
        expected[("x", "E%d" % i)] = gens["E%d" % i]
        expected[("E%d" % i, "y")] = gens["E%d" % i]
    for h in range(1, n + 2):
        expected[("y", "A%d" % h)] = gens["A%d" % h]
    for k in range(n + 2, 2 * n + 2):
        expected[("x", "A%d" % k)] = gens["A%d" % k]
    dim = 2 * n + 2
    for i in range(1, n + 2):
        for k in range(1, n + 1):
            row = sorted((c % dim, v) for c, v in gens["E%d" % k].items()
                         if c // dim == i - 1)
            if not row:
                continue
            if len(row) != 1 or abs(row[0][1]) != 1 or not (n + 1 <= row[0][0] <= 2 * n):
                ck.problems.append("E%d row %d is not a single +-1 unit" % (k, i))
                continue
            c, eps = row[0]
            expected[("A%d" % i, "E%d" % k)] = _comb((eps, gens["A%d" % (c + 1)]))
    flagged = _Checks()
    _comm_table_ok(flagged, dim, gens, expected)
    if flagged.problems:
        return (DISCREPANCY, "bracket table with [x,E_i] = [E_i,y] = E_i",
                "; ".join(flagged.problems))
    return ck.result("dim Der = 3n+3 = %d; stated basis and bracket table hold"
                     % (3 * n + 3))


def _check_d2(params, seed):
    n = params["n"]
    struct = der_algebra(dieudonne(n)).structure
    ck = _Checks()
    solv, cls = struct.is_solvable()
    ck.true("Der solvable", solv)
    ck.eq("solvable class", 3, cls)
    dims = tuple(t.dim for t in struct.series("derived"))
    ck.eq("derived series dims", (3 * n + 3, 3 * n + 1, n, 0), dims)
    return ck.result("three-step solvable with derived dims (3n+3, 3n+1, n, 0)")


def _check_d3(params, seed):
    n = params["n"]
    struct = der_algebra(dieudonne(n)).structure
    ck = _Checks()
    ck.spans_equal("nilradical = commutator ideal", struct.commutator_ideal,
                   nilradical(struct))
    return ck.result("nilradical coincides with the commutator ideal")


def _check_d4(params, seed):
    n = params["n"]
    alg = dieudonne(n)
    inn = inner_derivations(alg)
    gens = dieu_gens(n)
    ck = _Checks()
    ck.eq("dim Inn", 2 * n, inn.dim)
    cons = [_comb((1, gens["A%d" % k]), (-1, gens["A%d" % (k + 1)]))
            for k in range(1, n + 1)]
    cons += [gens["A%d" % j] for j in range(n + 2, 2 * n + 2)]
    ck.spans_algebra("Inn = {sum of mu over the first n+1 columns is zero}",
                     inn, cons)
    probe = gens["A%d" % (n + 1)]
    ck.true("mu_(n+1) probe is a derivation",
            der_algebra(alg).subspace.contains(probe))
    ck.true("mu_(n+1) probe is almost inner",
            almost_inner_genus1(alg).subspace.contains(probe))
    ck.true("mu_(n+1) probe is not inner", not inn.subspace.contains(probe))
    return ck.result("Inn is the constrained bottom-row family of dim 2n; "
                     "the mu_(n+1) unit is almost inner but not inner")


def _check_d5(params, seed):
    n = params["n"]
    der = der_algebra(dieudonne(n))
    gens = dieu_gens(n)
    ck = _Checks()
    ck.spans_algebra("worked basis spans Der", der, gens.values())
    if n == 1:
        ck.eq("dim Der", 6, der.dim)
        e, a1, a2, a3 = gens["E1"], gens["A1"], gens["A2"], gens["A3"]
        table = {("x", "E1"): e, ("E1", "y"): e, ("x", "A3"): a3,
                 ("y", "A1"): a1, ("y", "A2"): a2, ("A1", "E1"): a3}
        _comm_table_ok(ck, 4, gens, table)
        return ck.result("the six-dimensional worked example matches")
    if n == 2:
        ck.eq("dim Der", 9, der.dim)
        names = _seq("E", 1, 2) + _seq("A", 1, 5)
        ck.spans_equal("commutator ideal shape", _named_span(der, gens, names),
                       der.structure.commutator_ideal)
        return ck.result("the nine-dimensional worked example matches")
    # n == 3: the stated dimension 9 disagrees with the formula value 12
    if ck.problems:
        return ck.result("worked example at n=3")
    if der.dim != 9:
        return (DISCREPANCY, "dimension 9 as stated in the worked example",
                "computed dim Der = %d (= 3n+3)" % der.dim)
    return ck.result("worked example at n=3")


def _check_p1(params, seed):
    order = INTERLEAVED if params["family"] == "realify-heisenberg" else GROUPED
    alg = FamilySpec(**params, order=order).build()
    ck = _Checks()
    aid = almost_inner_genus1(alg)
    inn = inner_derivations(alg)
    ck.spans_equal("AIDer = Inn", inn.subspace, aid.subspace)
    return ck.result("every almost inner derivation is inner here")


def _check_p2(params, seed):
    alg = FamilySpec(**params).build()
    ck = _Checks()
    aid = almost_inner_genus1(alg)
    inn = inner_derivations(alg)
    ck.true("Inn inside AIDer", aid.subspace.contains(inn.subspace))
    ck.eq("codimension of Inn in AIDer", 1, aid.dim - inn.dim)
    return ck.result("AIDer strictly contains Inn with codimension one")

# ---------------------------------------------------------------------------
# claim domains and registry
# ---------------------------------------------------------------------------

def _ns(nmax, parity=None):
    return [n for n in range(1, nmax + 1)
            if parity in (None, "odd" if n % 2 else "even")]


def _dom_na(nonzero=False):
    def dom(nmax, a_values):
        avs = [a for a in a_values if not (nonzero and a == 0)]
        return [{"n": n, "a": a} for n in _ns(nmax) for a in avs]
    return dom


def _dom_n(parity=None, cap=None):
    def dom(nmax, a_values):
        top = min(nmax, cap) if cap else nmax
        return [{"n": n} for n in _ns(top, parity)]
    return dom


def _dom_fixed(*param_sets):
    def dom(nmax, a_values):
        return [dict(p) for p in param_sets if p.get("n", 1) <= nmax]
    return dom


def _dom_r1(nmax, a_values):
    return [{"a": a} for a in a_values if a != 0]


def _dom_p1(nmax, a_values):
    out = []
    for n in _ns(nmax):
        for a in a_values:
            if a not in (1, -1):
                out.append({"family": "heisenberg", "n": n, "a": a})
        out.append({"family": "heisenberg-lie", "n": n})
        out.append({"family": "kronecker", "n": n})
    out.append({"family": "realify-heisenberg", "n": 1, "a": Fraction(0)})
    out.append({"family": "realify-heisenberg", "n": 1, "a": Fraction(2)})
    return out


def _dom_p2(nmax, a_values):
    out = []
    for n in _ns(nmax):
        for a in (Fraction(1), Fraction(-1)):
            out.append({"family": "heisenberg", "n": n, "a": a})
        out.append({"family": "dieudonne", "n": n})
    return out


def registry() -> tuple:
    return (
        Claim("H1", "generic Jordan-parameter derivation dimension",
              "dim Der = 3n+1 for a nonzero parameter",
              _dom_na(nonzero=True), _check_h1),
        Claim("H2", "generic Jordan-parameter derivation basis",
              "the named matrices x, y, E_i, A_i, B_i span Der and satisfy "
              "the stated bracket table",
              _dom_na(nonzero=True), _check_h2),
        Claim("H3", "generic commutator ideal",
              "[Der,Der] is abelian of dimension 2n, spanned by A and B",
              _dom_na(nonzero=True), _check_h3),
        Claim("H4", "generic nilradical",
              "Der is not nilpotent; the nilradical is <E,A,B> of dim 3n-1",
              _dom_na(nonzero=True), _check_h4),
        Claim("H5", "generic center of Der",
              "Z(Der) is trivial", _dom_na(nonzero=True), _check_h5),
        Claim("H6", "inner derivations of the Jordan-parameter family",
              "dim Inn = 2n off a = +-1 and 2n-1 at a = +-1, with the "
              "stated generator pattern and left-multiplication formulas",
              _dom_na(nonzero=True), _check_h6),
        Claim("H7", "almost inner derivations of the Jordan-parameter family",
              "AIDer = <A,B> of dimension 2n for every tested a",
              _dom_na(), _check_h7),
        Claim("H8", "derivation algebra containments",
              "Der(heisenberg-lie) contains Der(J_0) contains Der(J_a)",
              _dom_na(nonzero=True), _check_h8),
        Claim("Z1", "zero-parameter dimension, n even",
              "dim Der = 4n+1", _dom_n("even"), _check_z1),
        Claim("Z2", "zero-parameter dimension, n odd",
              "dim Der = 4n+2", _dom_n("odd"), _check_z2),
        Claim("Z3", "zero-parameter solvability, n even",
              "Der is solvable of class n/2+1 with the stated nilradical",
              _dom_n("even"), _check_z3),
        Claim("Z4", "zero-parameter structure, n odd",
              "Der is not solvable; <x-y, c_(n+1), b_(n+1)> is a Levi "
              "complement and the stated radical/nilradical hold",
              _dom_n("odd"), _check_z4, typo_flagged=True),
        Claim("Z5", "zero-parameter inner derivations",
              "Inn is abelian of dimension 2n", _dom_n(), _check_z5),
        Claim("R1", "realified family, nonzero real part",
              "dim Der = 7 with generators <x,y,E,A,B>; Inn = nilradical = <A,B>",
              _dom_r1, _check_r1),
        Claim("R2", "realified family, zero real part",
              "dim Der = 9; radical <x+y,E,A,B>, Levi <x-y,F,G>, nilradical "
              "<A,B> abelian of dim 4", _dom_fixed({"n": 1}), _check_r2),
        Claim("R3", "realified derivations of the complex algebra",
              "the realification of a complex derivation lies in the real "
              "derivation algebra iff alpha = beta real; the family matches "
              "the corner-2a matrices", _dom_fixed({"n": 1}), _check_r3),
        Claim("K1", "Kronecker dimension, n odd",
              "dim Der = 4n", _dom_n("odd"), _check_k1),
        Claim("K2", "Kronecker dimension, n even",
              "dim Der = 4n+1 (count of the listed basis)",
              _dom_n("even"), _check_k2),
        Claim("K3", "Kronecker Levi complement, n even",
              "<x-y, c_(n+1), b_(n+1)> is a verified Levi complement",
              _dom_n("even"), _check_k3),
        Claim("K4", "Kronecker solvability, n odd",
              "solvable of class (n+1)/2+1 with the stated nilradical",
              _dom_n("odd"), _check_k4),
        Claim("K5", "Kronecker inner derivations",
              "Inn = <A,B> of dimension 2n via the left multiplications",
              _dom_n(), _check_k5),
        Claim("K6", "derivation-algebra intersection",
              "Der(J_0) meet Der(kronecker) equals Der(J_a)",
              _dom_na(nonzero=True), _check_k6),
        Claim("D1", "Dieudonne derivation dimension and basis",
              "dim Der = 3n+3 with the stated basis and bracket table",
              _dom_n(), _check_d1, typo_flagged=True),
        Claim("D2", "Dieudonne solvability",
              "three-step solvable with derived dims (3n+3, 3n+1, n, 0)",
              _dom_n(), _check_d2),
        Claim("D3", "Dieudonne nilradical",
              "the nilradical coincides with the commutator ideal",
              _dom_n(), _check_d3),
        Claim("D4", "Dieudonne inner derivations",
              "dim Inn = 2n with the zero-sum constraint; the mu_(n+1) unit "
              "is almost inner but not inner", _dom_n(), _check_d4),
        Claim("D5", "Dieudonne worked examples",
              "the n = 1, 2, 3 worked examples match (the n = 3 stated "
              "dimension is a flagged misprint)",
              _dom_n(cap=3), _check_d5, typo_flagged=True),
        Claim("P1", "almost inner = inner off the exceptional families",
              "AIDer = Inn for genus-1 members other than a = +-1 and the "
              "Dieudonne family", _dom_p1, _check_p1),
        Claim("P2", "strict almost inner inclusions",
              "AIDer strictly contains Inn with codimension 1 at a = +-1 "
              "and for the Dieudonne family", _dom_p2, _check_p2),
    )
