from fractions import Fraction as F
from random import Random

import pytest

from derleib import liestruct
from derleib.algebra import Algebra
from derleib.catalog import (
    INTERLEAVED,
    dieudonne,
    heisenberg_leibniz,
    heisenberg_lie,
    jordan,
    kronecker,
    realify_heisenberg,
)
from derleib.derivations import MatrixLieAlgebra, der_algebra
from derleib.exactlin import (
    GaussRat,
    InternalInvariantError,
    Q,
    QI,
    Subspace,
    sparse_rows,
)
from derleib.liestruct import (
    NotLie,
    killing,
    nilradical,
    radical,
    verify_levi,
)
from helpers import (
    abelian,
    ad_nilpotent,
    basis_vector,
    bilinear,
    dense_basis,
    entry,
    is_semisimple,
    is_zero,
    killing_gram,
    kron_gens,
    l5r_gens,
    mat,
    naive_bracket,
    naive_gram,
    naive_nilradical,
    naive_radical,
    nullspace,
    random_small_algebra,
    random_solvable_lie,
    random_vector,
    to_mat,
)


def two_dim_solvable():
    # [t, x] = x
    return Algebra.from_brackets(Q, ["t", "x"],
                                 {(0, 1): [(1, 1)], (1, 0): [(1, -1)]})


def rotation_swap_counterexample():
    """Five-dimensional solvable Lie algebra whose Killing form vanishes
    identically: t acts on <x1,x2> by a rotation (eigenvalues +-i) and on
    <x3,x4> by a swap (eigenvalues +-1), so trace(ad_t^2) = 0.  The naive
    Killing-orthogonal shortcut would return everything; the nilradical is
    <x1..x4>."""
    br = {}

    def add(i, j, k, cf):
        br.setdefault((i, j), []).append((k, F(cf)))

    add(0, 1, 2, -1)
    add(1, 0, 2, 1)
    add(0, 2, 1, 1)
    add(2, 0, 1, -1)
    add(0, 3, 4, 1)
    add(3, 0, 4, -1)
    add(0, 4, 3, 1)
    add(4, 0, 3, -1)
    return Algebra.from_brackets(Q, ["t", "x1", "x2", "x3", "x4"], br)


class TestKilling:
    def test_abelian_zero_form(self):
        g = abelian(3)
        assert is_zero(killing_gram(g)) and killing(g) == {}

    def test_two_dim_solvable(self):
        assert killing_gram(two_dim_solvable()) == mat([[1, 0], [0, 0]])

    def test_invariance_on_basis_triples(self):
        g = der_algebra(dieudonne(1)).structure
        gram = killing_gram(g)
        e = [basis_vector(g, i) for i in range(g.dim)]
        for x in e:
            for y in e:
                for z in e:
                    lhs = bilinear(gram, naive_bracket(g, x, y), z)
                    rhs = bilinear(gram, x, naive_bracket(g, y, z))
                    assert lhs == rhs

    def test_requires_lie(self):
        with pytest.raises(NotLie):
            killing(kronecker(2))


class TestRadical:
    def test_solvable_radical_is_everything(self):
        g = der_algebra(dieudonne(2)).structure
        assert radical(g).dim == g.dim

    def test_kronecker_even_radical(self):
        g = der_algebra(kronecker(2, INTERLEAVED)).structure
        assert radical(g).dim == 6  # 9 minus the three-dimensional Levi part

    def test_realified_zero_case(self):
        der = der_algebra(realify_heisenberg(1, GaussRat(0, 1), INTERLEAVED))
        rad = radical(der.structure)
        gens = l5r_gens()
        expected = der.coords_span([gens["x"] + gens["y"], gens["E"],
                                    gens["A1"], gens["A2"],
                                    gens["B1"], gens["B2"]])
        assert rad == expected


class TestNilradical:
    def test_nilpotent_algebra(self):
        g = heisenberg_lie(2)
        assert nilradical(g).dim == g.dim

    def test_generic_heisenberg_derivations(self):
        g = der_algebra(heisenberg_leibniz(2, jordan(F(2), 2))).structure
        assert nilradical(g).dim == 5  # 3n - 1 at n = 2

    def test_dieudonne_nilradical_is_commutator_ideal(self):
        for n in (1, 2):
            g = der_algebra(dieudonne(n)).structure
            derived = g.product_space(g.full_space(), g.full_space())
            assert nilradical(g) == derived

    def test_rotation_swap_regression(self):
        g = rotation_swap_counterexample()
        assert g.kind.lie
        assert is_zero(killing_gram(g))  # Killing-orthogonal would be all of g
        nil = nilradical(g)
        assert nil.dim == 4
        assert not nil.contains(tuple(F(x) for x in (1, 0, 0, 0, 0)))

    def test_contained_in_radical_and_contains_derived(self):
        for g in (der_algebra(kronecker(3, INTERLEAVED)).structure,
                  der_algebra(heisenberg_leibniz(2, jordan(F(1), 2))).structure):
            nil = nilradical(g)
            rad = radical(g)
            assert rad.contains(nil)
            solvable, _ = g.is_solvable()
            if solvable:
                derived = g.product_space(g.full_space(), g.full_space())
                assert nil.contains(derived)

    def test_oracle_equivalence_on_random_solvables(self):
        rng = Random(101)
        for _ in range(6):
            g, expected_idx = random_solvable_lie(rng)
            nil = nilradical(g)
            expected = Subspace.span([basis_vector(g, i) for i in expected_idx],
                                     g.dim, Q)
            assert nil == expected
            for v in nil.basis:
                assert ad_nilpotent(g, v)
            if nil.dim == g.dim:
                continue
            found = 0
            while found < 8:
                v = random_vector(rng, g.dim)
                if nil.contains(v):
                    continue
                found += 1
                assert not ad_nilpotent(g, v)


def _over_qi(alg: Algebra) -> Algebra:
    return Algebra.from_brackets(QI, alg.labels, alg.table)


NILRADICAL_ORACLE_CASES = {
    "kronecker n=1 interleaved": lambda: kronecker(1, INTERLEAVED),
    "kronecker n=2 interleaved": lambda: kronecker(2, INTERLEAVED),
    "heisenberg-lie n=1": lambda: heisenberg_lie(1),
    "heisenberg-lie n=2": lambda: heisenberg_lie(2),
    "dieudonne n=1": lambda: dieudonne(1),
    "dieudonne n=2": lambda: dieudonne(2),
    "J_0 n=1 interleaved": lambda: heisenberg_leibniz(1, jordan(F(0), 1),
                                                      INTERLEAVED),
    "J_0 n=2 interleaved": lambda: heisenberg_leibniz(2, jordan(F(0), 2),
                                                      INTERLEAVED),
    "heisenberg n=2 a=1": lambda: heisenberg_leibniz(2, jordan(F(1), 2)),
    "heisenberg n=2 a=1+2i": lambda: heisenberg_leibniz(
        2, jordan(GaussRat(1, 2), 2)),
    "realify n=1 a=0 b=1": lambda: realify_heisenberg(1, GaussRat(0, 1)),
    "heisenberg-lie n=1 over Qi": lambda: _over_qi(heisenberg_lie(1)),
    "kronecker n=2 over Qi": lambda: _over_qi(kronecker(2)),
}


@pytest.mark.parametrize("case", sorted(NILRADICAL_ORACLE_CASES))
def test_nilradical_is_the_ad_nilpotent_part_of_the_radical(case):
    """Oracle (Jacobson, *Lie Algebras*, 1962): in characteristic 0 the
    nilradical is the set of ad-nilpotent elements of the radical."""
    g = der_algebra(NILRADICAL_ORACLE_CASES[case]()).structure
    nil, rad = nilradical(g), radical(g)
    assert rad.contains(nil)
    for v in nil.basis:
        assert ad_nilpotent(g, v)
    if nil == rad:
        return
    rng = Random(7)
    found = 0
    while found < 6:
        cfs = random_vector(rng, rad.dim)
        v = tuple(sum((cf * b[k] for cf, b in zip(cfs, rad.basis)), F(0))
                  for k in range(g.dim))
        if nil.contains(v):
            continue
        found += 1
        assert not ad_nilpotent(g, v)


def _naive_nilradical_cases():
    """Lie algebras on which the radical's envelope is checked against the
    envelope of all adjoints: the Der of the left Leibniz members of 50
    random small algebras and the Lie members themselves, the Der of every
    Jacobson oracle case, 30 random solvable algebras and the rotation-swap
    counterexample."""
    out = []
    for seed in range(50):
        alg = random_small_algebra(Random(seed))
        if alg.kind.left_leibniz:
            out.append(("random %d Der" % seed, der_algebra(alg).structure))
        if alg.kind.lie:
            out.append(("random %d" % seed, alg))
    for case in sorted(NILRADICAL_ORACLE_CASES):
        out.append((case + " Der",
                    der_algebra(NILRADICAL_ORACLE_CASES[case]()).structure))
    rng = Random(202)
    for k in range(30):
        out.append(("solvable %d" % k, random_solvable_lie(rng)[0]))
    out.append(("rotation-swap", rotation_swap_counterexample()))
    return out


NAIVE_NILRADICAL_CASES = _naive_nilradical_cases()


@pytest.mark.parametrize("case", NAIVE_NILRADICAL_CASES,
                         ids=[name for name, _ in NAIVE_NILRADICAL_CASES])
def test_nilradical_matches_naive_envelope(case):
    g = case[1]
    assert nilradical(g) == naive_nilradical(g)


@pytest.mark.parametrize("case", NAIVE_NILRADICAL_CASES,
                         ids=[name for name, _ in NAIVE_NILRADICAL_CASES])
def test_radical_matches_dense_killing_orthogonal(case):
    g = case[1]
    assert radical(g) == naive_radical(g)


def _scaled_qi(alg: Algebra) -> Algebra:
    """``alg`` with every structure constant times 1+2i: a Lie algebra over
    Q(i) whose Killing form is (1+2i)^2 times the original."""
    c = GaussRat(1, 2)
    return Algebra.from_brackets(QI, alg.labels, {
        key: [(k, c * cf) for k, cf in terms] for key, terms in alg.table.items()})


def _sl2_three_halves():
    """sl2 with every bracket times 3/2, plus a central c: [h, e] = 3e,
    [h, f] = -3f, [e, f] = 3/2 h.  Its ``int_table`` is twice its table, so
    the Killing traces of the int adjoints are divided by 4."""
    return Algebra.from_brackets(Q, ["h", "e", "f", "c"], {
        (0, 1): [(1, 3)], (1, 0): [(1, -3)], (0, 2): [(2, -3)], (2, 0): [(2, 3)],
        (1, 2): [(0, F(3, 2))], (2, 1): [(0, F(-3, 2))]})


def _killing_cases():
    """The catalog's Lie algebras, sl2 times 3/2 plus a centre, the Der
    structures and random Lie tables of the envelope oracle, and each of
    those over Q scaled into Q(i)."""
    out = [("heisenberg-lie n=%d" % n, heisenberg_lie(n)) for n in (1, 2, 3)]
    out.append(("heisenberg-lie n=2 interleaved", heisenberg_lie(2, INTERLEAVED)))
    out.append(("sl2 times 3/2 + centre", _sl2_three_halves()))
    out += NAIVE_NILRADICAL_CASES
    return out + [(name + " scaled over Qi", _scaled_qi(g))
                  for name, g in out if g.field == Q]


KILLING_CASES = _killing_cases()


@pytest.mark.parametrize("case", KILLING_CASES,
                         ids=[name for name, _ in KILLING_CASES])
def test_killing_gram_matches_dense_traces(case):
    """Every entry of the Gram matrix, below the diagonal too, against
    trace(ad_x ad_y) of the dense adjoint matrices."""
    g = case[1]
    assert killing_gram(g) == naive_gram(g)


def test_killing_and_radical_on_a_table_with_denominators():
    """The Gram matrix is summed on the int adjoints, twice the true ones
    here, and divided by 4 (``KILLING_CASES`` compares it with the dense
    traces): B(h, h) = 8 * (3/2)^2, B(e, f) = 4 * (3/2)^2, c in the kernel.
    The radical, the centre, against the dense Killing-orthogonal."""
    g = _sl2_three_halves()
    assert g.int_scale == 2
    gram = killing_gram(g)
    assert (entry(gram, 0, 0), entry(gram, 1, 2), entry(gram, 3, 3)) == (18, 9, 0)
    assert radical(g) == naive_radical(g) == Subspace.span([basis_vector(g, 3)], 4, Q)


def test_killing_cases_reach_both_fields_off_the_diagonal():
    """The cases above pin the entries below the diagonal: over Q and over
    Q(i) some Gram matrix has a nonzero entry there."""
    fields = set()
    for _, g in KILLING_CASES:
        gram = killing_gram(g)
        if any(entry(gram, s, t) for s in range(g.dim) for t in range(s)):
            fields.add(g.field)
    assert fields == {Q, QI}


def _sl2_triple():
    gens = kron_gens(2)
    return MatrixLieAlgebra.from_matrices(
        [to_mat(m, 5) for m in (gens["x"] - gens["y"], gens["c3"], gens["b3"])],
        5, Q).structure


class TestNilradicalEdges:
    def test_semisimple_has_zero_radical_and_nilradical(self):
        g = _sl2_triple()
        assert radical(g).is_zero()
        assert nilradical(g) == Subspace.zero(3) == naive_nilradical(g)

    def test_central_radical_element(self):
        # gl2 = sl2 + <c>: the radical is the centre, where ad_c = 0
        sl2 = _sl2_triple()
        g = Algebra.from_brackets(Q, sl2.labels + ("c",), sl2.table)
        centre = Subspace.span([basis_vector(g, 3)], 4, Q)
        assert radical(g) == centre
        assert nilradical(g) == centre == naive_nilradical(g)

    def test_central_and_non_nilpotent_radical(self):
        # [t, x] = x plus a central c: the radical is everything, and the
        # nilradical keeps both x and the central c
        g = Algebra.from_brackets(Q, ["t", "x", "c"],
                                  {(0, 1): [(1, 1)], (1, 0): [(1, -1)]})
        assert radical(g).dim == 3
        expected = Subspace.span([basis_vector(g, 1), basis_vector(g, 2)], 3, Q)
        assert nilradical(g) == expected == naive_nilradical(g)


def test_radical_self_check_still_runs(monkeypatch):
    """The quotient check no longer classifies the quotient, but still
    reads its Gram matrix: a zero Gram matrix there must be caught."""
    g = der_algebra(kronecker(2, INTERLEAVED)).structure
    killing(g)  # the form of g itself stays the real one
    quotients = []

    def zero_gram(alg):
        quotients.append(alg)
        return {}  # the sparse rows of the zero matrix

    monkeypatch.setattr(liestruct, "_gram", zero_gram)
    with pytest.raises(InternalInvariantError):
        radical.__wrapped__(g)
    assert [q.dim for q in quotients] == [g.dim - radical(g).dim]


class TestLevi:
    def test_solvable_with_zero_complement(self):
        g = der_algebra(dieudonne(1)).structure
        assert verify_levi(g, Subspace.zero(g.dim)).verified

    def test_realified_levi(self):
        der = der_algebra(realify_heisenberg(1, GaussRat(0, 1), INTERLEAVED))
        gens = l5r_gens()
        s = der.coords_span([gens["x"] - gens["y"], gens["F"], gens["G"]])
        res = verify_levi(der.structure, s)
        assert res.verified and str(res) == "verified"
        # a verified complement is perfect: [S,S] = S
        assert der.structure.product_space(s, s) == s

    def test_not_complement(self):
        der = der_algebra(heisenberg_leibniz(2, jordan(F(2), 2)))
        g = der.structure
        s = Subspace.span([basis_vector(g, 0)], g.dim, Q)
        res = verify_levi(g, s)
        assert not res.verified and res.reason == "not-complement"

    @pytest.mark.parametrize("field", [Q, QI])
    def test_not_complement_with_dimensions_that_add_up(self, field):
        # gl2 on h, e, f, c with [e, f] = h - c: the radical is the centre
        # <c>, so <h, e, c> is a subalgebra meeting it whose dimension is
        # dim L - dim rad, while <h - c, e, f> is a complement
        br = {(0, 1): [(1, 2)], (1, 0): [(1, -2)], (0, 2): [(2, -2)],
              (2, 0): [(2, 2)], (1, 2): [(0, 1), (3, -1)], (2, 1): [(0, -1), (3, 1)]}
        g = Algebra.from_brackets(field, ["h", "e", "f", "c"], br)
        assert radical(g) == Subspace.span([{3: 1}], 4, field)
        s = Subspace.span([{0: 1}, {1: 1}, {3: 1}], 4, field)
        assert str(verify_levi(g, s)) == "failed(not-complement)"
        levi = Subspace.span([{0: 1, 3: -1}, {1: 1}, {2: 1}], 4, field)
        assert str(verify_levi(g, levi)) == "verified"

    def test_not_subalgebra(self):
        der = der_algebra(realify_heisenberg(1, GaussRat(0, 1), INTERLEAVED))
        gens = l5r_gens()
        s = der.coords_span([gens["F"], gens["G"]])  # [F,G] = x - y escapes
        res = verify_levi(der.structure, s)
        assert not res.verified and res.reason == "not-subalgebra"

    def test_kronecker_even_levi_and_semisimple_part(self):
        der = der_algebra(kronecker(2, INTERLEAVED))
        gens = kron_gens(2)
        mats = [gens["x"] - gens["y"], gens["c3"], gens["b3"]]
        s = der.coords_span(mats)
        assert verify_levi(der.structure, s).verified
        triple = MatrixLieAlgebra.from_matrices([to_mat(m, 5) for m in mats], 5, Q)
        assert triple.dim == 3
        assert is_semisimple(triple.structure)

    def test_degeneracy_against_dense_form(self, monkeypatch):
        """The verdict (s meets its orthogonal) against the rank of the
        dense form x^T G y on the canonical basis of s, with random
        symmetric Gram matrices of low rank in place of the Killing form
        (with which a complement is never degenerate)."""
        der = der_algebra(realify_heisenberg(1, GaussRat(0, 1), INTERLEAVED))
        g = der.structure
        gens = l5r_gens()
        s = der.coords_span([gens["x"] - gens["y"], gens["F"], gens["G"]])
        radical(g)  # cached from the real form
        rng = Random(41)
        seen = set()
        for _ in range(12):
            # sum of c v v^T over a few random v: symmetric, of rank <= 4
            vs = [(F(rng.choice((-1, 1, 2))), random_vector(rng, g.dim))
                  for _ in range(rng.randint(1, 4))]
            gram = mat([[sum(c * v[r] * v[k] for c, v in vs)
                         for k in range(g.dim)] for r in range(g.dim)])
            monkeypatch.setattr(liestruct, "killing",
                                lambda alg: sparse_rows(gram.sparse(), gram.cols))
            dense = mat([[bilinear(gram, a, b) for b in s.basis] for a in s.basis])
            want = "failed(degenerate)" if nullspace(dense).dim else "verified"
            assert str(verify_levi(g, s)) == want
            seen.add(want)
        assert seen == {"verified", "failed(degenerate)"}

    def test_der_dieudonne_not_semisimple(self):
        assert not is_semisimple(der_algebra(dieudonne(1)).structure)


def _sympy_derived_dims(der):
    """Derived-series dimensions of a matrix Lie algebra from dense sympy
    commutators of its basis matrices, each term reduced by sympy's rref."""
    sympy = pytest.importorskip("sympy")
    d = der.ambient_dim
    term = [sympy.Matrix(d, d, [sympy.Rational(x.numerator, x.denominator)
                                for x in m.entries]) for m in dense_basis(der)]
    dims = [len(term)]
    while term:
        comms = [a * b - b * a for k, a in enumerate(term) for b in term[k + 1:]]
        rref, pivots = sympy.Matrix([list(c) for c in comms] or [[0] * d * d]).rref()
        term = [sympy.Matrix(d, d, list(rref.row(k))) for k in range(len(pivots))]
        dims.append(len(term))
    return dims


@pytest.mark.parametrize("alg, dims", [
    (heisenberg_leibniz(8, jordan(F(0), 8), INTERLEAVED), [33, 27, 23, 15, 0]),
    (kronecker(7, INTERLEAVED), [28, 23, 19, 11, 0]),
], ids=["zero-parameter n=8", "kronecker n=7"])
def test_derived_series_of_der_against_sympy(alg, dims):
    """The solvability-class finding (Z3 refuted at n=8, K4 at n=7) read
    independently of the engine's own brackets and echelon."""
    der = der_algebra(alg)
    assert _sympy_derived_dims(der) == dims
    assert [t.dim for t in der.structure.series("derived")] == dims


class TestStructureReport:
    def test_report_fields(self):
        g = der_algebra(kronecker(1, INTERLEAVED)).structure
        assert tuple(t.dim for t in g.series("derived")) == (4, 2, 0)
        assert g.centers()[2].dim == 0
        assert radical(g).dim == 4
        assert nilradical(g).dim == 2
