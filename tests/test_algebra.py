from fractions import Fraction as F
from random import Random

import pytest

from derleib.algebra import Algebra, AlgebraKind, NotAnIdeal
from derleib.catalog import dieudonne, heisenberg_leibniz, heisenberg_lie, \
    jordan, kronecker
from derleib.derivations import der_algebra, is_derivation
from derleib.exactlin import GaussRat, Mat, Q, QI, Subspace

from helpers import adjoint, naive_bracket, naive_kind, nullspace, random_small_algebra


def vec(alg, **coords):
    v = [F(0)] * alg.dim
    for lbl, cf in coords.items():
        v[alg.labels.index(lbl)] = F(cf)
    return tuple(v)


class TestBracket:
    def test_heisenberg_pairing(self):
        h3 = heisenberg_lie(1)
        assert h3.bracket(vec(h3, e1=1), vec(h3, f1=1)) == vec(h3, z=1)

    def test_bilinearity_zero(self):
        h3 = heisenberg_lie(1)
        zero = (F(0),) * 3
        assert h3.bracket(vec(h3, e1=1), zero) == zero

    def test_dieudonne_n1_table(self):
        # oracle: the defining bracket list instantiated by hand at n=1
        d1 = dieudonne(1)
        expected = {("e1", "e3"): 1, ("e2", "e3"): 1,
                    ("e3", "e2"): 1, ("e3", "e1"): -1}
        for a in d1.labels:
            for b in d1.labels:
                got = d1.bracket(vec(d1, **{a: 1}), vec(d1, **{b: 1}))
                want = vec(d1, z=expected.get((a, b), 0))
                assert got == want, (a, b)


class TestClassify:
    def test_kronecker_symmetric_not_lie(self):
        k = kronecker(3).kind
        assert k.left_leibniz and k.right_leibniz and k.symmetric and not k.lie

    def test_heisenberg_lie(self):
        assert heisenberg_lie(2).kind.lie

    def test_square_map_left_right_not_lie(self):
        # [x,x] = y and nothing else
        alg = Algebra.from_brackets(Q, ["x", "y"], {(0, 0): [(1, 1)]})
        k = alg.kind
        assert k.left_leibniz and k.right_leibniz and not k.lie

    def test_non_leibniz(self):
        # an idempotent, [x,x] = x, fails both identities
        alg = Algebra.from_brackets(Q, ["x"], {(0, 0): [(0, 1)]})
        k = alg.kind
        assert not k.left_leibniz and not k.right_leibniz

    def test_one_sided_leibniz(self):
        # [x,y] = y is left but not right; its reversal is right but not left
        left_only = Algebra.from_brackets(Q, ["x", "y"], {(0, 1): [(1, 1)]})
        assert left_only.kind.left_leibniz and not left_only.kind.right_leibniz
        right_only = Algebra.from_brackets(Q, ["x", "y"], {(1, 0): [(1, 1)]})
        assert right_only.kind.right_leibniz and not right_only.kind.left_leibniz


def _table_algebra(dim, entries):
    return Algebra.from_brackets(Q, ["e%d" % (k + 1) for k in range(dim)],
                                 {key: [(k, cf)] for key, k, cf in entries})


class TestKindOracle:
    """Algebra.kind (left identity on L and on its opposite algebra) against
    the dense oracle evaluating both identities over basis triples."""

    LEFT_ONLY = _table_algebra(2, [((0, 1), 1, 1)])  # [x,y] = y
    RIGHT_ONLY = _table_algebra(2, [((1, 0), 1, 1)])  # [y,x] = y
    # antisymmetric, Jacobi fails on (e1, e2, e3)
    NOT_JACOBI = _table_algebra(3, [((0, 1), 2, 1), ((1, 0), 2, -1),
                                    ((1, 2), 1, 1), ((2, 1), 1, -1),
                                    ((2, 0), 2, 1), ((0, 2), 2, -1)])

    def test_named_one_sided_and_non_jacobi(self):
        assert naive_kind(self.LEFT_ONLY) == self.LEFT_ONLY.kind == \
            AlgebraKind(True, False, False, False)
        assert naive_kind(self.RIGHT_ONLY) == self.RIGHT_ONLY.kind == \
            AlgebraKind(False, True, False, False)
        assert naive_kind(self.NOT_JACOBI) == self.NOT_JACOBI.kind == \
            AlgebraKind(False, False, False, False)
        assert self.NOT_JACOBI.table[(0, 1)] == ((2, F(1)),)

    @pytest.mark.parametrize("seed", range(50))
    def test_random_algebra(self, seed):
        alg = random_small_algebra(Random(seed))
        assert alg.kind == naive_kind(alg)
        # rescaled by non-integer constants over Q, the table has several
        # denominators to clear; a complex constant puts it in Q(i)
        for c, field in ((F(2, 3), Q), (F(5, 7), Q), (GaussRat(F(1, 2), 2), QI)):
            scaled = Algebra.from_brackets(field, alg.labels, {
                key: [(k, c * cf) for k, cf in terms]
                for key, terms in alg.table.items()})
            assert scaled.kind == naive_kind(scaled), c

    def test_der_of_leibniz_draws(self):
        draws = (random_small_algebra(Random(seed)) for seed in range(100))
        leibniz = [alg for alg in draws if alg.kind.left_leibniz][:20]
        assert len(leibniz) == 20
        for alg in leibniz:
            struct = der_algebra(alg).structure
            assert struct.kind == naive_kind(struct) == \
                AlgebraKind(True, True, True, True)

    def test_symmetric_part_must_annihilate_on_the_left(self):
        # [e1,e3] = e3, [e3,e2] = -e3: the identity holds on every triple
        # (e_i, e_j, e_k) with i < j, but the symmetric part
        # [e2,e3] + [e3,e2] = -e3 acts on e2 from the left, [-e3, e2] = e3,
        # so it fails for (e3, e2, e2)
        alg = _table_algebra(3, [((0, 2), 2, 1), ((2, 1), 2, -1)])
        e = [alg.basis_vector(i) for i in range(3)]
        br = alg.bracket

        def holds(x, y, z):
            return br(x, br(y, z)) == tuple(
                a + b for a, b in zip(br(br(x, y), z), br(y, br(x, z))))
        assert all(holds(e[i], e[j], z) for i in range(3)
                   for j in range(i + 1, 3) for z in e)
        assert not holds(e[2], e[1], e[1])
        neither = AlgebraKind(False, False, False, False)
        assert alg.kind == naive_kind(alg) == neither
        # the opposite algebra fails the right identity the same way
        opposite = _table_algebra(3, [((2, 0), 2, 1), ((1, 2), 2, -1)])
        assert opposite.kind == naive_kind(opposite) == neither

    def test_random_draws_cover_every_outcome(self):
        seen = {naive_kind(random_small_algebra(Random(seed)))
                for seed in range(50)}
        flags = {(k.left_leibniz, k.right_leibniz, k.lie) for k in seen}
        assert flags >= {(True, False, False), (False, True, False),
                         (True, True, False), (True, True, True),
                         (False, False, False)}


def _dense(op, dim, field):
    return Mat.from_rows([[op.get(r, {}).get(c, 0) for c in range(dim)]
                          for r in range(dim)], field)


def _random_scalar(rng, field):
    x = F(rng.randint(-3, 3), rng.choice((1, 2)))
    if rng.random() < 0.3:
        x = F(0)
    if field == Q:
        return x
    return GaussRat(x, F(rng.randint(-3, 3), rng.choice((1, 2))))


class TestSparsePathsOracle:
    """The table-driven bracket, ``ops``, ``centers`` and ``leib_ideal``
    against dense computations on the same random algebras as the kind
    oracle, over Q and over Q(i)."""

    @pytest.mark.parametrize("seed", range(50))
    def test_bracket(self, seed):
        rng = Random(seed)
        alg = random_small_algebra(rng)
        for field in (Q, QI):
            a = Algebra.from_brackets(field, alg.labels, alg.table)
            for _ in range(5):
                x = tuple(_random_scalar(rng, field) for _ in range(a.dim))
                y = tuple(_random_scalar(rng, field) for _ in range(a.dim))
                assert a.bracket(x, y) == naive_bracket(a, x, y)

    @pytest.mark.parametrize("seed", range(50))
    def test_operators_centers_leib(self, seed):
        alg = random_small_algebra(Random(seed))
        d = alg.dim
        e = [alg.basis_vector(i) for i in range(d)]
        left, right = alg.ops
        lads = [adjoint(alg, v, "left") for v in e]
        rads = [adjoint(alg, v, "right") for v in e]
        for i in range(d):
            assert _dense(left[i], d, Q) == lads[i]
            assert _dense(right[i], d, Q) == rads[i]
        # x is left central iff [x, e_j] = R_j x = 0 for every j
        lrows = [m.row(r) for m in rads for r in range(d)]
        rrows = [m.row(r) for m in lads for r in range(d)]
        lc, rc, both = alg.centers()
        assert lc == nullspace(Mat.from_rows(lrows))
        assert rc == nullspace(Mat.from_rows(rrows))
        assert both == nullspace(Mat.from_rows(lrows + rrows))
        squares = [tuple(a + b for a, b in zip(naive_bracket(alg, x, y),
                                                naive_bracket(alg, y, x)))
                   for x in e for y in e]
        assert alg.leib_ideal() == Subspace.span(squares, d)


class TestProductSpaceAndSeries:
    def test_product_with_zero(self):
        l5 = heisenberg_leibniz(2, jordan(F(2), 2))
        zero = Subspace.zero(5)
        assert l5.product_space(l5.full_space(), zero).is_zero()

    def test_commutator_line(self):
        h3 = heisenberg_lie(1)
        comm = h3.product_space(h3.full_space(), h3.full_space())
        assert comm == Subspace.span([vec(h3, z=1)], 3)

    def test_dieudonne_commutator_line(self):
        for n in (1, 2, 3):
            dn = dieudonne(n)
            comm = dn.product_space(dn.full_space(), dn.full_space())
            assert comm == Subspace.span([vec(dn, z=1)], dn.dim)

    def test_product_space_matches_naive_brackets(self):
        """Every pair of series terms of 140 algebras (100 random draws and
        the Der of the first 40): the sparse product equals the span of the
        naive brackets of the dense basis vectors."""
        algs = [random_small_algebra(Random(seed)) for seed in range(100)]
        algs += [der_algebra(alg).structure for alg in algs[:40]]
        for alg in algs:
            terms = set(alg.series("lower_central") + alg.series("derived"))
            for u in terms:
                for v in terms:
                    naive = Subspace.span((naive_bracket(alg, x, y)
                                           for x in u.basis for y in v.basis),
                                          alg.dim, alg.field)
                    assert alg.product_space(u, v) == naive

    def test_commutator_ideal(self):
        for seed in range(30):
            alg = random_small_algebra(Random(seed))
            full = alg.full_space()
            assert alg.commutator_ideal == alg.product_space(full, full)
            assert alg.commutator_ideal is alg.commutator_ideal
        h3 = heisenberg_lie(1)
        assert h3.commutator_ideal == Subspace.span([vec(h3, z=1)], 3)

    def test_abelian_series(self):
        ab = Algebra.abelian(3)
        terms = ab.series("lower_central")
        assert [t.dim for t in terms] == [3, 0]

    def test_two_step_nilpotent(self):
        l5 = heisenberg_leibniz(2, jordan(F(2), 2))
        assert [t.dim for t in l5.series("lower_central")] == [5, 1, 0]
        assert l5.is_nilpotent() == (True, 2)

    def test_der_dieudonne1_derived_dims(self):
        struct = der_algebra(dieudonne(1)).structure
        assert [t.dim for t in struct.series("derived")] == [6, 4, 1, 0]
        assert struct.is_solvable() == (True, 3)

    def test_der_heisenberg_not_nilpotent_two_step_solvable(self):
        struct = der_algebra(heisenberg_leibniz(3, jordan(F(2), 3))).structure
        assert struct.is_nilpotent()[0] is False
        assert struct.is_solvable() == (True, 2)

    def test_series_monotone(self):
        for alg in (kronecker(2), der_algebra(dieudonne(2)).structure):
            for kind in ("lower_central", "derived"):
                terms = alg.series(kind)
                for prev, nxt in zip(terms, terms[1:]):
                    assert prev.contains(nxt) and prev.dim > nxt.dim


class TestCentersAndLeib:
    def test_abelian_centers(self):
        ab = Algebra.abelian(2)
        left, right, center = ab.centers()
        assert left.dim == right.dim == center.dim == 2

    def test_heisenberg_center(self):
        h3 = heisenberg_lie(1)
        left, right, center = h3.centers()
        zline = Subspace.span([vec(h3, z=1)], 3)
        assert left == right == center == zline

    def test_exceptional_one_sided_centers(self):
        # at a = 1 the right center picks up e1 and the left center f_n
        l3 = heisenberg_leibniz(1, jordan(F(1), 1))
        left, right, center = l3.centers()
        assert right == Subspace.span([vec(l3, e1=1), vec(l3, z=1)], 3)
        assert left == Subspace.span([vec(l3, f1=1), vec(l3, z=1)], 3)
        assert center == Subspace.span([vec(l3, z=1)], 3)

    def test_leib_ideal(self):
        assert heisenberg_lie(2).leib_ideal().is_zero()
        l5 = heisenberg_leibniz(2, jordan(F(2), 2))
        assert l5.leib_ideal() == Subspace.span([vec(l5, z=1)], 5)


class TestQuotient:
    def test_quotient_by_zero(self):
        l5 = heisenberg_leibniz(2, jordan(F(2), 2))
        q = l5.quotient(Subspace.zero(5))
        assert q == l5

    def test_quotient_by_leib_is_lie(self):
        l5 = heisenberg_leibniz(2, jordan(F(2), 2))
        q = l5.quotient(l5.leib_ideal())
        assert q.dim == 4 and q.kind.lie

    def test_dieudonne_mod_commutator(self):
        d1 = dieudonne(1)
        q = d1.quotient(Subspace.span([vec(d1, z=1)], 4))
        assert q.dim == 3
        assert q.table == {}

    def test_not_an_ideal(self):
        h3 = heisenberg_lie(1)
        with pytest.raises(NotAnIdeal):
            h3.quotient(Subspace.span([vec(h3, e1=1)], 3))


class TestAdjoint:
    def test_central_element(self):
        h3 = heisenberg_lie(1)
        assert adjoint(h3, vec(h3, z=1), "left").is_zero()

    def test_adjoint_in_zero_parameter_family(self):
        # grouped basis {e1,e2,f1,f2,z}: ad_e1 sends f1 to (1+a) z with a = 0
        l5 = heisenberg_leibniz(2, jordan(F(0), 2))
        ad = adjoint(l5, vec(l5, e1=1), "left")
        assert ad == Mat.unit(5, 5, 4, 2)

    def test_right_adjoint(self):
        l3 = heisenberg_leibniz(1, jordan(F(2), 1))
        ad = adjoint(l3, vec(l3, e1=1), "right")
        # [f1, e1] = (a-1) z = z
        assert ad == Mat.unit(3, 3, 2, 1)

    def test_left_adjoints_are_derivations(self):
        for alg in (heisenberg_leibniz(2, jordan(F(2), 2)), kronecker(2),
                    dieudonne(2)):
            assert alg.kind.left_leibniz
            for i in range(alg.dim):
                ad = adjoint(alg, alg.basis_vector(i), "left")
                assert is_derivation(ad, alg)

    def test_dim_zero_everywhere(self):
        empty = Algebra.from_brackets(Q, [], {})
        assert empty.series("derived") == [Subspace.zero(0)]
        assert empty.is_nilpotent() == (True, 0)
        assert empty.centers()[2].dim == 0
