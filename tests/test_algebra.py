from fractions import Fraction as F
from itertools import permutations
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from derleib.algebra import Algebra, AlgebraKind, NotAnIdeal
from derleib.catalog import dieudonne, heisenberg_leibniz, heisenberg_lie, \
    jordan, kronecker
from derleib.derivations import der_algebra
from derleib.exactlin import Echelon, GaussRat, Q, QI, ShapeMismatch, Subspace

from helpers import abelian, adjoint, basis_vector, is_zero, leib_ideal, \
    lincomb, mat, mat_row, naive_bracket, naive_is_derivation, naive_kind, \
    naive_product_rows, naive_series, nullspace, random_small_algebra, \
    random_solvable_lie, random_vector, solve, sparse_mat, unit


def vec(alg, **coords):
    v = [F(0)] * alg.dim
    for lbl, cf in coords.items():
        v[alg.labels.index(lbl)] = F(cf)
    return tuple(v)


def line(alg, v):
    return Subspace.span([v], alg.dim)


class TestBracket:
    def test_heisenberg_pairing(self):
        h3 = heisenberg_lie(1)
        assert naive_bracket(h3, vec(h3, e1=1), vec(h3, f1=1)) == vec(h3, z=1)
        assert h3.product_space(line(h3, vec(h3, e1=1)),
                                line(h3, vec(h3, f1=1))) == line(h3, vec(h3, z=1))

    def test_bilinearity_zero(self):
        h3 = heisenberg_lie(1)
        assert h3.product_space(line(h3, vec(h3, e1=1)), Subspace.zero(3)).is_zero()

    def test_dieudonne_n1_table(self):
        # oracle: the defining bracket list instantiated by hand at n=1
        d1 = dieudonne(1)
        expected = {("e1", "e3"): 1, ("e2", "e3"): 1,
                    ("e3", "e2"): 1, ("e3", "e1"): -1}
        for a in d1.labels:
            for b in d1.labels:
                got = naive_bracket(d1, vec(d1, **{a: 1}), vec(d1, **{b: 1}))
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

    def test_bracket_key_outside_the_basis(self):
        with pytest.raises(ShapeMismatch, match="bracket index out of range"):
            Algebra.from_brackets(Q, ["x"], {(0, 1): [(0, 1)]})


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
        """Each draw and its opposite [b_i, b_j]' = [b_j, b_i], so that both
        of ``kind``'s walks see left-only and right-only tables."""
        draw = random_small_algebra(Random(seed))
        opposite = Algebra.from_brackets(draw.field, draw.labels, {
            (j, i): terms for (i, j), terms in draw.table.items()})
        for alg in (draw, opposite):
            assert alg.kind == naive_kind(alg)
            # rescaled by non-integer constants over Q, the table has several
            # denominators to clear; a complex constant puts it in Q(i)
            for c, field in ((F(2, 3), Q), (F(5, 7), Q), (GaussRat(F(1, 2), 2), QI)):
                scaled = Algebra.from_brackets(field, alg.labels, {
                    key: [(k, c * cf) for k, cf in terms]
                    for key, terms in alg.table.items()})
                assert scaled.kind == naive_kind(scaled), c

    # antisymmetric tables where Jacobi fails on the one triple {x, y, w}
    # of the basis (x, y, z, w), through one term of it each
    ONE_TRIPLE = {
        "[[x,y],w]": [((0, 1), 2), ((2, 3), 3)],  # [x,y] = z, [z,w] = w
        "[x,[y,w]]": [((1, 3), 2), ((0, 2), 2)],  # [y,w] = z, [x,z] = z
        "[y,[x,w]]": [((0, 3), 2), ((1, 2), 2)],  # [x,w] = z, [y,z] = z
    }

    @pytest.mark.parametrize("term", sorted(ONE_TRIPLE))
    def test_jacobi_failing_on_one_triple(self, term):
        """In each of the 24 orders of the basis, so that the failing
        triple, sorted, meets every operator ``_leibniz`` reads its columns
        from."""
        for perm in permutations(range(4)):
            brackets = {}
            for (i, j), k in self.ONE_TRIPLE[term]:
                brackets[(perm[i], perm[j])] = [(perm[k], 1)]
                brackets[(perm[j], perm[i])] = [(perm[k], -1)]
            alg = Algebra.from_brackets(Q, "xyzw", brackets)
            assert alg.kind == naive_kind(alg) == \
                AlgebraKind(False, False, False, False), perm

    def test_general_table_failing_below_the_pair(self):
        """[x,x] = y, [y,z] = y is neither left nor right Leibniz: (x, x, z)
        gives [[x,x],z] = y while [[x,z],x] + [x,[x,z]] = 0.  A walk of a
        general table that reads only the columns k > j calls it right
        Leibniz in each of the 6 basis orders.  Neither side builds the
        multiplication operators."""
        neither = AlgebraKind(False, False, False, False)
        for perm in permutations(range(3)):
            x, y, z = perm
            alg = Algebra.from_brackets(Q, "xyz", {(x, x): [(y, 1)], (y, z): [(y, 1)]})
            opposite = Algebra.from_brackets(Q, "xyz", {(x, x): [(y, 1)], (z, y): [(y, 1)]})
            for a in (alg, opposite):
                assert a.kind == naive_kind(a) == neither, perm
                assert "int_ops" not in a.__dict__

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
        e = [basis_vector(alg, i) for i in range(3)]

        def br(x, y):
            return naive_bracket(alg, x, y)

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


def _sl2():
    return _table_algebra(3, [((0, 1), 1, 2), ((1, 0), 1, -2), ((0, 2), 2, -2),
                              ((2, 0), 2, 2), ((1, 2), 0, 1), ((2, 1), 0, -1)])


# Lie algebras of dimension 3 to 6: abelian, nilpotent, solvable, sl2,
# gl2 = Der of the abelian plane, and Der(h_3), which is neither
LIE_BASES = [abelian(3), heisenberg_lie(1), heisenberg_lie(2), _sl2(),
             der_algebra(abelian(2)).structure, der_algebra(heisenberg_lie(1)).structure] \
    + [alg for alg, _ in map(random_solvable_lie, map(Random, range(6))) if alg.dim > 2]

_PARTS = (1, -1, 2, F(1, 2), F(-3, 2), 0)


def _pair(draw, d):
    return sorted(draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True)))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_lie_decision_on_random_antisymmetric_tables(data):
    """Antisymmetric tables over Q or Q(i) of dimension 3 to 6: either a Lie
    algebra of ``LIE_BASES`` rewritten in a random basis f_i = P e_i and
    then, half the time, one constant [f_i, f_j] and its mirror [f_j, f_i]
    perturbed, or a few random brackets [e_i, e_j] = c e_k and their
    mirrors, where Jacobi often fails on a single triple.  ``kind`` (the
    Jacobi check on triples i < j < k) agrees with both Leibniz identities
    evaluated densely on every basis triple."""
    draw = data.draw
    field = draw(st.sampled_from((Q, QI)))
    parts = st.sampled_from(_PARTS)
    scalar = parts if field == Q else st.builds(GaussRat, parts, parts)
    nonzero = scalar.filter(bool)
    if draw(st.booleans()):
        d = draw(st.integers(3, 6))
        labels = ["e%d" % (k + 1) for k in range(d)]
        brackets, may_fail = {}, True
        for _ in range(draw(st.integers(1, 4))):
            i, j = _pair(draw, d)
            k, cf = draw(st.integers(0, d - 1)), draw(nonzero)
            brackets.setdefault((i, j), []).append((k, cf))
            brackets.setdefault((j, i), []).append((k, -cf))
    else:
        base = draw(st.sampled_from(LIE_BASES))
        d, labels = base.dim, base.labels
        base = Algebra.from_brackets(field, labels, base.table)
        # P: a permutation with nonzero scales, then two shears f_a += c f_b,
        # so it is invertible and the table stays sparse enough for the oracle
        order = draw(st.permutations(range(d)))
        cols = [[draw(nonzero) if r == order[c] else 0 for r in range(d)]
                for c in range(d)]
        for _ in range(2):
            a, b = _pair(draw, d)[::draw(st.sampled_from((1, -1)))]
            cf = draw(scalar)
            cols[a] = [x + cf * y for x, y in zip(cols[a], cols[b])]
        p = mat([[cols[c][r] for c in range(d)] for r in range(d)], field)
        brackets = {(i, j): list(enumerate(solve(p, naive_bracket(base, cols[i], cols[j]))))
                    for i in range(d) for j in range(d)}
        may_fail = draw(st.booleans())
        if may_fail:
            i, j = _pair(draw, d)
            k, cf = draw(st.integers(0, d - 1)), draw(nonzero)
            brackets[(i, j)].append((k, cf))
            brackets[(j, i)].append((k, -cf))
    alg = Algebra.from_brackets(field, labels, brackets)
    assert alg.antisymmetric
    assert alg.kind == naive_kind(alg)
    assert may_fail or alg.kind.lie


def _random_scalar(rng, field):
    x = F(rng.randint(-3, 3), rng.choice((1, 2)))
    if rng.random() < 0.3:
        x = F(0)
    if field == Q:
        return x
    return GaussRat(x, F(rng.randint(-3, 3), rng.choice((1, 2))))


def _dense_centers(alg):
    """Left, right and two-sided centre as kernels of dense adjoints: x is
    left central iff [x, e_j] = R_j x = 0 for every j."""
    e = [basis_vector(alg, i) for i in range(alg.dim)]

    def rows(side):
        ads = [adjoint(alg, v, side) for v in e]
        return [mat_row(m, r) for m in ads for r in range(alg.dim)]
    lrows, rrows = rows("right"), rows("left")
    return tuple(nullspace(mat(rows, alg.field))
                 for rows in (lrows, rrows, lrows + rrows))


class TestSparsePathsOracle:
    """The table-driven bracket of ``product_space``, ``int_ops`` and
    ``centers`` against dense computations on the same random algebras as
    the kind oracle, over Q and over Q(i)."""

    @pytest.mark.parametrize("seed", range(50))
    def test_bracket(self, seed):
        rng = Random(seed)
        alg = random_small_algebra(rng)
        for field in (Q, QI):
            a = Algebra.from_brackets(field, alg.labels, alg.table)
            for _ in range(5):
                x = tuple(_random_scalar(rng, field) for _ in range(a.dim))
                y = tuple(_random_scalar(rng, field) for _ in range(a.dim))
                u, v = (Subspace.span([w], a.dim, field) for w in (x, y))
                assert a.product_space(u, v) == Subspace.span(
                    [naive_bracket(a, x, y)], a.dim, field)

    @pytest.mark.parametrize("seed", range(50))
    def test_operators_centers_leib(self, seed):
        alg = random_small_algebra(Random(seed))
        d, c = alg.dim, alg.int_scale
        e = [basis_vector(alg, i) for i in range(d)]
        left, right = alg.int_ops
        lads = [adjoint(alg, v, "left") for v in e]
        rads = [adjoint(alg, v, "right") for v in e]
        for i in range(d):
            assert sparse_mat(left[i], d, Q) == lincomb((c, lads[i]))
            assert sparse_mat(right[i], d, Q) == lincomb((c, rads[i]))
        assert alg.centers() == _dense_centers(alg)
        assert alg.center == alg.centers()[2]

    def test_centers_off_antisymmetric_tables(self):
        """``centers`` runs one kernel for an antisymmetric table; every
        other table of 100 draws gets both one-sided centres, as the dense
        kernels give them, and some of those differ."""
        seen = set()
        for seed in range(100):
            alg = random_small_algebra(Random(seed))
            e = [basis_vector(alg, i) for i in range(alg.dim)]
            antisym = all(naive_bracket(alg, x, y)
                          == tuple(-c for c in naive_bracket(alg, y, x))
                          for x in e for y in e)
            assert alg.antisymmetric == antisym
            lc, rc, both = alg.centers()
            assert (lc, rc, both) == _dense_centers(alg)
            seen.add((antisym, lc == rc))
        assert seen == {(True, True), (False, True), (False, False)}


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

    def test_operands_of_another_dimension_are_rejected(self):
        h3 = heisenberg_lie(1)
        for u, v in ((Subspace.full(4), h3.full_space()),
                     (h3.full_space(), Subspace.zero(2))):
            with pytest.raises(ShapeMismatch, match="subspace ambient"):
                h3.product_space(u, v)

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

    @pytest.mark.parametrize("seed", range(10))
    def test_self_product_matches_naive_span(self, seed):
        """``product_space(u, u)`` against the span of the naive brackets of
        every ordered pair of u's basis vectors, for the full space and for
        random subspaces: on antisymmetric tables, where each unordered pair
        is bracketed once, over Q and Q(i), and on the Heisenberg Leibniz
        algebra at a = 2, whose [x, x] and [y, x] are not read off [x, y]."""
        rng = Random(seed)
        leibniz = heisenberg_leibniz(2, jordan(F(2), 2))
        assert not leibniz.antisymmetric
        algs = [leibniz, LIE_BASES[seed % len(LIE_BASES)],
                der_algebra(dieudonne(1)).structure]
        algs.append(Algebra.from_brackets(QI, algs[1].labels, {
            key: [(k, GaussRat(1, 2) * cf) for k, cf in terms]
            for key, terms in algs[1].table.items()}))
        for alg in algs:
            subspaces = [alg.full_space()] + [
                Subspace.span([random_vector(rng, alg.dim) for _ in range(rng.randint(1, 3))],
                              alg.dim, alg.field) for _ in range(4)]
            for u in subspaces:
                naive = Subspace.span((naive_bracket(alg, x, y)
                                       for x in u.basis for y in u.basis),
                                      alg.dim, alg.field)
                assert alg.product_space(u, u) == naive

    def test_commutator_ideal(self):
        for seed in range(30):
            alg = random_small_algebra(Random(seed))
            full = alg.full_space()
            assert alg.commutator_ideal == alg.product_space(full, full)
            assert alg.commutator_ideal is alg.commutator_ideal
        h3 = heisenberg_lie(1)
        assert h3.commutator_ideal == Subspace.span([vec(h3, z=1)], 3)

    def test_abelian_series(self):
        ab = abelian(3)
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


def _scalar_types(erows) -> list:
    return [type(x) for row in erows for _, x in row]


def _dense_rows(rows, dim, field):
    zero = F(0) if field == Q else GaussRat()
    return [tuple(dict(row).get(c, zero) for c in range(dim)) for row in rows]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10 ** 6), data=st.data())
def test_early_stops_of_series_and_bounded_products(seed, data):
    """``series`` passes each term to ``product_space`` as a bound on the
    next, which is returned once the brackets reach its dimension.  On
    ``random_small_algebra`` draws, the Der of those of dimension <= 3 and
    ``random_solvable_lie`` draws, over Q or over Q(i) with the table times
    1 + i: both series equal :func:`naive_series`, which assumes no
    inclusion, and ``product_space(u, v, bound)`` of random subspaces, with
    a bound made of [u, v] and random extra vectors, equals the unbounded
    product and the dense span, with the scalar types of an
    :class:`Echelon`'s rows."""
    rng = Random(seed)
    shape = data.draw(st.sampled_from(("small", "der", "solvable")))
    if shape == "solvable":
        alg = random_solvable_lie(rng)[0]
    else:
        alg = random_small_algebra(rng)
        if shape == "der" and alg.dim <= 3:
            alg = der_algebra(alg).structure
    if data.draw(st.booleans()):
        alg = Algebra.from_brackets(QI, alg.labels, {
            key: [(k, GaussRat(cf, cf)) for k, cf in terms]
            for key, terms in alg.table.items()})
    d, field = alg.dim, alg.field
    for kind in ("lower_central", "derived"):
        assert [t.rows for t in alg.series(kind)] == naive_series(alg, kind)
    u = Subspace.span([random_vector(rng, d) for _ in range(rng.randint(0, d))], d, field)
    v = u if data.draw(st.booleans()) else Subspace.span(
        [random_vector(rng, d) for _ in range(rng.randint(0, d))], d, field)
    want = naive_product_rows(alg, u.basis, v.basis)
    bound = Subspace.span(_dense_rows(want, d, field)
                          + [random_vector(rng, d) for _ in range(rng.randint(0, 2))],
                          d, field)
    got = alg.product_space(u, v, bound=bound)
    assert got.rows == want and got == alg.product_space(u, v)
    ech = Echelon(d, field)
    for row in want:
        ech.insert(dict(row))
    assert _scalar_types(got.erows) == _scalar_types(ech.erows())


def test_series_returns_the_bound_once_it_is_reached():
    """[L, [L, L]] = [L, L] on Der(h_3) = gl2 ⋉ F^2 and on sl2: the product
    stops at the bound and returns that very subspace."""
    for alg in (der_algebra(heisenberg_lie(1)).structure, LIE_BASES[3]):
        comm = alg.commutator_ideal
        assert alg.product_space(alg.full_space(), comm, bound=comm) is comm
        assert alg.series("lower_central")[-1] == comm


class TestCentersAndLeib:
    def test_abelian_centers(self):
        ab = abelian(2)
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
        """The oracle against the values worked out by hand."""
        assert leib_ideal(heisenberg_lie(2)).is_zero()
        l5 = heisenberg_leibniz(2, jordan(F(2), 2))
        assert leib_ideal(l5) == Subspace.span([vec(l5, z=1)], 5)


class TestQuotient:
    def test_quotient_by_zero(self):
        l5 = heisenberg_leibniz(2, jordan(F(2), 2))
        q = l5.quotient(Subspace.zero(5))
        assert q == l5

    def test_quotient_by_leib_is_lie(self):
        l5 = heisenberg_leibniz(2, jordan(F(2), 2))
        q = l5.quotient(leib_ideal(l5))
        assert q.dim == 4 and q.kind.lie

    def test_dieudonne_mod_commutator(self):
        d1 = dieudonne(1)
        q = d1.quotient(Subspace.span([vec(d1, z=1)], 4))
        assert q.dim == 3
        assert q.table == {}

    def test_ideal_of_another_dimension_is_rejected(self):
        h3 = heisenberg_lie(1)
        with pytest.raises(ShapeMismatch, match="ideal ambient"):
            h3.quotient(Subspace.zero(4))

    def test_not_an_ideal(self):
        h3 = heisenberg_lie(1)
        with pytest.raises(NotAnIdeal):
            h3.quotient(Subspace.span([vec(h3, e1=1)], 3))

    def test_one_sided_ideal_of_leibniz_table(self):
        # [x,y] = y is not antisymmetric, so both sides are checked:
        # [L, x] = 0 lies in span(x), [x, L] = span(y) does not
        alg = TestKindOracle.LEFT_ONLY
        full, x = alg.full_space(), Subspace.span([basis_vector(alg, 0)], 2)
        assert x.contains(alg.product_space(full, x))
        assert not x.contains(alg.product_space(x, full))
        with pytest.raises(NotAnIdeal):
            alg.quotient(x)


class TestAdjoint:
    def test_central_element(self):
        h3 = heisenberg_lie(1)
        assert is_zero(adjoint(h3, vec(h3, z=1), "left"))

    def test_adjoint_in_zero_parameter_family(self):
        # grouped basis {e1,e2,f1,f2,z}: ad_e1 sends f1 to (1+a) z with a = 0
        l5 = heisenberg_leibniz(2, jordan(F(0), 2))
        ad = adjoint(l5, vec(l5, e1=1), "left")
        assert ad == unit(5, 4, 2)

    def test_right_adjoint(self):
        l3 = heisenberg_leibniz(1, jordan(F(2), 1))
        ad = adjoint(l3, vec(l3, e1=1), "right")
        # [f1, e1] = (a-1) z = z
        assert ad == unit(3, 2, 1)

    def test_left_adjoints_are_derivations(self):
        for alg in (heisenberg_leibniz(2, jordan(F(2), 2)), kronecker(2),
                    dieudonne(2)):
            assert alg.kind.left_leibniz
            for i in range(alg.dim):
                ad = adjoint(alg, basis_vector(alg, i), "left")
                assert naive_is_derivation(ad, alg)
                assert der_algebra(alg).subspace.contains(ad.sparse())

    def test_dim_zero_everywhere(self):
        empty = Algebra.from_brackets(Q, [], {})
        assert empty.series("derived") == [Subspace.zero(0)]
        assert empty.is_nilpotent() == (True, 0)
        assert empty.centers()[2].dim == 0
