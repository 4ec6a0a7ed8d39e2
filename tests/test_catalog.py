from fractions import Fraction as F
from random import Random

import pytest

from derleib import catalog
from derleib.algebra import MAX_DIM, Algebra
from derleib.catalog import (
    FamilySpec,
    GROUPED,
    INTERLEAVED,
    dieudonne,
    heisenberg_leibniz,
    heisenberg_lie,
    interleave_perm,
    jordan,
    kronecker,
    permute_basis,
    realify_algebra,
    realify_derivation,
    realify_heisenberg,
    realify_parameter,
)
from derleib.derivations import der_algebra
from derleib.exactlin import GaussRat, Q, QI, ShapeMismatch, Subspace
from helpers import (
    charpoly,
    dense_basis,
    dense_heisenberg_leibniz,
    dense_jordan,
    entry,
    entrywise_realify_derivation,
    mat,
    mat_power_is_zero,
    matmul,
    naive_bracket,
    real_block,
    sparse_mat,
    to_mat,
    transpose,
)


def vec(alg, **coords):
    v = [F(0)] * alg.dim
    for lbl, cf in coords.items():
        v[alg.labels.index(lbl)] = F(cf)
    return tuple(v)


def bracket_of(alg, a, b):
    return naive_bracket(alg, vec(alg, **{a: 1}), vec(alg, **{b: 1}))


class TestHeisenberg:
    def test_n1_scalar_parameter(self):
        l3 = heisenberg_leibniz(1, jordan(F(2), 1))
        assert bracket_of(l3, "e1", "f1") == vec(l3, z=3)
        assert bracket_of(l3, "f1", "e1") == vec(l3, z=1)

    def test_zero_parameter_is_heisenberg_lie(self):
        assert heisenberg_leibniz(1, jordan(F(0), 1)) == heisenberg_lie(1)
        assert heisenberg_lie(2).kind.lie

    def test_n2_jordan_one_table(self):
        l5 = heisenberg_leibniz(2, jordan(F(1), 2))
        for i in ("e1", "e2"):
            f = "f" + i[1]
            assert bracket_of(l5, i, f) == vec(l5, z=2)
            assert bracket_of(l5, f, i) == vec(l5, z=0)
        assert bracket_of(l5, "e2", "f1") == vec(l5, z=1)
        assert bracket_of(l5, "f1", "e2") == vec(l5, z=1)
        assert bracket_of(l5, "e1", "f2") == vec(l5, z=0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            heisenberg_leibniz(2, jordan(F(1), 3))
        for a in ({0: {2: 1}}, {2: {0: 1}}, {-1: {0: 1}}, {0: {-1: GaussRat(0, 1)}}):
            with pytest.raises(ShapeMismatch, match="outside 2 x 2"):
                heisenberg_leibniz(2, a)

    def test_real_parameter_gives_q(self):
        # a GaussRat entry with zero imaginary part is real
        assert heisenberg_leibniz(2, jordan(GaussRat(2), 2)).field == Q
        assert heisenberg_leibniz(2, {1: {0: GaussRat(3)}}).field == Q
        assert heisenberg_leibniz(2, {1: {0: GaussRat(0, 1)}}).field == QI

    @pytest.mark.parametrize("field", [Q, QI])
    def test_sparse_parameter_matches_dense_oracle(self, field):
        """Random sparse parameters with about a third of the entries zero,
        in both orders, against the oracle that reads every entry of the
        dense matrix: equal tables, labels, field and hash."""
        rng = Random(28)

        def value():
            x = F(rng.randint(-3, 3) or 1, rng.choice((1, 2)))
            return x if field == Q else GaussRat(x, rng.choice((0, 1, F(-1, 2))))
        for _ in range(60):
            n = rng.randint(1, 4)
            a = {}
            for r in range(n):
                for c in range(n):
                    if rng.random() < 2 / 3:
                        a.setdefault(r, {})[c] = value()
            imag = any(isinstance(v, GaussRat) and v.im
                       for row in a.values() for v in row.values())
            for order in (GROUPED, INTERLEAVED):
                got = heisenberg_leibniz(n, a, order)
                want = dense_heisenberg_leibniz(
                    n, sparse_mat(a, n, QI if imag else Q), order)
                assert (got.table, got.labels, got.field) == \
                    (want.table, want.labels, want.field)
                assert hash(got) == hash(want)

    def test_all_members_symmetric_two_step(self):
        for alg in (heisenberg_leibniz(3, jordan(F(2), 3)), kronecker(3),
                    dieudonne(3), realify_heisenberg(1, GaussRat(2, 1))):
            k = alg.kind
            assert k.left_leibniz and k.right_leibniz and k.symmetric
            assert alg.is_nilpotent() == (True, 2)
            comm = alg.product_space(alg.full_space(), alg.full_space())
            assert comm.dim == 1
            assert alg.centers()[2].contains(comm)


class TestParameterMatrices:
    def test_jordan_small(self):
        assert jordan(F(0), 1) == {}
        assert jordan(F(0), 3) == {1: {0: 1}, 2: {1: 1}}
        assert jordan(F(2), 2) == {0: {0: 2}, 1: {0: 1, 1: 2}}

    @pytest.mark.parametrize("a", [F(0), F(-3, 2), GaussRat(1, 2), GaussRat(0, -1)])
    def test_jordan_matches_dense_oracle(self, a):
        for n in (1, 2, 4):
            assert sparse_mat(jordan(a, n), n, QI) == dense_jordan(a, n, QI)

    def test_real_block_of_i(self):
        assert real_block(0, 1, 1) == mat([[0, 1], [-1, 0]])

    def test_real_block_matches_realified_jordan(self):
        z = GaussRat(F(1, 2), F(-3))
        assert sparse_mat(realify_parameter(jordan(z, 3)), 6) == \
            real_block(F(1, 2), F(-3), 3)

    def test_jordan_char_poly(self):
        # expand (x - a)^n and compare characteristic polynomials
        a = F(3, 2)
        for n in (1, 2, 3, 4):
            coeffs = [F(1)]
            for _ in range(n):  # multiply by (x - a)
                coeffs = [c for c in coeffs] + [F(0)]
                for k in range(len(coeffs) - 1, 0, -1):
                    coeffs[k] -= a * coeffs[k - 1]
            assert charpoly(sparse_mat(jordan(a, n), n)) == coeffs

    def test_jordan_nilpotency_index(self):
        j = sparse_mat(jordan(F(0), 4), 4)
        assert mat_power_is_zero(j, 4)
        assert not mat_power_is_zero(j, 3)


class TestKroneckerDieudonne:
    def test_kronecker_n1(self):
        k1 = kronecker(1)
        assert bracket_of(k1, "e1", "f1") == vec(k1, z=1)
        assert bracket_of(k1, "f1", "e1") == vec(k1, z=1)
        nonzero = [(a, b) for a in k1.labels for b in k1.labels
                   if any(bracket_of(k1, a, b))]
        assert nonzero == [("e1", "f1"), ("f1", "e1")]

    def test_dieudonne_center_contains_z(self):
        for n in (1, 2):
            dn = dieudonne(n)
            assert dn.centers()[2].contains(vec(dn, z=1))


class TestRealify:
    def test_parameter_realification_bracket_list(self):
        # a = 0, b = 1 instance on the pairwise basis {e1,f1,e2,f2,z}
        r = realify_heisenberg(1, GaussRat(0, 1), INTERLEAVED)
        assert r.labels == ("e1", "f1", "e2", "f2", "z")
        table = {("e1", "f1"): 1, ("f1", "e1"): -1,
                 ("e2", "f2"): 1, ("f2", "e2"): -1,
                 ("e1", "f2"): 1, ("f2", "e1"): 1,
                 ("e2", "f1"): -1, ("f1", "e2"): -1}
        for a in r.labels:
            for b in r.labels:
                assert bracket_of(r, a, b) == vec(r, z=table.get((a, b), 0)), (a, b)

    def test_generic_realification_doubles(self):
        l3i = heisenberg_leibniz(1, jordan(GaussRat(0, 1), 1))
        assert l3i.field == QI
        doubled = realify_algebra(l3i)
        assert doubled.dim == 6
        assert realify_heisenberg(1, GaussRat(0, 1)).dim == 5

    def test_generic_realification_of_real_input(self):
        # a real parameter gives an algebra over Q; lift it to Q(i)
        real = heisenberg_leibniz(1, jordan(GaussRat(2), 1))
        l3 = Algebra.from_brackets(QI, real.labels, real.table)
        doubled = realify_algebra(l3)
        assert doubled.dim == 6 and doubled.field == Q
        assert doubled.kind == l3.kind

    def test_realify_derivation_form(self):
        alpha, beta = GaussRat(1, 2), GaussRat(F(1, 2), -1)
        d3 = mat([[alpha, 0, 0], [0, beta, 0],
                  [GaussRat(3), GaussRat(0, 1), alpha + beta]], QI)
        r = realify_derivation(d3.sparse(), 3)
        assert r is None  # gamma has a nonzero imaginary part
        d3 = mat([[alpha, 0, 0], [0, GaussRat(alpha.re, -alpha.im), 0],
                  [GaussRat(3), GaussRat(0, 1), GaussRat(2)]], QI)
        r = realify_derivation(d3.sparse(), 3)
        assert r is not None
        r = to_mat(r, 5)
        assert entry(r, 0, 0) == 1 and entry(r, 0, 1) == 2 and entry(r, 1, 0) == -2
        assert entry(r, 4, 0) == 3 and entry(r, 4, 2) == 0 and entry(r, 4, 3) == 1
        assert entry(r, 4, 4) == 2


    def test_realify_derivation_matches_entrywise_oracle(self):
        """Random Q(i) matrices of size 2-5; about half keep the commutator
        line's column zero above the diagonal and its diagonal entry real,
        so both the None and the realified branches are exercised."""
        rng = Random(14)

        def part():
            return F(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.6 else 0
        outcomes = set()
        for _ in range(300):
            s = rng.randint(2, 5)
            rows = [[GaussRat(part(), part()) for _ in range(s)] for _ in range(s)]
            if rng.random() < 0.7:
                for j in range(s - 1):
                    rows[j][s - 1] = GaussRat(0)
            if rng.random() < 0.7:
                rows[-1][-1] = GaussRat(rows[-1][-1].re)
            m = mat(rows, QI)
            r = realify_derivation(m.sparse(), s)
            assert r == entrywise_realify_derivation(m)
            outcomes.add(r is None)
        assert outcomes == {True, False}

class TestPermutations:
    def test_identity_permutation(self):
        k2 = kronecker(2)
        assert permute_basis(k2, list(range(5))) == k2

    def test_interleave_round_trip(self):
        k2 = kronecker(2)
        perm = interleave_perm(2)
        inv = [0] * 5
        for new, old in enumerate(perm):
            inv[old] = new
        assert permute_basis(permute_basis(k2, perm), inv) == k2

    def test_interleaved_equals_constructor_option(self):
        assert kronecker(2, INTERLEAVED) == \
            permute_basis(kronecker(2), interleave_perm(2))

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            permute_basis(kronecker(1), [0, 0, 2])

    def test_der_commutes_with_permutation(self):
        # Der(permuted L) equals the conjugated Der(L), canonically flattened
        rng = Random(3)
        l5 = heisenberg_leibniz(2, jordan(F(2), 2))
        perm = list(range(5))
        rng.shuffle(perm)
        permuted = permute_basis(l5, perm)
        p = mat([[1 if r == perm[c] else 0 for c in range(5)] for r in range(5)])
        pinv = transpose(p)  # permutation matrices are orthogonal
        conj = [matmul(matmul(pinv, m), p) for m in dense_basis(der_algebra(l5))]
        lhs = der_algebra(permuted).subspace
        rhs = Subspace.span([m.flatten() for m in conj], 25, Q)
        assert lhs == rhs


class TestFamilySpec:
    def test_build_paths(self):
        assert FamilySpec("heisenberg-lie", 2).build() == heisenberg_lie(2)
        assert FamilySpec("heisenberg", 2, a=F(2)).build() == \
            heisenberg_leibniz(2, jordan(F(2), 2))
        assert FamilySpec("kronecker", 3).build() == kronecker(3)
        assert FamilySpec("dieudonne", 1).build() == dieudonne(1)
        assert FamilySpec("realify-heisenberg", 1, a=F(0), b=F(1)).build() == \
            realify_heisenberg(1, GaussRat(0, 1))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            FamilySpec("nope", 1).build()

    def test_name_is_stable(self):
        assert FamilySpec("heisenberg", 2, a=F(1, 2)).name() == \
            "heisenberg n=2 a=1/2"

    @pytest.mark.parametrize("spec,extra", [
        (FamilySpec("kronecker", 1, a=F(5), b=F(7)), "a, b"),
        (FamilySpec("heisenberg", 1, b=F(7)), "b"),
        (FamilySpec("heisenberg-lie", 1, a=F(5)), "a"),
        (FamilySpec("dieudonne", 1, a=F(5)), "a"),
        (FamilySpec("dieudonne", 1, order=INTERLEAVED), "order"),
    ])
    def test_a_parameter_the_family_does_not_take_is_rejected(self, spec, extra):
        with pytest.raises(ValueError, match="family %s does not take %s$"
                           % (spec.family, extra)):
            spec.build()


# the parameter of the largest Heisenberg-type algebra within the cap
_J_CAP = jordan(F(2), (MAX_DIM - 1) // 2)


@pytest.mark.parametrize("build,dim_of", [
    (lambda n: jordan(F(2), n), lambda n: 2 * n + 1),
    (lambda n: heisenberg_leibniz(n, _J_CAP), lambda n: 2 * n + 1),
    (heisenberg_lie, lambda n: 2 * n + 1),
    (kronecker, lambda n: 2 * n + 1),
    (dieudonne, lambda n: 2 * n + 2),
    (lambda n: realify_heisenberg(n, GaussRat(0, 1)), lambda n: 4 * n + 1),
])
def test_dimension_cap(build, dim_of, monkeypatch):
    """The first n whose algebra is larger than MAX_DIM is rejected before
    any matrix or bracket table is built; the n below it builds."""
    n = next(n for n in range(1, MAX_DIM) if dim_of(n) > MAX_DIM)
    build(n - 1)

    def refuse(*args, **kwargs):
        raise AssertionError("built past the cap")
    with monkeypatch.context() as m:
        m.setattr(catalog, "jordan", refuse)
        m.setattr(catalog, "realify_parameter", refuse)
        m.setattr(Algebra, "from_brackets", classmethod(refuse))
        with pytest.raises(ValueError, match="gives dimension %d, above the "
                           "limit of %d" % (dim_of(n), MAX_DIM)):
            build(n)
