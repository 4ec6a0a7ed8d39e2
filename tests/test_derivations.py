from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from derleib.algebra import Algebra
from derleib.catalog import (
    INTERLEAVED,
    dieudonne,
    heisenberg_leibniz,
    heisenberg_lie,
    jordan,
    kronecker,
    permute_basis,
    realify_heisenberg,
)
from derleib.claims import (
    dieu_gens,
    heis_grouped_gens,
    j0_gens,
    kron_gens,
    l5r_gens,
)
from derleib.derivations import (
    ClosureError,
    GenusError,
    MatrixLieAlgebra,
    almost_inner_genus1,
    commutator,
    der_algebra,
    inner_derivations,
    is_derivation,
)
from derleib.exactlin import (
    FieldMismatch,
    GaussRat,
    Mat,
    Q,
    QI,
    ShapeMismatch,
    Subspace,
)

from helpers import (
    adjoint,
    almost_inner_sample,
    identity,
    lincomb,
    naive_structure,
    random_small_algebra,
    to_mat,
)


class TestIsDerivation:
    def test_zero_map(self):
        assert is_derivation(Mat.zero(3, 3), heisenberg_lie(1))

    def test_identity_fails_on_graded_algebra(self):
        # z sits in degree two, so the identity map is not a derivation
        assert not is_derivation(identity(3), heisenberg_lie(1))

    def test_named_generators_are_derivations(self):
        for n, a in ((1, F(2)), (2, F(2)), (3, F(-3))):
            alg = heisenberg_leibniz(n, jordan(a, n))
            for name, m in heis_grouped_gens(n).items():
                assert is_derivation(to_mat(m, alg.dim), alg), name

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            is_derivation(Mat.zero(2, 2), heisenberg_lie(1))


class TestDerAlgebra:
    def test_abelian_full_endomorphisms(self):
        for k in (1, 2, 3):
            assert der_algebra(Algebra.abelian(k)).dim == k * k

    def test_catalog_dimensions(self):
        assert der_algebra(dieudonne(1)).dim == 6
        assert der_algebra(heisenberg_leibniz(2, jordan(F(2), 2))).dim == 7

    def test_closure_and_induced_structure(self):
        der = der_algebra(heisenberg_leibniz(2, jordan(F(2), 2)))
        struct = der.structure
        assert struct.kind.lie
        # induced tensor reproduces the matrix commutators
        for s in (0, 3, 5):
            for t in (1, 2, 6):
                comm = commutator(der.basis[s], der.basis[t])
                via_tensor = struct.bracket(struct.basis_vector(s),
                                            struct.basis_vector(t))
                rebuilt = Mat.zero(5, 5, Q)
                for k, cf in enumerate(via_tensor):
                    if cf:
                        rebuilt = lincomb((1, rebuilt), (cf, der.basis[k]))
                assert rebuilt == comm

    def test_commuting_family_abelian(self):
        mats = [Mat.unit(3, 3, 0, 0), Mat.unit(3, 3, 1, 1)]
        mla = MatrixLieAlgebra.from_matrices(mats, 3, Q)
        struct = mla.structure
        full = struct.full_space()
        assert struct.product_space(full, full).is_zero()

    def test_non_closed_family_raises(self):
        with pytest.raises(ClosureError):
            MatrixLieAlgebra.from_matrices(
                [Mat.unit(2, 2, 0, 1), Mat.unit(2, 2, 1, 0)], 2, Q)

    def test_from_subspace_rejects_non_closed_span(self):
        sub = Subspace.span([Mat.unit(2, 2, 0, 1).flatten(),
                             Mat.unit(2, 2, 1, 0).flatten()], 4, Q)
        with pytest.raises(ClosureError):
            MatrixLieAlgebra.from_subspace(sub, 2)

    def test_a_independence(self):
        subs = {der_algebra(heisenberg_leibniz(2, jordan(a, 2))).subspace
                for a in (F(2), F(1, 2), F(-3))}
        assert len(subs) == 1

    def test_intersection_identity(self):
        # Der(J_0) meet Der(kronecker) = Der(J_a) inside 5x5 matrices
        d_j0 = der_algebra(heisenberg_leibniz(2, jordan(F(0), 2))).subspace
        d_k = der_algebra(kronecker(2)).subspace
        d_ja = der_algebra(heisenberg_leibniz(2, jordan(F(2), 2))).subspace
        assert d_j0.intersect(d_k) == d_ja


def _random_mat(rng, d, field, density):
    def entry():
        if rng.random() >= density:
            return 0
        x = F(rng.randint(-3, 3), rng.choice((1, 2)))
        return x if field == Q else GaussRat(x, rng.randint(-2, 2))
    return Mat.from_rows([[entry() for _ in range(d)] for _ in range(d)], field)


class TestCommutator:
    """The sparse-kit commutator against the dense products."""

    @pytest.mark.parametrize("field", [Q, QI])
    def test_against_dense(self, field):
        rng = Random(11)
        for d in (1, 2, 3, 5):
            named = [Mat.zero(d, d, field), identity(d, field)]
            mats = named + [_random_mat(rng, d, field, density)
                            for density in (0.2, 0.5, 1.0) for _ in range(3)]
            for a in mats:
                for b in mats:
                    assert commutator(a, b) == lincomb((1, a * b), (-1, b * a))

    def test_shape_and_field_checked(self):
        with pytest.raises(ShapeMismatch):
            commutator(Mat.zero(2, 3), Mat.zero(2, 3))
        with pytest.raises(ShapeMismatch):
            commutator(Mat.zero(2, 2), Mat.zero(3, 3))
        with pytest.raises(ShapeMismatch):
            commutator(Mat.zero(2, 2), Mat.zero(2, 3))
        with pytest.raises(FieldMismatch):
            commutator(Mat.zero(2, 2, Q), Mat.zero(2, 2, QI))

    def test_coords_checks_shape(self):
        der = der_algebra(heisenberg_lie(1))  # 3x3 matrices
        for m in (Mat.unit(4, 4, 0, 0), Mat.unit(2, 2, 0, 0)):
            with pytest.raises(ShapeMismatch):
                der.coords(m.flatten())
            with pytest.raises(ShapeMismatch):
                der.contains(m.flatten())


class TestInner:
    def test_abelian_trivial(self):
        assert inner_derivations(Algebra.abelian(3)).dim == 0

    def test_exceptional_drop(self):
        assert inner_derivations(heisenberg_leibniz(2, jordan(F(1), 2))).dim == 3
        assert inner_derivations(heisenberg_leibniz(2, jordan(F(-1), 2))).dim == 3

    def test_kronecker_rank(self):
        for n in (1, 2, 3):
            assert inner_derivations(kronecker(n)).dim == 2 * n

    def test_requires_left_leibniz(self):
        right_only = Algebra.from_brackets(Q, ["x", "y"], {(1, 0): [(1, 1)]})
        with pytest.raises(ValueError):
            inner_derivations(right_only)

    def test_matches_dense_adjoints(self):
        # Inn, built from the sparse operators, spans the dense left adjoints
        draws = (random_small_algebra(Random(seed)) for seed in range(50))
        algs = [alg for alg in draws if alg.kind.left_leibniz] + [
            kronecker(3), dieudonne(2),
            heisenberg_leibniz(2, jordan(GaussRat(1, 2), 2))]
        for alg in algs:
            ads = (adjoint(alg, alg.basis_vector(i)).flatten()
                   for i in range(alg.dim))
            assert inner_derivations(alg).subspace == \
                Subspace.span(ads, alg.dim ** 2, alg.field)

    def test_inner_is_ideal_of_der(self):
        alg = heisenberg_leibniz(2, jordan(F(2), 2))
        der = der_algebra(alg)
        inn = inner_derivations(alg)
        assert der.subspace.contains(inn.subspace)
        for d in der.basis:
            for w in inn.basis:
                assert inn.contains(commutator(d, w).flatten())

    def test_derivations_preserve_commutator_ideal(self):
        for alg in (kronecker(2), dieudonne(2),
                    heisenberg_leibniz(2, jordan(F(1), 2))):
            comm = alg.product_space(alg.full_space(), alg.full_space())
            for d in der_algebra(alg).basis:
                for v in comm.basis:
                    assert comm.contains(d.apply(v))


class TestAlmostInner:
    def test_generic_equals_inner(self):
        alg = heisenberg_leibniz(2, jordan(F(2), 2))
        assert almost_inner_genus1(alg).subspace == \
            inner_derivations(alg).subspace

    def test_exceptional_strictly_larger(self):
        alg = heisenberg_leibniz(2, jordan(F(1), 2))
        aid = almost_inner_genus1(alg)
        inn = inner_derivations(alg)
        assert aid.dim == 4 and inn.dim == 3
        assert aid.subspace.contains(inn.subspace)

    def test_dieudonne_dimension(self):
        for n in (1, 2):
            assert almost_inner_genus1(dieudonne(n)).dim == 2 * n + 1

    def test_requires_genus_one(self):
        with pytest.raises(GenusError):
            almost_inner_genus1(Algebra.abelian(2))

    def test_inclusion_chain(self):
        for alg in (kronecker(2), dieudonne(2),
                    heisenberg_leibniz(2, jordan(F(-1), 2))):
            der = der_algebra(alg)
            aid = almost_inner_genus1(alg)
            inn = inner_derivations(alg)
            assert der.subspace.contains(aid.subspace)
            assert aid.subspace.contains(inn.subspace)


def _naive_almost_inner(d: Mat, alg: Algebra) -> bool:
    """Genus 1: a derivation is almost inner iff its image lies in [L, L]
    and it kills the center."""
    full = alg.full_space()
    comm = alg.product_space(full, full)
    return (is_derivation(d, alg)
            and all(comm.contains(d.col(c)) for c in range(alg.dim))
            and all(not any(d.apply(v)) for v in alg.centers()[2].basis))


def _aider_oracle_algebras():
    named = [heisenberg_leibniz(2, jordan(F(1), 2)),
             heisenberg_leibniz(2, jordan(F(-1), 2)),
             heisenberg_leibniz(2, jordan(GaussRat(1, 2), 2)),
             dieudonne(1), dieudonne(2),
             realify_heisenberg(1, GaussRat(0, 1)),
             realify_heisenberg(1, GaussRat(1, 2))]
    randoms = []
    for seed in range(50):
        alg = random_small_algebra(Random(seed))
        full = alg.full_space()
        if alg.product_space(full, full).dim == 1:
            randoms.append(alg)
    out = []
    for alg in named + randoms:
        out.append(alg)
        if alg.field == Q:
            out.append(Algebra.from_brackets(QI, alg.labels, alg.table))
    return out


AIDER_ORACLE_ALGEBRAS = _aider_oracle_algebras()


@pytest.mark.parametrize("idx", range(len(AIDER_ORACLE_ALGEBRAS)))
def test_almost_inner_genus1_against_naive_predicate(idx):
    alg = AIDER_ORACLE_ALGEBRAS[idx]
    der = der_algebra(alg)
    aid = almost_inner_genus1(alg)
    for m in aid.basis:
        assert almost_inner_sample(m, alg, trials=10, seed=idx) is None
    rng = Random(idx)
    combos = []
    for _ in range(10):
        acc = Mat.zero(alg.dim, alg.dim, alg.field)
        for m in der.basis:
            acc = lincomb((1, acc), (F(rng.randint(-2, 2)), m))
        combos.append(acc)
    for d in der.basis + aid.basis + tuple(combos):
        assert aid.contains(d.flatten()) == _naive_almost_inner(d, alg)


def _catalog_upto_3():
    """(algebra, named generators) for the catalog members with n <= 3;
    the generators are {} where the claims name none for that basis."""
    out = []
    for n in (1, 2, 3):
        for a in (F(2), F(1), F(-1), F(0)):
            out.append((heisenberg_leibniz(n, jordan(a, n)), heis_grouped_gens(n)))
        out.append((heisenberg_leibniz(n, jordan(F(0), n), INTERLEAVED), j0_gens(n)))
        out.append((heisenberg_lie(n), {}))
        out.append((kronecker(n), {}))
        out.append((kronecker(n, INTERLEAVED), kron_gens(n)))
        out.append((dieudonne(n), dieu_gens(n)))
    out.append((heisenberg_leibniz(2, jordan(GaussRat(1, 2), 2)), {}))
    out.append((realify_heisenberg(1, GaussRat(0, 1), INTERLEAVED), l5r_gens()))
    out.append((realify_heisenberg(1, GaussRat(1, 2)), {}))
    return out


ORACLE_CASES = (_catalog_upto_3()
                + [(random_small_algebra(Random(seed)), {}) for seed in range(50)])


@pytest.mark.parametrize("idx", range(len(ORACLE_CASES)))
def test_induced_structure_against_dense_commutators(idx):
    alg = ORACLE_CASES[idx][0]
    mlas = [der_algebra(alg)]
    if alg.kind.left_leibniz:
        mlas.append(inner_derivations(alg))
    full = alg.full_space()
    if alg.product_space(full, full).dim == 1:
        mlas.append(almost_inner_genus1(alg))
    for mla in mlas:
        assert mla.structure == naive_structure(mla)


@pytest.mark.parametrize("idx", range(len(ORACLE_CASES)))
def test_der_membership_matches_is_derivation(idx):
    alg, gens = ORACLE_CASES[idx]
    der = der_algebra(alg)
    rng = Random(idx)
    d = alg.dim
    probes = [to_mat(m, d, alg.field) for m in gens.values()]
    for _ in range(6):
        acc = Mat.zero(d, d, alg.field)
        for m in der.basis:
            acc = lincomb((1, acc), (F(rng.randint(-2, 2), rng.choice((1, 2))), m))
        probes.append(acc)
        unit = Mat.unit(d, d, rng.randrange(d), rng.randrange(d),
                        alg.field, rng.choice((1, -1, F(1, 2))))
        probes.append(lincomb((1, acc), (1, unit)))
    for m in probes:
        assert der.contains(m.flatten()) == is_derivation(m, alg)


class TestAlmostInnerSample:
    def test_inner_always_passes(self):
        alg = kronecker(2)
        ad = adjoint(alg, alg.basis_vector(0), "left")
        assert almost_inner_sample(ad, alg, trials=25, seed=1) is None

    def test_exceptional_witnessless_map_passes(self):
        # bottom-row unit in the first column, pairwise basis, a = 1
        alg = heisenberg_leibniz(2, jordan(F(1), 2), INTERLEAVED)
        d = Mat.unit(5, 5, 4, 0)
        assert is_derivation(d, alg)
        assert not inner_derivations(alg).contains(d.flatten())
        assert almost_inner_sample(d, alg, trials=40, seed=2) is None

    def test_diagonal_derivation_is_falsified(self):
        alg = heisenberg_leibniz(2, jordan(F(2), 2))
        gens = heis_grouped_gens(2)
        witness = almost_inner_sample(to_mat(gens["x"], 5), alg, trials=40, seed=3)
        assert witness is not None
        # the witness certifies: x-image escapes the bracket span of witness
        assert any(to_mat(gens["x"], 5).apply(witness))

    def test_non_derivation_rejected(self):
        with pytest.raises(ValueError):
            almost_inner_sample(identity(3), heisenberg_lie(1))


def _rescale(alg: Algebra, lam) -> Algebra:
    """The algebra in the basis b_i' = lam_i b_i: [b_i', b_j'] has the
    coefficient lam_i lam_j c_ijk / lam_k at b_k'."""
    return Algebra.from_brackets(alg.field, alg.labels, {
        (i, j): [(k, lam[i] * lam[j] * cf / lam[k]) for k, cf in terms]
        for (i, j), terms in alg.table.items()})


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10 ** 6), data=st.data())
def test_derivations_under_rescaled_permuted_basis(seed, data):
    """Rescaling by rationals makes the structure constants non-integral, so
    this exercises the lcm scaling of ``Algebra.int_table``."""
    alg = random_small_algebra(Random(seed))
    d = alg.dim
    lam = data.draw(st.lists(st.fractions(-9, 9, max_denominator=9).filter(bool),
                             min_size=d, max_size=d))
    perm = data.draw(st.permutations(range(d)))
    new = permute_basis(_rescale(alg, lam), perm)
    # new basis vector i is lam[perm[i]] b_perm[i]: p maps new coordinates
    # to old ones, s = p^-1 maps old to new, and Der(new) = s Der(alg) p
    p = Mat.from_rows([[lam[r] if r == perm[c] else 0 for c in range(d)]
                       for r in range(d)])
    s = Mat.from_rows([[1 / lam[c] if c == perm[r] else 0 for c in range(d)]
                       for r in range(d)])
    assert s * p == identity(d)
    assert new.kind == alg.kind
    der, der_new = der_algebra(alg), der_algebra(new)
    assert der_new.dim == der.dim
    assert der_new.subspace == Subspace.span([(s * m * p).flatten() for m in der.basis],
                                             d * d, Q)
    # the same table read over Q(i): the pivot-one Q(i) echelon must find
    # the canonical rows the int Q echelon finds, value for value
    over_qi = Algebra.from_brackets(QI, new.labels, new.table)
    assert over_qi.kind == new.kind
    der_qi = der_algebra(over_qi)
    assert der_qi.field == QI and der_qi.subspace.rows == der_new.subspace.rows
    if alg.kind.left_leibniz:
        assert inner_derivations(new).dim == inner_derivations(alg).dim
        assert inner_derivations(over_qi).dim == inner_derivations(new).dim
    if alg.commutator_ideal.dim == 1:
        assert almost_inner_genus1(new).dim == almost_inner_genus1(alg).dim
        assert almost_inner_genus1(over_qi).dim == almost_inner_genus1(new).dim
