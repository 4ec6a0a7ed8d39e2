from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from derleib.algebra import Algebra
from derleib.catalog import (
    FAMILIES,
    GROUPED,
    INTERLEAVED,
    FamilySpec,
    dieudonne,
    heisenberg_leibniz,
    heisenberg_lie,
    jordan,
    kronecker,
    permute_basis,
    realify_heisenberg,
)
from derleib.checkers import (
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
    axpy,
    sparse_commutator,
    sparse_flat,
    sparse_rows,
)

from helpers import (
    abelian,
    adjoint,
    almost_inner_sample,
    basis_vector,
    dense_basis,
    identity,
    lincomb,
    matmul,
    matvec,
    naive_bracket,
    naive_commutator,
    naive_is_derivation,
    naive_structure,
    random_small_algebra,
    rescale_basis,
    to_mat,
    unit,
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
                assert naive_is_derivation(to_mat(m, alg.dim), alg), name

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            is_derivation(Mat.zero(2, 2), heisenberg_lie(1))

    def test_field_mismatch(self):
        m = Mat.from_rows([[0, 0, 0], [0, 0, 0], [GaussRat(0, 1), 0, 0]], QI)
        with pytest.raises(FieldMismatch):
            is_derivation(m, heisenberg_lie(1))


def _frozen_values():
    alg = heisenberg_lie(1)
    der = der_algebra(alg)
    return [alg, der.subspace, jordan(F(2), 2), der]


@pytest.mark.parametrize("k", range(4), ids=["Algebra", "Subspace", "Mat",
                                               "MatrixLieAlgebra"])
def test_values_refuse_assignment(k):
    """Assigning a field or a new attribute raises; the value is unchanged
    and equal, with an equal hash, to a copy built from its fields."""
    value = _frozen_values()[k]
    fields = [getattr(value, f) for f in type(value)._fields]
    for name in (type(value)._fields[0], "extra"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(value, name, None)
    copy = type(value)(*fields)
    assert copy == value and hash(copy) == hash(value)
    assert [getattr(value, f) for f in type(value)._fields] == fields
    with pytest.raises(TypeError):
        type(value)(*fields[:-1])


class TestDerAlgebra:
    def test_abelian_full_endomorphisms(self):
        for k in (1, 2, 3):
            assert der_algebra(abelian(k)).dim == k * k

    def test_catalog_dimensions(self):
        assert der_algebra(dieudonne(1)).dim == 6
        assert der_algebra(heisenberg_leibniz(2, jordan(F(2), 2))).dim == 7

    def test_closure_and_induced_structure(self):
        der = der_algebra(heisenberg_leibniz(2, jordan(F(2), 2)))
        struct = der.structure
        assert struct.kind.lie
        basis = dense_basis(der)
        # induced tensor reproduces the matrix commutators
        for s in (0, 3, 5):
            for t in (1, 2, 6):
                comm = naive_commutator(basis[s], basis[t])
                via_tensor = naive_bracket(struct, basis_vector(struct, s),
                                           basis_vector(struct, t))
                rebuilt = Mat.zero(5, 5, Q)
                for k, cf in enumerate(via_tensor):
                    if cf:
                        rebuilt = lincomb((1, rebuilt), (cf, basis[k]))
                assert rebuilt == comm

    def test_commuting_family_abelian(self):
        mats = [unit(3, 0, 0), unit(3, 1, 1)]
        mla = MatrixLieAlgebra.from_matrices(mats, 3, Q)
        struct = mla.structure
        full = struct.full_space()
        assert struct.product_space(full, full).is_zero()

    def test_non_closed_family_raises(self):
        with pytest.raises(ClosureError):
            MatrixLieAlgebra.from_matrices(
                [unit(2, 0, 1), unit(2, 1, 0)], 2, Q)

    def test_from_subspace_rejects_non_closed_span(self):
        sub = Subspace.span([unit(2, 0, 1).flatten(),
                             unit(2, 1, 0).flatten()], 4, Q)
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
                    assert commutator(a, b) == naive_commutator(a, b)

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
        for m in (unit(4, 0, 0), unit(2, 0, 0)):
            with pytest.raises(ShapeMismatch):
                der.subspace.coords(m.flatten())
            with pytest.raises(ShapeMismatch):
                der.subspace.contains(m.flatten())


def _sparse_matrix(draw, d, values):
    """A sparse d x d matrix ``{row: {column: value}}``: some rows absent,
    every stored row nonempty, no zero value."""
    out = {}
    for r in draw(st.lists(st.integers(0, d - 1), unique=True, max_size=d)):
        cols = draw(st.lists(st.integers(0, d - 1), unique=True, min_size=1, max_size=d))
        out[r] = {c: draw(values) for c in cols}
    return out


# ints and Fractions mixed, as the kit meets both over Q; few values, so
# terms often cancel exactly
_Q_VALUES = (1, -1, 2, -2, F(1, 2), F(-1, 2), 2 ** 70)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_sparse_commutator_against_dense(data):
    field = data.draw(st.sampled_from((Q, QI)))
    d = data.draw(st.integers(1, 6))
    parts = st.sampled_from(_Q_VALUES)
    values = parts if field == Q else st.builds(
        GaussRat, parts, st.sampled_from((0, 1, -1, F(1, 2))))
    a = _sparse_matrix(data.draw, d, values)
    c = _sparse_matrix(data.draw, d, values)
    # b = a or 2a cancels every term; b = a + c has cancellations inside
    b = data.draw(st.sampled_from((
        c, a, {r: {k: 2 * v for k, v in row.items()} for r, row in a.items()},
        sparse_rows(axpy(sparse_flat(c, d), 1, sparse_flat(a, d).items()), d))))
    got = sparse_commutator(a, b, d)
    want = naive_commutator(to_mat(sparse_flat(a, d), d, field),
                            to_mat(sparse_flat(b, d), d, field))
    assert got == want.sparse()
    assert all(got.values())


class TestInner:
    def test_abelian_trivial(self):
        assert inner_derivations(abelian(3)).dim == 0

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
            ads = (adjoint(alg, basis_vector(alg, i)).flatten()
                   for i in range(alg.dim))
            assert inner_derivations(alg).subspace == \
                Subspace.span(ads, alg.dim ** 2, alg.field)

    def test_inner_is_ideal_of_der(self):
        alg = heisenberg_leibniz(2, jordan(F(2), 2))
        der = der_algebra(alg)
        inn = inner_derivations(alg)
        assert der.subspace.contains(inn.subspace)
        for d in dense_basis(der):
            for w in dense_basis(inn):
                assert inn.subspace.contains(commutator(d, w).flatten())

    def test_derivations_preserve_commutator_ideal(self):
        for alg in (kronecker(2), dieudonne(2),
                    heisenberg_leibniz(2, jordan(F(1), 2))):
            comm = alg.product_space(alg.full_space(), alg.full_space())
            for d in dense_basis(der_algebra(alg)):
                for v in comm.basis:
                    assert comm.contains(matvec(d, v))


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
            almost_inner_genus1(abelian(2))

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
    return (naive_is_derivation(d, alg)
            and all(comm.contains(d.col(c)) for c in range(alg.dim))
            and all(not any(matvec(d, v)) for v in alg.centers()[2].basis))


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
    aid = almost_inner_genus1(alg)
    der_basis, aid_basis = dense_basis(der_algebra(alg)), dense_basis(aid)
    for m in aid_basis:
        assert almost_inner_sample(m, alg, trials=10, seed=idx) is None
    rng = Random(idx)
    combos = []
    for _ in range(10):
        acc = Mat.zero(alg.dim, alg.dim, alg.field)
        for m in der_basis:
            acc = lincomb((1, acc), (F(rng.randint(-2, 2)), m))
        combos.append(acc)
    for d in der_basis + aid_basis + tuple(combos):
        assert aid.subspace.contains(d.flatten()) == _naive_almost_inner(d, alg)


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


def _assert_canonical(struct: Algebra):
    """The table the closure writes is the one ``from_brackets`` makes of
    it: same value and hash, keys sorted, k ascending, field scalars."""
    rebuilt = Algebra.from_brackets(struct.field, struct.labels, struct.table)
    assert rebuilt == struct and hash(rebuilt) == hash(struct)
    assert list(struct.table) == sorted(struct.table)
    scalar = F if struct.field == Q else GaussRat
    for terms in struct.table.values():
        assert [k for k, _ in terms] == sorted({k for k, _ in terms})
        assert all(type(cf) is scalar and cf for _, cf in terms)


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
        _assert_canonical(mla.structure)


@pytest.mark.parametrize("idx", range(len(ORACLE_CASES)))
def test_der_membership_matches_is_derivation(idx):
    alg, gens = ORACLE_CASES[idx]
    der = der_algebra(alg)
    rng = Random(idx)
    d = alg.dim
    probes = [to_mat(m, d, alg.field) for m in gens.values()]
    basis = dense_basis(der)
    for _ in range(6):
        acc = Mat.zero(d, d, alg.field)
        for m in basis:
            acc = lincomb((1, acc), (F(rng.randint(-2, 2), rng.choice((1, 2))), m))
        probes.append(acc)
        e = unit(d, rng.randrange(d), rng.randrange(d),
                 alg.field, rng.choice((1, -1, F(1, 2))))
        probes.append(lincomb((1, acc), (1, e)))
    for m in probes:
        want = naive_is_derivation(m, alg)
        assert der.subspace.contains(m.flatten()) == want
        assert is_derivation(m, alg) == want


def test_closure_divides_by_the_pivots():
    # span{diag(2, 1), e12}: the echelon rows keep the pivot 2, and the
    # canonical m1 = diag(1, 1/2) gives [m1, m2] = m2 / 2
    sub = Subspace.span([(2, 0, 0, 1), unit(2, 0, 1).flatten()], 4, Q)
    assert sub.erows == (((0, 2), (3, 1)), ((1, 1),))
    mla = MatrixLieAlgebra.from_subspace(sub, 2)
    assert mla.structure.table == {(0, 1): ((1, F(1, 2)),), (1, 0): ((1, F(-1, 2)),)}
    assert mla.structure == naive_structure(mla)
    _assert_canonical(mla.structure)


def test_der_inn_and_aider_build_their_structure_when_read():
    # labels unique to this test, so no cached value has been read before
    h3 = Algebra.from_brackets(Q, ("h3u", "h3v", "h3w"),
                               {(0, 1): [(2, 1)], (1, 0): [(2, -1)]})
    mlas = [der_algebra(h3), inner_derivations(h3), almost_inner_genus1(h3)]
    assert ["structure" in vars(mla) for mla in mlas] == [False] * 3
    for mla in mlas:
        struct = mla.structure
        assert "structure" in vars(mla) and mla.structure is struct
        assert struct == naive_structure(mla)


def _family_members_upto_3():
    """Every catalog family at n = 1, 2, 3 in both basis orders, with
    parameters over Q and Q(i)."""
    specs = []
    for n in (1, 2, 3):
        specs.append(FamilySpec("dieudonne", n))
        for order in (GROUPED, INTERLEAVED):
            specs += [FamilySpec("heisenberg-lie", n, order=order),
                      FamilySpec("kronecker", n, order=order),
                      FamilySpec("realify-heisenberg", n, a=F(1), b=F(2), order=order)]
            specs += [FamilySpec("heisenberg", n, a=a, order=order)
                      for a in (F(2), F(1), F(0), GaussRat(1, 2), GaussRat(0, 1))]
    assert {spec.family for spec in specs} == set(FAMILIES)
    return specs


@pytest.mark.parametrize("spec", _family_members_upto_3(), ids=FamilySpec.name)
def test_deferred_structure_matches_the_eager_closure(spec):
    """Der, Inn and AIDer defer their closure check to the first read of
    ``structure``; read here, it must pass and give the table that an eager
    ``from_subspace`` of the same subspace gives."""
    alg = spec.build()
    mlas = [der_algebra(alg)]
    if alg.kind.left_leibniz:
        mlas.append(inner_derivations(alg))
    if alg.commutator_ideal.dim == 1:
        mlas.append(almost_inner_genus1(alg))
    for mla in mlas:
        eager = MatrixLieAlgebra.from_subspace(mla.subspace, alg.dim)
        assert "structure" in vars(eager)
        assert mla.structure == eager.structure and mla == eager
        assert mla.structure.field == alg.field


def test_hash_ignores_table_key_order():
    one, minus = ((2, F(1)),), ((2, F(-1)),)
    labels = ("u", "v", "w")  # unique to this test, so the first call misses
    a = Algebra(Q, labels, {(0, 1): one, (1, 0): minus})
    b = Algebra(Q, labels, {(1, 0): minus, (0, 1): one})
    assert a == b and hash(a) == hash(b)
    der = der_algebra(a)
    hits = der_algebra.cache_info().hits
    assert der_algebra(b) is der
    assert der_algebra.cache_info().hits == hits + 1


def _to_sympy(x):
    sympy = pytest.importorskip("sympy")
    if isinstance(x, GaussRat):
        return _to_sympy(x.re) + sympy.I * _to_sympy(x.im)
    return sympy.Rational(F(x).numerator, F(x).denominator)


def _sympy_der_dim(alg: Algebra) -> int:
    """d^2 minus the rank of the derivation identity D[b_i, b_j] =
    [D b_i, b_j] + [b_i, D b_j] in the unknowns D[m][k] (D b_k = sum_m
    D[m][k] b_m): one dense row per (i, j, m), ranked by sympy."""
    pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    d = alg.dim
    c = [[[0] * d for _ in range(d)] for _ in range(d)]
    for (i, j), terms in alg.table.items():
        for k, cf in terms:
            c[i][j][k] = _to_sympy(cf)
    rows = []
    for i in range(d):
        for j in range(d):
            for m in range(d):
                row = [0] * (d * d)
                for k in range(d):
                    row[m * d + k] += c[i][j][k]
                    row[k * d + i] -= c[k][j][m]
                    row[k * d + j] -= c[i][k][m]
                rows.append(row)
    return d * d - DomainMatrix.from_list_sympy(len(rows), d * d, rows).rank()


# mostly small entries and zeros, a few with large numerators or denominators
_FORM_PARTS = (0, 0, 0, 1, -1, 2, F(1, 2), 2 ** 65 + 1, F(-3, 2 ** 40 + 7))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_der_of_random_two_step_nilpotent(data):
    """[x, y] = B(x, y) z for a bilinear form B on F^m: a two-step nilpotent
    left and right Leibniz algebra, whatever B is."""
    field = data.draw(st.sampled_from((Q, QI)))
    m = data.draw(st.integers(1, 4))
    parts = st.sampled_from(_FORM_PARTS)
    scalar = parts if field == Q else st.builds(GaussRat, parts, parts)
    form = [[data.draw(scalar) for _ in range(m)] for _ in range(m)]
    alg = Algebra.from_brackets(field, ["x%d" % i for i in range(m)] + ["z"], {
        (i, j): [(m, form[i][j])] for i in range(m) for j in range(m)})
    der = der_algebra(alg)
    assert der.dim == _sympy_der_dim(alg)
    assert all(naive_is_derivation(mat, alg) for mat in dense_basis(der))


class TestAlmostInnerSample:
    def test_inner_always_passes(self):
        alg = kronecker(2)
        ad = adjoint(alg, basis_vector(alg, 0), "left")
        assert almost_inner_sample(ad, alg, trials=25, seed=1) is None

    def test_exceptional_witnessless_map_passes(self):
        # bottom-row unit in the first column, pairwise basis, a = 1
        alg = heisenberg_leibniz(2, jordan(F(1), 2), INTERLEAVED)
        d = unit(5, 4, 0)
        assert is_derivation(d, alg)
        assert not inner_derivations(alg).subspace.contains(d.flatten())
        assert almost_inner_sample(d, alg, trials=40, seed=2) is None

    def test_diagonal_derivation_is_falsified(self):
        alg = heisenberg_leibniz(2, jordan(F(2), 2))
        gens = heis_grouped_gens(2)
        witness = almost_inner_sample(to_mat(gens["x"], 5), alg, trials=40, seed=3)
        assert witness is not None
        # the witness certifies: x-image escapes the bracket span of witness
        assert any(matvec(to_mat(gens["x"], 5), witness))

    def test_non_derivation_rejected(self):
        with pytest.raises(ValueError):
            almost_inner_sample(identity(3), heisenberg_lie(1))


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
    new = permute_basis(rescale_basis(alg, lam), perm)
    # new basis vector i is lam[perm[i]] b_perm[i]: p maps new coordinates
    # to old ones, s = p^-1 maps old to new, and Der(new) = s Der(alg) p
    p = Mat.from_rows([[lam[r] if r == perm[c] else 0 for c in range(d)]
                       for r in range(d)])
    s = Mat.from_rows([[1 / lam[c] if c == perm[r] else 0 for c in range(d)]
                       for r in range(d)])
    assert matmul(s, p) == identity(d)
    assert new.kind == alg.kind
    der, der_new = der_algebra(alg), der_algebra(new)
    assert der_new.dim == der.dim
    assert der_new.subspace == Subspace.span(
        [matmul(matmul(s, m), p).flatten() for m in dense_basis(der)], d * d, Q)
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
