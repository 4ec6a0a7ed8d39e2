import re
from fractions import Fraction as F
from itertools import product
from math import gcd, lcm
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from derleib.exactlin import (
    Echelon,
    FieldMismatch,
    GaussRat,
    Mat,
    Q,
    QI,
    ShapeMismatch,
    Subspace,
    format_scalar,
    kernel_from_rows,
    parse_scalar,
    sparse_flat,
    sparse_mul,
    sparse_rows,
    sparse_traces,
)
from helpers import (
    FractionEchelon,
    fraction_coords,
    fraction_intersect,
    fraction_kernel,
    identity,
    mat,
    mat_row,
    matmul,
    matvec,
    nullspace,
    solve,
    split_parse_scalar,
    sparse_trace,
    trace,
    transpose,
    zero_mat,
)


def rand_mat(rng, rows, cols, field=Q):
    data = [[F(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(cols)]
            for _ in range(rows)]
    return mat(data, field)


def _row_space(m: Mat) -> Subspace:
    """The row space of ``m``; its ``basis`` is the nonzero RREF rows."""
    return Subspace.span((mat_row(m, r) for r in range(m.rows)), m.cols, m.field)


class TestScalars:
    def test_parse_format_round_trip(self):
        for text in ["0", "3", "-3", "3/2", "-7/3", "i", "-i", "2i", "-5/2i",
                     "1+1i", "1-1i", "1/2-3/4i", "-2+7i"]:
            s = parse_scalar(text, QI)
            assert parse_scalar(format_scalar(s), QI) == s

    def test_parse_rejects_garbage(self):
        for text in ["", "x", "1/", "/2", "1 + 1i", "2+2", "--3", "1+i2",
                     "1/0", "0/0", "1/0i", "1+1/0i", "1/0+1i", "-3/0-i"]:
            with pytest.raises(ValueError):
                parse_scalar(text, QI)

    def test_field_q_rejects_imaginary(self):
        with pytest.raises(ValueError):
            parse_scalar("1+1i", Q)
        assert parse_scalar("5/3", Q) == F(5, 3)

    @pytest.mark.parametrize("field", [Q, QI])
    def test_parse_agrees_with_the_split_parser(self, field):
        """Every token of length <= 5 over ``012/+-i`` gives the same value
        and type, or the same exception class.  The messages may differ only
        on a malformed token that also holds a zero denominator, e.g.
        ``i+1/0i``: the split parser reads the denominator first."""
        def outcome(parse, tok):
            try:
                v = parse(tok, field)
            except ValueError as exc:
                return type(exc), str(exc)
            return type(v), v

        for length in range(6):
            for chars in product("012/+-i", repeat=length):
                tok = "".join(chars)
                new, old = outcome(parse_scalar, tok), outcome(split_parse_scalar, tok)
                if new != old:
                    assert new[0] is old[0] is ValueError, tok
                    assert new[1].startswith("malformed"), tok
                    assert old[1].startswith("zero denominator"), tok
                    assert re.search("/0+(?![0-9])", tok), tok

    def test_gauss_arithmetic(self):
        i = GaussRat(0, 1)
        assert i * i == -1
        assert (GaussRat(1, 2) * GaussRat(3, -1)) == GaussRat(5, 5)
        assert GaussRat(1, 1) / GaussRat(0, 1) == GaussRat(1, -1)
        assert 1 / GaussRat(0, 1) == GaussRat(0, -1)
        assert GaussRat(2, 0) == F(2) and GaussRat(2, 0) == 2
        assert bool(GaussRat()) is False

    def test_field_closure_rational_ops(self):
        # operations on Q matrices never produce imaginary parts
        rng = Random(5)
        m = rand_mat(rng, 4, 4)
        r = _row_space(m)
        assert all(isinstance(x, F) for row in r.basis for x in row)
        ker = nullspace(m)
        assert all(isinstance(x, F) for row in ker.basis for x in row)


class TestRref:
    def test_proportional_rows(self):
        m = mat([[2, 4], [1, 2]])
        r = _row_space(m)
        assert r.dim == 1
        assert r.basis == ((1, 2),)

    def test_identity_fixed(self):
        m = identity(3)
        r = _row_space(m)
        assert (r.basis, r.dim) == (tuple(mat_row(m, k) for k in range(3)), 3)

    def test_row_space_preserved_random(self):
        # oracle: each row of one matrix solves against the other's row space
        rng = Random(11)
        for _ in range(5):
            m = rand_mat(rng, 5, 7)
            r = mat(_row_space(m).basis)
            mt = transpose(m)
            rt = transpose(r)
            for k in range(5):
                assert solve(rt, mat_row(m, k)) is not None
            for k in range(r.rows):
                assert solve(mt, mat_row(r, k)) is not None


class TestNullspace:
    def test_identity_trivial(self):
        assert nullspace(identity(4)).dim == 0

    def test_rank_one(self):
        assert nullspace(mat([[1, 1, 0]])).dim == 2

    def test_exact_annihilation_random(self):
        rng = Random(7)
        for _ in range(5):
            m = rand_mat(rng, 6, 6)
            ker = nullspace(m)
            for v in ker.basis:
                assert not any(matvec(m, v))

    def test_rank_nullity(self):
        rng = Random(13)
        for _ in range(10):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            m = rand_mat(rng, rows, cols)
            assert _row_space(m).dim + nullspace(m).dim == cols


class TestSolve:
    def test_identity(self):
        b = (F(1), F(-2), F(3))
        assert solve(identity(3), b) == b

    def test_underdetermined_by_substitution(self):
        m = mat([[1, 1]])
        x = solve(m, (F(3),))
        assert x is not None and x[0] + x[1] == 3

    def test_random_consistent_residual_zero(self):
        rng = Random(17)
        for _ in range(8):
            m = rand_mat(rng, 4, 5)
            xs = tuple(F(rng.randint(-3, 3)) for _ in range(5))
            b = matvec(m, xs)
            x = solve(m, b)
            assert x is not None and matvec(m, x) == b

    def test_inconsistent_is_none(self):
        m = mat([[1, 1], [1, 1]])
        assert solve(m, (F(1), F(2))) is None


class TestSubspace:
    def test_sum_with_zero(self):
        u = Subspace.span([(F(1), F(2), F(0))], 3)
        assert u.sum(Subspace.zero(3)) == u

    def test_sum_of_axes(self):
        e1 = Subspace.span([(F(1), F(0))], 2)
        e2 = Subspace.span([(F(0), F(1))], 2)
        assert e1.sum(e2).dim == 2
        assert e1.intersect(e2).dim == 0

    def test_self_intersection(self):
        u = Subspace.span([(F(1), F(0), F(1)), (F(0), F(1), F(1))], 3)
        assert u.intersect(u) == u

    def test_dimension_identity_random(self):
        rng = Random(19)
        for _ in range(10):
            u = Subspace.span([tuple(F(rng.randint(-2, 2)) for _ in range(6))
                               for _ in range(rng.randint(1, 4))], 6)
            v = Subspace.span([tuple(F(rng.randint(-2, 2)) for _ in range(6))
                               for _ in range(rng.randint(1, 4))], 6)
            assert u.sum(v).dim == u.dim + v.dim - u.intersect(v).dim

    def test_canonical_under_respanning(self):
        rng = Random(23)
        base = [tuple(F(rng.randint(-3, 3)) for _ in range(5)) for _ in range(3)]
        u = Subspace.span(base, 5)
        for _ in range(5):
            coeffs = [[F(rng.randint(-3, 3)) for _ in range(3)] for _ in range(4)]
            respanned = []
            for row in coeffs:
                vec = [F(0)] * 5
                for cf, b in zip(row, base):
                    for k in range(5):
                        vec[k] += cf * b[k]
                respanned.append(tuple(vec))
            v = Subspace.span(respanned, 5)
            assert v.dim < 3 or v == u

    def test_contains(self):
        u = Subspace.span([(F(1), F(1), F(0)), (F(0), F(0), F(1))], 3)
        for row in u.basis:
            assert u.contains(row)
        assert u.contains((F(0), F(0), F(0)))
        assert not u.contains((F(1), F(0), F(0)))

    def test_coords_round_trip(self):
        u = Subspace.span([(F(1), F(2), F(0)), (F(0), F(0), F(1))], 3)
        v = (F(2), F(4), F(-1))
        cs = u.coords(v)
        assert cs is not None
        rebuilt = [F(0)] * 3
        for cf, row in zip(cs, u.basis):
            for k in range(3):
                rebuilt[k] += cf * row[k]
        assert tuple(rebuilt) == v
        assert u.coords((F(1), F(0), F(0))) is None

    def test_sparse_vector_checked_by_column_range(self):
        full = Subspace.full(3)
        assert full.contains({0: F(1)})
        assert full.contains({})
        assert full.coords({2: F(5)}) == (F(0), F(0), F(5))
        u = Subspace.span([(F(1), F(0), F(1))], 3)
        assert u.contains({0: F(2), 2: F(2)})
        assert not u.contains({1: F(1)})
        assert u.coords({0: F(3), 2: F(3)}) == (F(3),)
        assert u.coords({1: F(1)}) is None
        for bad in ({3: F(1)}, {-1: F(1)}, {1: F(0), 2: F(0), 3: F(1)}):
            with pytest.raises(ShapeMismatch):
                u.contains(bad)
            with pytest.raises(ShapeMismatch):
                u.coords(bad)

    def test_dense_vector_checked_by_length(self):
        u = Subspace.span([(F(1), F(0), F(1))], 3)
        for bad in ((F(1),), (F(1), F(0), F(1), F(0))):
            with pytest.raises(ShapeMismatch):
                u.contains(bad)
            with pytest.raises(ShapeMismatch):
                u.coords(bad)

    def test_ambient_mismatch(self):
        u = Subspace.span([(F(1),)], 1)
        v = Subspace.span([(F(1), F(0))], 2)
        with pytest.raises(ShapeMismatch):
            u.sum(v)
        with pytest.raises(ShapeMismatch):
            u.intersect(v)

    def test_field_mismatch(self):
        a = identity(2, Q)
        b = identity(2, QI)
        with pytest.raises(FieldMismatch):
            a * b


class TestMatShape:
    @pytest.mark.parametrize("build", [
        lambda: zero_mat(-2, -2),
        lambda: zero_mat(2, -1),
        lambda: identity(-1),
        lambda: mat([[1, 2], [3]]),
        lambda: Mat.unflatten((F(0),) * 3, 2, 2, Q),
        lambda: zero_mat(2, 3) * zero_mat(2, 3),
        lambda: Mat(2, 2, Q, (F(0),) * 3),
    ])
    def test_invalid_shape_rejected(self, build):
        with pytest.raises(ShapeMismatch):
            build()

    def test_empty_and_unit(self):
        assert zero_mat(0, 3).entries == ()
        assert identity(0).entries == ()
        assert Mat.unflatten({5: F(1)}, 2, 3, Q).entries == (F(0),) * 5 + (F(1),)


def _sparse(m: Mat) -> dict:
    return sparse_rows({i: x for i, x in enumerate(m.entries) if x}, m.cols)


class TestSparseKit:
    @pytest.mark.parametrize("field", [Q, QI])
    def test_against_dense(self, field):
        rng = Random(7)
        for _ in range(20):
            a, b = (mat([[F(rng.choice((0, 0, 0, 1, -2)), rng.choice((1, 3)))
                          for _ in range(4)] for _ in range(4)], field)
                    for _ in range(2))
            sa, sb = _sparse(a), _sparse(b)
            assert sparse_mul(sa, sb) == _sparse(matmul(a, b))
            assert sparse_trace(sa, sb) == trace(matmul(a, b))
            assert sparse_traces([sa, sb], [sb]) == {
                s: {0: v} for s, v in enumerate(
                    (sparse_trace(sa, sb), sparse_trace(sb, sb))) if v}
            assert sparse_flat(sa, 4) == {i: x for i, x in enumerate(a.entries) if x}
            assert sparse_rows(sparse_flat(sa, 4), 4) == sa


class TestMatMul:
    """``Mat.__mul__`` delegates to :func:`sparse_mul`; the dense oracle
    multiplies entry by entry.  Its field and shape checks are in
    ``TestSubspace.test_field_mismatch`` and ``TestMatShape``."""

    @pytest.mark.parametrize("field", [Q, QI])
    def test_against_dense_oracle(self, field):
        rng = Random(29)

        def entry():
            x = F(rng.choice((0, 0, 1, -2, 3)), rng.choice((1, 2)))
            return x if field == Q else GaussRat(x, rng.choice((0, 0, 1, F(-1, 3))))
        for _ in range(60):
            n, k, m = (rng.randint(0, 4) for _ in range(3))
            a, b = (Mat.unflatten([entry() for _ in range(r * c)], r, c, field)
                    for r, c in ((n, k), (k, m)))
            got = a * b
            assert got == matmul(a, b), (n, k, m)
            assert (got.rows, got.cols, got.field) == (n, m, field)


class TestEchelon:
    def test_incremental_rank(self):
        ech = Echelon(3, Q)
        assert ech.insert((F(1), F(1), F(0)))
        assert not ech.insert((F(2), F(2), F(0)))
        assert ech.insert({2: F(5)})
        assert ech.rank == 2
        assert ech.contains({0: F(3), 1: F(3), 2: F(7)})



def _system(rng, field, ncols=None):
    """Seeded rows over Q or Q(i) that stress the integer echelon: parts
    with denominators up to 9, about one numerator in five above 2**64,
    and duplicate, dependent and zero rows among independent ones."""
    def part():
        if rng.random() < 0.2:
            return F(rng.choice((1, -1)) * rng.randint(2 ** 64, 2 ** 70), rng.randint(1, 9))
        return F(rng.randint(-5, 5), rng.randint(1, 9))

    zero = F(0) if field == Q else GaussRat()

    def entry():
        if rng.random() < 0.4:
            return zero
        return part() if field == Q else GaussRat(part(), part())
    ncols = ncols or rng.randint(1, 7)
    rows = []
    for _ in range(rng.randint(1, 8)):
        shape = rng.random()
        if rows and shape < 0.15:
            rows.append(rng.choice(rows))
        elif len(rows) >= 2 and shape < 0.35:
            a, b = rng.sample(rows, 2)
            cf = part()
            rows.append(tuple(x + cf * y for x, y in zip(a, b)))
        elif shape < 0.45:
            rows.append((zero,) * ncols)
        else:
            rows.append(tuple(entry() for _ in range(ncols)))
    return rows, ncols


def _assert_projective(ech):
    """Each row starts at its pivot and is zero at every other pivot; over Q
    it is a coprime int vector with a positive pivot, over Q(i) pivot one."""
    for p, row in ech.rows.items():
        assert min(row) == p
        assert not any(c != p and c in ech.rows for c in row)
        if ech.field == Q:
            assert all(type(v) is int for v in row.values())
            assert row[p] > 0 and gcd(*row.values()) == 1
        else:
            assert row[p] == 1


def _assert_erows_projective(ech):
    """:func:`_assert_projective` on the public rows, :meth:`Echelon.erows`."""
    _assert_projective(SimpleNamespace(
        field=ech.field, rows={row[0][0]: dict(row) for row in ech.erows()}))


def _assert_int_rows(ech):
    """The internal rows after a read, over both fields: each is a coprime
    int vector with a positive pivot, starts at its pivot and is zero at
    every other pivot, inside the real columns, 2 * ncols of them over
    Q(i), where the pivots come in pairs 2p, 2p+1."""
    width = ech.ncols if ech.field == Q else 2 * ech.ncols
    for p, row in ech.rows.items():
        assert min(row) == p and max(row) < width
        assert not any(c != p and c in ech.rows for c in row)
        assert all(type(v) is int and v for v in row.values())
        assert row[p] > 0 and gcd(*row.values()) == 1
        if ech.field != Q:
            assert p ^ 1 in ech.rows


class TestEchelonAgainstFractions:
    """The integer echelon against the engine's earlier Fraction echelon,
    ``helpers.FractionEchelon``, and the kernel, intersection and
    coordinates that were built on it, on the same seeded systems."""

    @pytest.mark.parametrize("field", [Q, QI])
    @pytest.mark.parametrize("seed", range(40))
    def test_rows_rank_and_membership(self, field, seed):
        rng = Random(seed)
        rows, ncols = _system(rng, field)
        ech, ref = Echelon(ncols, field), FractionEchelon(ncols)
        for k, row in enumerate(rows):
            vec = row if k % 2 else {c: x for c, x in enumerate(row) if x}
            assert ech.insert(vec) == ref.insert(vec)
            _assert_erows_projective(ech)
            _assert_int_rows(ech)
        assert ech.canonical_rows() == ref.canonical_rows()
        assert ech.rank == ref.rank
        for vec in rows + _system(rng, field, ncols)[0]:
            assert ech.contains(vec) == ref.contains(vec)

    @pytest.mark.parametrize("field", [Q, QI])
    @pytest.mark.parametrize("seed", range(40))
    def test_kernel(self, field, seed):
        rows, ncols = _system(Random(1000 + seed), field)
        assert kernel_from_rows(rows, ncols, field).rows == \
            fraction_kernel(rows, ncols, field)

    @pytest.mark.parametrize("field", [Q, QI])
    @pytest.mark.parametrize("seed", range(40))
    def test_intersect_and_coords(self, field, seed):
        rng = Random(2000 + seed)
        ru, n = _system(rng, field)
        rv = _system(rng, field, n)[0]
        u, v = Subspace.span(ru, n, field), Subspace.span(rv, n, field)
        assert u.intersect(v).rows == fraction_intersect(u.rows, v.rows, n)
        for vec in ru + rv:
            assert u.coords(vec) == fraction_coords(u.rows, vec)

    @pytest.mark.parametrize("field", [Q, QI])
    @pytest.mark.parametrize("seed", range(40))
    def test_take_coords(self, field, seed):
        # a vector handed over (over Q an int row) gives the nonzero values
        # of `coords` keyed by pivot, or None when it lies outside
        rng = Random(3000 + seed)
        ru, n = _system(rng, field)
        u = Subspace.span(ru, n, field)
        for vec in ru + _system(rng, field, n)[0]:
            if field == Q:
                m = lcm(*(x.denominator for x in vec))
                vec = tuple(int(x * m) for x in vec)
            cs = u.coords(vec)
            want = None if cs is None else [(p, x) for p, x in zip(u.pivots, cs) if x]
            assert u.take_coords({c: x for c, x in enumerate(vec) if x}) == want


class TestOneEliminationLoop:
    """Over Q(i) the solver runs the int loop on the realified rows, so no
    :class:`GaussRat` arithmetic happens in it: the parts are read on the
    way in and the pivot-one rows built on the way out."""

    DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__truediv__", "__rtruediv__", "__neg__")

    @pytest.mark.parametrize("seed", range(10))
    def test_no_gaussrat_arithmetic_in_the_solver(self, monkeypatch, seed):
        rng = Random(5000 + seed)
        ru, n = _system(rng, QI)
        rv = _system(rng, QI, n)[0]

        def forbidden(*args):
            raise AssertionError("GaussRat arithmetic in the solver")
        for name in self.DUNDERS:
            monkeypatch.setattr(GaussRat, name, forbidden)
        kernel = kernel_from_rows(ru, n, QI)
        u, v = Subspace.span(ru, n, QI), Subspace.span(rv, n, QI)
        member = [u.contains(vec) for vec in ru + rv] + [u.contains(kernel)]
        coords = [u.coords(vec) for vec in ru + rv]
        meet = u.intersect(v)
        monkeypatch.undo()
        assert kernel.rows == fraction_kernel(ru, n, QI)
        assert meet.rows == fraction_intersect(u.rows, v.rows, n)
        assert coords == [fraction_coords(u.rows, vec) for vec in ru + rv]
        ref = FractionEchelon(n)
        for row in u.rows:
            ref.insert(dict(row))
        assert member == [ref.contains(vec) for vec in ru + rv] + \
            [all(ref.contains(dict(row)) for row in kernel.rows)]


def _over_1_plus_2i(a, b, k):
    """(a + bi) / (1 + 2i)^k = (a + bi)(1 - 2i)^k / 5^k, built from ints."""
    re, im = 1, 0
    for _ in range(k):
        re, im = re + 2 * im, im - 2 * re
    return GaussRat(F(a * re - b * im, 5 ** k), F(a * im + b * re, 5 ** k))


_PART = st.one_of(
    st.builds(F, st.integers(-5, 5), st.integers(1, 9)),
    st.builds(lambda s, m, d: F(s * m, d), st.sampled_from((1, -1)),
              st.integers(2 ** 64, 2 ** 70), st.integers(1, 9)))
_ENTRY = {
    Q: st.one_of(st.just(F(0)), _PART),
    QI: st.one_of(st.just(GaussRat()), st.builds(GaussRat, _PART, _PART),
                  st.builds(_over_1_plus_2i, st.integers(-3, 3),
                            st.integers(-3, 3), st.integers(1, 6))),
}


# small int parts: the pivot values of the stored rows, 1 among them, then
# divide the entries they clear, so ``Echelon._reduce`` clears them unscaled
_SMALL = st.sampled_from((0, 1, -1, 2, -2, 4, -6)).map(F)
_DIVIDING = {Q: _SMALL, QI: st.builds(GaussRat, _SMALL, _SMALL)}


@st.composite
def _echelon_scripts(draw):
    """A field, a width, a script of (op, dense vector, dependent, sparse)
    steps and whether the row reads wait to the end; a dependent step
    replaces the vector by a combination of the vectors inserted so far,
    with the drawn entries as coefficients.  The entries are drawn from
    :data:`_ENTRY` or, in about half the scripts, from :data:`_DIVIDING`."""
    field = draw(st.sampled_from((Q, QI)))
    ncols = draw(st.integers(1, 6))
    entry = draw(st.sampled_from((_ENTRY, _DIVIDING)))[field]
    vec = st.lists(entry, min_size=ncols, max_size=ncols).map(tuple)
    step = st.tuples(st.sampled_from(("insert", "contains")), vec,
                     st.booleans(), st.booleans())
    return (field, ncols, draw(st.lists(step, min_size=1, max_size=8)),
            draw(st.booleans()))


def _assert_reads(ech, ref, inserted):
    """The rows ``ech`` reads back match the oracle's and the span's."""
    assert ech.canonical_rows() == ref.canonical_rows()
    _assert_erows_projective(ech)
    assert Subspace.span(inserted, ech.ncols, ech.field).erows == ech.erows()


class TestEchelonProperty:
    """Interleaved ``insert``, ``contains``, ``erows``, ``canonical_rows``
    and ``rank``, then ``kernel_from_rows`` and ``intersect``, against the
    Fraction oracles on drawn vectors: over Q(i) with entries over powers
    of 1 + 2i, over both fields with numerators above 2**64, and with small
    int entries, where a pivot value divides the entries it clears.  In the
    scripts that read the rows only at the end, every probe meets the rows
    as inserts leave them, forward-reduced and not yet back-substituted."""

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(_echelon_scripts())
    def test_interleaved_operations_match_the_fraction_echelon(self, script):
        field, ncols, steps, reads_at_end = script
        zero = F(0) if field == Q else GaussRat()
        ech, ref = Echelon(ncols, field), FractionEchelon(ncols)
        inserted, probed = [], []
        for op, vec, dependent, sparse in steps:
            if dependent and inserted:
                acc = [zero] * ncols
                for cf, other in zip(vec * len(inserted), inserted):
                    acc = [x + cf * y for x, y in zip(acc, other)]
                vec = tuple(acc)
            arg = {c: x for c, x in enumerate(vec) if x} if sparse else vec
            if op == "insert":
                assert ech.insert(arg) == ref.insert(arg)
                inserted.append(vec)
            else:
                assert ech.contains(arg) == ref.contains(arg)
                probed.append(vec)
            if dependent and inserted and op == "contains":
                assert ech.contains(arg)
            assert ech.rank == ref.rank
            if not reads_at_end:
                _assert_reads(ech, ref, inserted)
        _assert_reads(ech, ref, inserted)
        assert kernel_from_rows(inserted, ncols, field).rows == \
            fraction_kernel(inserted, ncols, field)
        u = Subspace.span(inserted, ncols, field)
        v = Subspace.span(probed, ncols, field)
        assert u.intersect(v).rows == fraction_intersect(u.rows, v.rows, ncols)


@pytest.mark.parametrize("field", (Q, QI))
def test_echelon_leaves_the_callers_dicts_alone(field):
    """The echelon's back pass updates the rows it owns in place; a dict a
    caller hands to ``insert``, ``contains``, ``Subspace.span`` or
    ``kernel_from_rows`` is not one of them, also when the same dict is
    inserted twice.  Over Q the int rows have coprime entries and pivot
    value 1, so a row stored as the caller's dict would be reduced in place
    when the span or the kernel reads its rows."""
    ints = [{0: 1, 1: 2, 3: 3}, {1: 1, 2: 3}, {0: 1, 1: 1, 2: 1}, {2: 2, 3: 1}]
    vecs = [{c: x if field == Q else GaussRat(x, x) for c, x in v.items()}
            for v in ints]
    copies = [dict(v) for v in vecs]
    ech = Echelon(5, field)
    for v in vecs + vecs[:1]:
        ech.insert(v)
        assert ech.contains(v)
    assert vecs == copies
    Subspace.span(vecs + vecs, 5, field)
    kernel_from_rows(vecs + vecs, 5, field)
    assert vecs == copies


@pytest.mark.parametrize("field", (Q, QI))
def test_insert_leaves_the_stored_rows_until_they_are_read(field):
    """An insert only forward-reduces: the second vector's pivot column is
    an entry of the first row, and that row stays the same dict with the
    same items until ``erows`` runs the back pass.  A second ``erows``
    reads the same rows and changes none.  ``kernel_from_rows`` runs the
    back pass too: on the forward rows its kernel vector would be wrong."""
    lift = F if field == Q else (lambda x: GaussRat(x, x))
    vecs = [{c: lift(x) for c, x in v.items()}
            for v in ({0: 1, 1: 2, 2: 3}, {1: 1, 2: 1})]
    ech = Echelon(3, field)
    ech.insert(vecs[0])
    first = {p: (row, dict(row)) for p, row in ech.rows.items()}
    assert ech.insert(vecs[1])
    assert all(ech.rows[p] is row and row == items for p, (row, items) in first.items())
    rows = ech.erows()
    assert rows == (((0, 1), (2, 1)), ((1, 1), (2, 1)))
    reduced = {p: (row, dict(row)) for p, row in ech.rows.items()}
    assert ech.erows() == rows
    assert all(ech.rows[p] is row and row == items for p, (row, items) in reduced.items())
    assert kernel_from_rows(vecs, 3, field).rows == (((0, 1), (1, 1), (2, -1)),)


def _read_then_fail(vectors):
    yield from vectors
    raise AssertionError("a vector was read after full rank")


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_full_rank_stops_span_and_kernel(data):
    """``Subspace.span`` returns ``Subspace.full``, and ``kernel_from_rows``
    ``Subspace.zero``, once the vectors reach full rank, and read no vector
    after that.  Drawn systems over Q and Q(i), half of them holding the
    rows of an invertible matrix (upper triangular with a nonzero diagonal,
    columns permuted) among random rows: the span and the kernel
    against :class:`FractionEchelon` and :func:`fraction_kernel`, and at
    full rank against ``full`` and ``zero``, whose rows have the scalar
    types an :class:`Echelon` reads back."""
    draw = data.draw
    field = draw(st.sampled_from((Q, QI)))
    n = draw(st.integers(0, 5))
    entry, zero = _ENTRY[field], (F(0) if field == Q else GaussRat())
    vectors = draw(st.lists(st.lists(entry, min_size=n, max_size=n).map(tuple),
                            max_size=4))
    if draw(st.booleans()):
        cols = draw(st.permutations(range(n)))
        square = [[zero] * n for _ in range(n)]
        for k in range(n):
            square[k][cols[k]] = draw(entry.filter(bool))
            for j in range(k + 1, n):
                square[k][cols[j]] = draw(entry)
        at = draw(st.integers(0, len(vectors)))
        vectors[at:at] = map(tuple, square)
    ech, oracle = Echelon(n, field), FractionEchelon(n)
    for v in vectors:
        ech.insert(v)
        oracle.insert(v)
    assert Subspace.span(vectors, n, field).rows == oracle.canonical_rows()
    assert kernel_from_rows(vectors, n, field).rows == fraction_kernel(vectors, n, field)
    if oracle.rank == n:
        full = Subspace.full(n, field)
        assert Subspace.span(vectors, n, field) == full
        assert [type(x) for row in full.erows for _, x in row] == \
            [type(x) for row in ech.erows() for _, x in row]
        assert full.erows == ech.erows()
        assert kernel_from_rows(vectors, n, field) == Subspace.zero(n, field)
        if n:  # at n = 0 the rank is full before the first vector
            assert Subspace.span(_read_then_fail(vectors), n, field) == full
            assert kernel_from_rows(_read_then_fail(vectors), n, field).is_zero()


def _oracle_rows(rng, field):
    """Seeded random rows over Q or Q(i): parts in {-3..3}/{1,2}, about 40%
    of the entries zero."""
    def part():
        return F(rng.randint(-3, 3), rng.choice((1, 2)))

    def entry():
        if rng.random() < 0.4:
            return F(0) if field == Q else GaussRat()
        return part() if field == Q else GaussRat(part(), part())
    ncols = rng.randint(1, 6)
    return [tuple(entry() for _ in range(ncols))
            for _ in range(rng.randint(1, 5))], ncols


class TestStoredForm:
    """``Subspace.erows`` is the one stored row form: unique to the subspace,
    so any spanning set gives the same rows and hash, and every constructor
    stores what ``span`` stores."""

    @staticmethod
    def _assert_stored_form(sub):
        assert all(list(row) == sorted(row) for row in sub.erows)
        assert list(sub.pivots) == sorted(sub.pivots)
        _assert_projective(SimpleNamespace(
            field=sub.field, rows={row[0][0]: dict(row) for row in sub.erows}))

    @pytest.mark.parametrize("field", [Q, QI])
    @pytest.mark.parametrize("seed", range(30))
    def test_any_spanning_set_gives_the_same_rows(self, field, seed):
        rng = Random(3000 + seed)
        rows, n = _system(rng, field)
        sub = Subspace.span(rows, n, field)
        self._assert_stored_form(sub)

        def scalar():
            x = F(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9))
            return x if field == Q else GaussRat(x, rng.randint(-3, 3))
        def rescaled(row, plus=None):
            cf = scalar()
            return tuple(cf * x + (plus[c] if plus else 0) for c, x in enumerate(row))
        other = [rescaled(row) for row in rows]
        other += [rescaled(rng.choice(rows), rng.choice(rows)), rng.choice(rows)]
        rng.shuffle(other)
        other = [{c: x for c, x in enumerate(row) if x} if k % 2 else row
                 for k, row in enumerate(other)]
        alt = Subspace.span(other, n, field)
        assert alt.erows == sub.erows and alt == sub and hash(alt) == hash(sub)

    @pytest.mark.parametrize("field", [Q, QI])
    @pytest.mark.parametrize("seed", range(30))
    def test_every_constructor_stores_the_span_form(self, field, seed):
        rng = Random(4000 + seed)
        ru, n = _system(rng, field)
        rv = _system(rng, field, n)[0]
        u, v = Subspace.span(ru, n, field), Subspace.span(rv, n, field)
        for sub in (Subspace.full(n, field), Subspace.zero(n, field),
                    kernel_from_rows(ru, n, field), u.intersect(v), u.sum(v)):
            self._assert_stored_form(sub)
            again = Subspace.span(sub.basis, n, field)
            assert sub.erows == again.erows and hash(sub) == hash(again)


class TestSparseRowsAgainstSympy:
    """The sparse canonical rows, their dense view and the operations that
    read them, checked against sympy's exact linear algebra."""

    @staticmethod
    def _to_sympy(x):
        sympy = pytest.importorskip("sympy")
        re, im = (x.re, x.im) if isinstance(x, GaussRat) else (x, F(0))
        return (sympy.Rational(re.numerator, re.denominator)
                + sympy.I * sympy.Rational(im.numerator, im.denominator))

    @staticmethod
    def _from_sympy(e, field):
        sympy = pytest.importorskip("sympy")
        re, im = (F(int(p.p), int(p.q)) for p in
                  (sympy.Rational(q) for q in sympy.expand_complex(e).as_real_imag()))
        return re if field == Q else GaussRat(re, im)

    def _matrix(self, rows):
        sympy = pytest.importorskip("sympy")
        return sympy.Matrix([[self._to_sympy(x) for x in row] for row in rows])

    @pytest.mark.parametrize("field", [Q, QI])
    @pytest.mark.parametrize("seed", range(15))
    def test_span_is_sympy_rref(self, field, seed):
        rows, ncols = _oracle_rows(Random(seed), field)
        sub = Subspace.span(rows, ncols, field)
        red = self._matrix(rows).rref(simplify=True)[0]
        want = [tuple(self._from_sympy(x, field) for x in red.row(r))
                for r in range(red.rows)]
        want = [row for row in want if any(row)]
        assert list(sub.basis) == want
        for row, dense in zip(sub.rows, sub.basis):
            assert row == tuple((c, x) for c, x in enumerate(dense) if x)
            assert row[0][1] == 1

    @pytest.mark.parametrize("field", [Q, QI])
    @pytest.mark.parametrize("seed", range(15))
    def test_kernel_spans_sympy_nullspace(self, field, seed):
        rows, ncols = _oracle_rows(Random(100 + seed), field)
        kernel = kernel_from_rows(rows, ncols, field)
        null = [tuple(self._from_sympy(x, field) for x in v)
                for v in self._matrix(rows).nullspace(simplify=True)]
        assert kernel == Subspace.span(null, ncols, field)

    @pytest.mark.parametrize("field", [Q, QI])
    @pytest.mark.parametrize("seed", range(15))
    def test_intersection_dimension(self, field, seed):
        rng = Random(200 + seed)
        ru, ncols = _oracle_rows(rng, field)
        rv = [row[:ncols] + (F(0),) * (ncols - len(row))
              for row in _oracle_rows(rng, field)[0]]
        u, v = Subspace.span(ru, ncols, field), Subspace.span(rv, ncols, field)
        dim_u = self._matrix(ru).rank(simplify=True)
        dim_v = self._matrix(rv).rank(simplify=True)
        dim_sum = self._matrix(ru + rv).rank(simplify=True)
        assert (u.dim, v.dim, u.sum(v).dim) == (dim_u, dim_v, dim_sum)
        meet = u.intersect(v)
        assert meet.dim == dim_u + dim_v - dim_sum
        assert u.contains(meet) and v.contains(meet)

    @pytest.mark.parametrize("field", [Q, QI])
    @pytest.mark.parametrize("seed", range(15))
    def test_coords_rebuild_and_shuffled_spans(self, field, seed):
        rng = Random(300 + seed)
        rows, ncols = _oracle_rows(rng, field)
        sub = Subspace.span(rows, ncols, field)
        zero = F(0) if field == Q else GaussRat()
        for row in rows:
            cs = sub.coords(row)
            rebuilt = [zero] * ncols
            for cf, b in zip(cs, sub.basis):
                rebuilt = [x + cf * y for x, y in zip(rebuilt, b)]
            assert tuple(rebuilt) == row
        shuffled = list(rows)
        rng.shuffle(shuffled)
        again = Subspace.span(shuffled, ncols, field)
        assert again == sub and hash(again) == hash(sub)
