"""Acceptance criteria, one test per criterion.

Every comparison is an exact equality (tolerance zero).  Each test prints a
single PASS/FAIL line; a FAIL line lists the offending sub-checks.
"""

from fractions import Fraction as F
from random import Random

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
from derleib.checkers import registry
from derleib.claims import run_claim
from derleib.derivations import (
    MatrixLieAlgebra,
    almost_inner_genus1, commutator,
    der_algebra,
    inner_derivations,
    is_derivation,
)
from derleib.dsl import ParseError, parse, serialize
from derleib.exactlin import GaussRat, Mat, Q, Subspace
from derleib.liestruct import nilradical, verify_levi
from helpers import ad_nilpotent, adjoint, basis_vector, is_semisimple, j0_gens, kron_gens
from helpers import leib_ideal, matmul, naive_is_derivation, random_solvable_lie
from helpers import dense_basis, random_vector, to_mat, transpose

REG = {c.id: c for c in registry()}
GENERIC_A = (F(2), F(1, 2), F(-3))


def _heis(n, a, order="grouped"):
    return heisenberg_leibniz(n, jordan(a, n), order)


def _report(num, title, failures):
    line = "ACCEPTANCE criterion %d [%s]: %s" % (
        num, "FAIL" if failures else "PASS", title)
    print(line)
    for f in failures:
        print("   - " + f)
    assert not failures, "\n".join([line] + failures)


def check(failures, label, cond):
    if not cond:
        failures.append(label)


def test_criterion_1_heisenberg_generic():
    failures = []
    for n in range(1, 6):
        for a in GENERIC_A:
            tag = "n=%d a=%s" % (n, a)
            alg = _heis(n, a)
            der = der_algebra(alg)
            inn = inner_derivations(alg)
            aid = almost_inner_genus1(alg)
            struct = der.structure
            check(failures, "%s: dim Der = 3n+1" % tag, der.dim == 3 * n + 1)
            check(failures, "%s: dim Inn = 2n" % tag, inn.dim == 2 * n)
            check(failures, "%s: AIDer = Inn" % tag,
                  aid.subspace == inn.subspace)
            check(failures, "%s: Z(Der) = 0" % tag,
                  struct.centers()[2].dim == 0)
            derived = struct.product_space(struct.full_space(),
                                           struct.full_space())
            check(failures, "%s: [Der,Der] dim 2n" % tag,
                  derived.dim == 2 * n)
            check(failures, "%s: [Der,Der] abelian" % tag,
                  struct.product_space(derived, derived).is_zero())
            check(failures, "%s: nilradical dim 3n-1" % tag,
                  nilradical(struct).dim == 3 * n - 1)
            check(failures, "%s: Der not nilpotent" % tag,
                  not struct.is_nilpotent()[0])
            check(failures, "%s: Der two-step solvable" % tag,
                  struct.is_solvable() == (True, 2))
    _report(1, "generic Jordan parameter: Der/Inn/AIDer shape", failures)


def test_criterion_2_heisenberg_exceptional():
    failures = []
    for n in range(1, 6):
        for a in (F(1), F(-1)):
            tag = "n=%d a=%s" % (n, a)
            alg = _heis(n, a)
            inn = inner_derivations(alg)
            aid = almost_inner_genus1(alg)
            check(failures, "%s: dim Inn = 2n-1" % tag, inn.dim == 2 * n - 1)
            check(failures, "%s: dim AIDer = 2n" % tag, aid.dim == 2 * n)
            check(failures, "%s: Inn inside AIDer" % tag,
                  aid.subspace.contains(inn.subspace))
            check(failures, "%s: codimension exactly 1" % tag,
                  aid.dim - inn.dim == 1)
    _report(2, "exceptional parameters a = +-1: strict AIDer", failures)


def test_criterion_3_zero_parameter():
    failures = []
    for n in range(1, 6):
        tag = "n=%d" % n
        alg = _heis(n, F(0), INTERLEAVED)
        der = der_algebra(alg)
        struct = der.structure
        gens = j0_gens(n)
        inn = inner_derivations(alg)
        nil = nilradical(struct)
        if n % 2 == 0:
            check(failures, "%s: dim Der = 4n+1" % tag, der.dim == 4 * n + 1)
            solv, cls = struct.is_solvable()
            check(failures, "%s: solvable" % tag, solv)
            # stated class n/2+1; the engine computes n/2+2 for n = 2, 4
            # (witness: [A_1, c_2] = B_1 keeps the second derived term alive)
            check(failures, "%s: solvable class = n/2+1 (stated %d, engine %d)"
                  % (tag, n // 2 + 1, cls), cls == n // 2 + 1)
            check(failures, "%s: nilradical dim 4n-1" % tag,
                  nil.dim == 4 * n - 1)
        else:
            check(failures, "%s: dim Der = 4n+2" % tag, der.dim == 4 * n + 2)
            check(failures, "%s: not solvable" % tag,
                  not struct.is_solvable()[0])
            span = der.coords_span([gens["x"] - gens["y"],
                                    gens["c%d" % (n + 1)],
                                    gens["b%d" % (n + 1)]])
            check(failures, "%s: Levi candidate inside Der" % tag,
                  span is not None)
            if span is not None:
                check(failures, "%s: Levi complement dim 3" % tag,
                      span.dim == 3)
                check(failures, "%s: Levi verified" % tag,
                      verify_levi(struct, span).verified)
            check(failures, "%s: nilradical dim 4n-2" % tag,
                  nil.dim == 4 * n - 2)
        check(failures, "%s: dim Inn = 2n" % tag, inn.dim == 2 * n)
        check(failures, "%s: Inn abelian" % tag,
              inn.structure.product_space(inn.structure.full_space(),
                                          inn.structure.full_space()).is_zero())
    check(failures, "n=1 reproduces dim 6 for the Heisenberg Lie algebra",
          der_algebra(_heis(1, F(0), INTERLEAVED)).dim == 6)
    _report(3, "zero Jordan parameter: dimensions, Levi, nilradical", failures)


def test_criterion_4_kronecker():
    failures = []
    for n in range(1, 6):
        tag = "n=%d" % n
        alg = kronecker(n, INTERLEAVED)
        der = der_algebra(alg)
        struct = der.structure
        gens = kron_gens(n)
        if n % 2:
            check(failures, "%s: dim Der = 4n" % tag, der.dim == 4 * n)
            solv, cls = struct.is_solvable()
            check(failures, "%s: solvable of class (n+1)/2+1" % tag,
                  solv and cls == (n + 1) // 2 + 1)
        else:
            check(failures, "%s: dim Der = 4n+1" % tag, der.dim == 4 * n + 1)
            mats = [gens["x"] - gens["y"], gens["c%d" % (n + 1)],
                    gens["b%d" % (n + 1)]]
            span = der.coords_span(mats)
            check(failures, "%s: Levi candidate inside Der" % tag,
                  span is not None)
            if span is not None:
                check(failures, "%s: Levi verified" % tag,
                      verify_levi(struct, span).verified)
            triple = MatrixLieAlgebra.from_matrices([to_mat(m, 2 * n + 1) for m in mats],
                                                    2 * n + 1, Q)
            check(failures, "%s: Levi part semisimple of dim 3" % tag,
                  triple.dim == 3 and is_semisimple(triple.structure))
        inn = inner_derivations(alg)
        check(failures, "%s: Inn dim 2n" % tag, inn.dim == 2 * n)
        check(failures, "%s: Inn abelian" % tag,
              inn.structure.product_space(inn.structure.full_space(),
                                          inn.structure.full_space()).is_zero())
        for i in range(1, n + 1):
            ad_e = adjoint(alg, basis_vector(alg, 2 * i - 2), "left")
            want = gens["B%d" % i] + (gens["B%d" % (i - 1)] if i > 1 else {})
            check(failures, "%s: ad_e%d = B_(i-1)+B_i" % (tag, i),
                  ad_e == to_mat(want, 2 * n + 1))
            ad_f = adjoint(alg, basis_vector(alg, 2 * i - 1), "left")
            want = gens["A%d" % i] - (gens["A%d" % (i + 1)] if i < n else {})
            check(failures, "%s: ad_f%d = A_i - A_(i+1)" % (tag, i),
                  ad_f == to_mat(want, 2 * n + 1))
    for n in range(1, 5):
        for a in (F(2), F(1, 2)):
            meet = der_algebra(_heis(n, F(0))).subspace.intersect(
                der_algebra(kronecker(n)).subspace)
            check(failures, "n=%d a=%s: Der(J_0) meet Der(k) = Der(J_a)"
                  % (n, a), meet == der_algebra(_heis(n, a)).subspace)
    _report(4, "Kronecker family: dimensions, Levi, Inn, intersection",
            failures)


def test_criterion_5_dieudonne():
    failures = []
    for n in range(1, 6):
        tag = "n=%d" % n
        alg = dieudonne(n)
        der = der_algebra(alg)
        struct = der.structure
        check(failures, "%s: dim Der = 3n+3" % tag, der.dim == 3 * n + 3)
        dims = tuple(t.dim for t in struct.series("derived"))
        check(failures, "%s: derived dims (3n+3, 3n+1, n, 0)" % tag,
              dims == (3 * n + 3, 3 * n + 1, n, 0))
        check(failures, "%s: three-step solvable" % tag,
              struct.is_solvable() == (True, 3))
        derived = struct.product_space(struct.full_space(), struct.full_space())
        check(failures, "%s: nilradical = commutator ideal" % tag,
              nilradical(struct) == derived)
        inn = inner_derivations(alg)
        aid = almost_inner_genus1(alg)
        check(failures, "%s: dim Inn = 2n" % tag, inn.dim == 2 * n)
        check(failures, "%s: dim AIDer = 2n+1" % tag, aid.dim == 2 * n + 1)
        dim = 2 * n + 2
        last = (dim - 1) * dim  # flat index of the last row's first entry
        zero_sum = [to_mat({last + k: 1, last + k + 1: -1}, dim) for k in range(n)]
        zero_sum += [to_mat({last + j: 1}, dim) for j in range(n + 1, 2 * n + 1)]
        check(failures, "%s: Inn carries the zero-sum constraint" % tag,
              inn.subspace == Subspace.span([m.flatten() for m in zero_sum],
                                            dim * dim, Q))
        probe = to_mat({last + n: 1}, dim)
        check(failures, "%s: mu_(n+1) unit is a derivation" % tag,
              is_derivation(probe, alg))
        check(failures, "%s: mu_(n+1) unit is almost inner" % tag,
              aid.subspace.contains(probe.flatten()))
        check(failures, "%s: mu_(n+1) unit is not inner" % tag,
              not inn.subspace.contains(probe.flatten()))
    res = run_claim(REG["D5"], {"n": 3})
    check(failures, "n=3 worked-example dimension is a flagged discrepancy",
          res.status == "discrepancy" and "12" in res.actual)
    _report(5, "Dieudonne family: dimensions, nilradical, Inn/AIDer gap",
            failures)


def test_criterion_6_real_case():
    failures = []
    check(failures, "a=2: dim Der = 7",
          der_algebra(realify_heisenberg(1, GaussRat(2, 1), INTERLEAVED)).dim == 7)
    check(failures, "a=0: dim Der = 9",
          der_algebra(realify_heisenberg(1, GaussRat(0, 1), INTERLEAVED)).dim == 9)
    for cid in ("R1", "R2", "R3"):
        params = {"a": F(2)} if cid == "R1" else {"n": 1}
        res = run_claim(REG[cid], params)
        check(failures, "%s holds (%s)" % (cid, res.actual[:80]),
              res.status == "confirmed")
    _report(6, "realified family: dimensions, structure, realification iff",
            failures)


def _catalog_grid():
    grid = []
    for n in (1, 2, 3):
        grid.append(("heisenberg n=%d a=2" % n, _heis(n, F(2))))
        grid.append(("heisenberg n=%d a=1" % n, _heis(n, F(1))))
        grid.append(("heisenberg n=%d a=0" % n, _heis(n, F(0))))
        grid.append(("heisenberg-lie n=%d" % n, heisenberg_lie(n)))
        grid.append(("kronecker n=%d" % n, kronecker(n)))
        grid.append(("dieudonne n=%d" % n, dieudonne(n)))
    grid.append(("realified a=0", realify_heisenberg(1, GaussRat(0, 1))))
    grid.append(("realified a=2", realify_heisenberg(1, GaussRat(2, 1))))
    return grid


def test_criterion_7_property_suites():
    failures = []
    # (a) every computed derivation satisfies the derivation identity
    # (b) Inn inside AIDer inside Der; [Der, Inn] inside Inn
    for tag, alg in _catalog_grid():
        der = der_algebra(alg)
        inn = inner_derivations(alg)
        aid = almost_inner_genus1(alg)
        check(failures, "%s: Der basis are derivations" % tag,
              all(naive_is_derivation(m, alg) for m in dense_basis(der)))
        check(failures, "%s: Inn basis are derivations" % tag,
              all(naive_is_derivation(m, alg) for m in dense_basis(inn)))
        check(failures, "%s: Inn inside AIDer" % tag,
              aid.subspace.contains(inn.subspace))
        check(failures, "%s: AIDer inside Der" % tag,
              der.subspace.contains(aid.subspace))
        check(failures, "%s: [Der, Inn] inside Inn" % tag,
              all(inn.subspace.contains(commutator(d, w).flatten())
                  for d in dense_basis(der) for w in dense_basis(inn)))
        # (e) the quotient by the squares ideal is a Lie algebra
        check(failures, "%s: quotient by Leib ideal is Lie" % tag,
              alg.quotient(leib_ideal(alg)).kind.lie)
    # (c) der_algebra commutes with basis permutation by conjugation
    rng = Random(42)
    for tag, alg in (("heisenberg n=2 a=2", _heis(2, F(2))),
                     ("kronecker n=2", kronecker(2)),
                     ("dieudonne n=1", dieudonne(1))):
        d = alg.dim
        perm = list(range(d))
        rng.shuffle(perm)
        p = Mat.from_rows([[1 if r == perm[c] else 0 for c in range(d)]
                           for r in range(d)])
        pinv = transpose(p)
        conj = Subspace.span([matmul(matmul(pinv, m), p).flatten()
                              for m in dense_basis(der_algebra(alg))], d * d, Q)
        check(failures, "%s: Der commutes with permutation" % tag,
              der_algebra(permute_basis(alg, perm)).subspace == conj)
    # (d) nilradical oracle on seeded random solvable Lie algebras
    rng = Random(7)
    outside_checked = 0
    for k in range(20):
        g, expected_idx = random_solvable_lie(rng)
        nil = nilradical(g)
        expected = Subspace.span([basis_vector(g, i) for i in expected_idx],
                                 g.dim, Q)
        check(failures, "random solvable %d: nilradical matches oracle" % k,
              nil == expected)
        ok = all(ad_nilpotent(g, v) for v in nil.basis)
        for _ in range(3):
            coeffs = [F(rng.randint(-2, 2)) for _ in nil.basis]
            combo = [F(0)] * g.dim
            for cf, row in zip(coeffs, nil.basis):
                for t in range(g.dim):
                    combo[t] += cf * row[t]
            ok = ok and ad_nilpotent(g, tuple(combo))
        check(failures, "random solvable %d: nilradical is ad-nilpotent" % k, ok)
        if nil.dim < g.dim:
            grabbed = 0
            while grabbed < 2:
                v = random_vector(rng, g.dim)
                if nil.contains(v):
                    continue
                grabbed += 1
                outside_checked += 1
                check(failures,
                      "random solvable %d: outside vector ad-non-nilpotent" % k,
                      not ad_nilpotent(g, v))
    check(failures, "at least 25 outside vectors sampled", outside_checked >= 25)
    # (f) parser round-trip and fuzz without crashes
    from test_dsl import random_doc
    rng = Random(99)
    for t in range(1000):
        doc = random_doc(rng)
        text = serialize(doc)
        if t % 2 == 0:
            check(failures, "fuzz %d: round trip" % t, parse(text) == doc)
        else:
            chars = list(text)
            for _ in range(rng.randint(1, 4)):
                chars[rng.randrange(len(chars))] = rng.choice("[]=,+ \nab09/i-")
            try:
                parse("".join(chars))
            except ParseError:
                pass
            except Exception as exc:  # pragma: no cover - failure path
                check(failures, "fuzz %d: parser crashed (%r)" % (t, exc), False)
    _report(7, "property suites: identities, inclusions, oracles, parser",
            failures)


def test_criterion_8_almost_inner_is_inner_at_desk_scale():
    failures = []
    instances = []
    for n in range(1, 6):
        for a in (F(2), F(1, 2), F(-3), F(0)):
            instances.append(("heisenberg n=%d a=%s" % (n, a), _heis(n, a)))
        instances.append(("heisenberg-lie n=%d" % n, heisenberg_lie(n)))
        instances.append(("kronecker n=%d" % n, kronecker(n)))
    instances.append(("realified a=0", realify_heisenberg(1, GaussRat(0, 1))))
    instances.append(("realified a=2", realify_heisenberg(1, GaussRat(2, 1))))
    for tag, alg in instances:
        check(failures, "%s: AIDer = Inn exactly" % tag,
              almost_inner_genus1(alg).subspace
              == inner_derivations(alg).subspace)
    _report(8, "almost inner = inner away from the exceptional families",
            failures)
