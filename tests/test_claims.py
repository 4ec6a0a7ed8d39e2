import hashlib
import inspect
import json
import sys
from collections import Counter
from fractions import Fraction as F
from functools import cached_property
from unittest.mock import ANY

import pytest

from derleib import catalog, checkers, derivations
from derleib.checkers import dieu_gens, j0_gens, kron_gens, registry
from derleib.claims import (
    DEFAULT_A, DISCREPANCY, REFUTED, Checks, Claim, run_all, run_claim)
from derleib.catalog import GROUPED, FamilySpec, dieudonne
from derleib.derivations import (
    MatrixLieAlgebra, almost_inner_genus1, der_algebra, inner_derivations)
from derleib.dsl import report_json
from derleib.exactlin import GaussRat, Subspace

from helpers import identity, lincomb, mat, naive_is_derivation, to_mat

REG = {c.id: c for c in registry()}


# the catalog constructors a claim can reach; heisenberg_lie and
# realify_heisenberg build through heisenberg_leibniz
_BUILDERS = ("heisenberg_leibniz", "heisenberg_lie", "realify_heisenberg",
             "kronecker", "dieudonne")


def _frozen(x):
    return tuple(sorted((k, _frozen(v)) for k, v in x.items())) \
        if isinstance(x, dict) else x


def _count_builds(monkeypatch, names=_BUILDERS):
    """Wrap the named constructors at every binding in the package; the
    returned list gets ``(name, arguments with defaults filled in)`` of each
    outermost call."""
    calls, depth = [], [0]
    for name in names:
        plain = getattr(catalog, name)
        sig = inspect.signature(plain)

        def counted(*args, _plain=plain, _name=name, _sig=sig, **kwargs):
            if not depth[0]:
                bound = _sig.bind(*args, **kwargs)
                bound.apply_defaults()
                calls.append((_name, _frozen(bound.arguments)))
            depth[0] += 1
            try:
                return _plain(*args, **kwargs)
            finally:
                depth[0] -= 1
        for module in list(sys.modules.values()):
            if (module.__name__.startswith("derleib")
                    and getattr(module, name, None) is plain):
                monkeypatch.setattr(module, name, counted)
    return calls


def test_k6_and_p1_share_one_kronecker_build(monkeypatch):
    # K6 builds FamilySpec("kronecker", n) and P1 the same spec from its
    # params, so the member cache builds the algebra once
    built = _count_builds(monkeypatch, ("kronecker",))
    FamilySpec.build.cache_clear()
    run_claim(REG["K6"], {"n": 2, "a": F(2)})
    run_claim(REG["P1"], {"family": "kronecker", "n": 2})
    assert built == [("kronecker", (("n", 2), ("order", GROUPED)))]


def test_heisenberg_claims_build_each_jordan_member_once(monkeypatch):
    # H1, H3 and H8 all read the member at n=2, a=2, and H8 also a=0 and
    # heisenberg-lie; the member cache builds each of the three once
    built = []
    plain = catalog.heisenberg_leibniz

    def counted(n, a, order=GROUPED):
        built.append((n, order))
        return plain(n, a, order)
    monkeypatch.setattr(catalog, "heisenberg_leibniz", counted)
    FamilySpec.build.cache_clear()
    for cid in ("H1", "H3", "H8"):
        run_claim(REG[cid], {"n": 2, "a": F(2)})
    assert FamilySpec.build.cache_info().misses == 3
    assert built == [(2, GROUPED)] * 3


def test_a_run_builds_no_member_twice(monkeypatch):
    # counted by arguments, not by algebra: at n=1 the grouped and
    # interleaved orders give equal algebras from different specs
    calls = _count_builds(monkeypatch)
    FamilySpec.build.cache_clear()
    run_all(3)
    assert calls
    assert {c: k for c, k in Counter(calls).items() if k > 1} == {}


def test_equal_der_subspaces_share_one_structure():
    # H2: the members at a=2 and a=1/2 are different algebras with one Der
    # subspace, so they read one induced structure
    a, b = (FamilySpec("heisenberg", 2, a).build() for a in (F(2), F(1, 2)))
    assert a != b
    assert der_algebra(a).subspace == der_algebra(b).subspace
    assert der_algebra(a).structure is der_algebra(b).structure


def test_a_run_builds_no_structure_twice(monkeypatch):
    # every structure read is counted by its key, every build by the Algebra
    # it makes, from empty caches, so no MatrixLieAlgebra holds one already
    reads, builds = [], []
    lazy = MatrixLieAlgebra.__dict__["structure"]

    def counted(mla):
        reads.append((mla.subspace, mla.ambient_dim))
        return lazy.func(mla)
    prop = cached_property(counted)
    prop.__set_name__(MatrixLieAlgebra, "structure")
    monkeypatch.setattr(MatrixLieAlgebra, "structure", prop)
    plain = derivations.Algebra

    def built(*args):
        builds.append(args)
        return plain(*args)
    monkeypatch.setattr(derivations, "Algebra", built)
    for cache in (FamilySpec.build, der_algebra, inner_derivations,
                  almost_inner_genus1, derivations._structure):
        cache.cache_clear()
    run_all(3)
    assert len(reads) > len(set(reads)) == len(builds) == 16


def test_r3_reports_a_family_member_without_a_real_form(monkeypatch):
    # the family member with mu = i has no real form here: R3 reports it as
    # a failed check instead of reading the None
    real = checkers.realify_derivation
    monkeypatch.setattr(checkers, "realify_derivation", lambda flat, d: (
        None if flat == {6: GaussRat(0, 1)} else real(flat, d)))
    result = run_claim(REG["R3"], {"n": 1})
    assert result.status == REFUTED
    assert "family realifies" in result.actual.split("; ")


def test_an_unflagged_discrepancy_is_refuted():
    # only a claim flagged as a suspected misprint may report a discrepancy
    # (D5 at n=3 does); the engine is ground truth for every other claim
    stub = Claim("X1", "stub", lambda nmax, a_values: [],
                 lambda ck, params: ck.flag("stated", "computed"),
                 typo_flagged=False)
    assert run_claim(stub, {"n": 1}) == (
        "X1", {"n": 1}, REFUTED, "stated", "computed", ANY)


def test_dimension_claims_build_no_structure(monkeypatch):
    # H1 reads dim Der only, so no induced bracket table is built
    built = []
    lazy = MatrixLieAlgebra.__dict__["structure"]

    def counted(mla):
        built.append(mla)
        return lazy.func(mla)
    prop = cached_property(counted)
    prop.__set_name__(MatrixLieAlgebra, "structure")
    monkeypatch.setattr(MatrixLieAlgebra, "structure", prop)
    der_algebra.cache_clear()
    report = run_all(1, only={"H1"})
    assert {c["status"] for c in report.claims} == {"confirmed"}
    assert built == []


@pytest.mark.parametrize("cid,params,expected,actual", [
    ("H1", {"n": 4, "a": F(2)}, "dim Der = 3n+1 = 13", "dim Der: expected 13, actual 12"),
    ("Z1", {"n": 2}, "dim Der = 4n+1 = 9 (n even)", "dim Der: expected 9, actual 8"),
    ("Z2", {"n": 3}, "dim Der = 4n+2 = 14 (n odd)", "dim Der: expected 14, actual 13"),
    ("K1", {"n": 3}, "dim Der = 4n = 12 (n odd)", "dim Der: expected 12, actual 11"),
])
def test_dimension_claims_print_a_wrong_dimension(monkeypatch, cid, params,
                                                  expected, actual):
    # a Der one dimension short refutes each dimension formula with its text
    real = checkers.der_algebra

    class Short:
        def __init__(self, alg):
            self.dim = real(alg).dim - 1
    monkeypatch.setattr(checkers, "der_algebra", Short)
    r = run_claim(REG[cid], params)
    assert (r.status, r.expected, r.actual) == (REFUTED, expected, actual)


def test_report_id_is_the_sha256_prefix():
    # the built-in SHA-256 gives hashlib's bytes, so no recorded id moves
    for nmax, a_values, seed in ((1, (F(2),), 0), (2, (F(1, 2), F(-3)), 5),
                                 (1, DEFAULT_A, 123456789)):
        text = "nmax=%d;a=%s;seed=%d" % (
            nmax, ",".join(str(a) for a in a_values), seed)
        rep = run_all(nmax, a_values, seed, only={"H1"})
        assert rep.input == hashlib.sha256(text.encode()).hexdigest()[:16]


def test_commutator_table_check():
    # sl2: [x,y] = h, [h,x] = 2x, [h,y] = -2y, listed in either orientation
    x = mat([[0, 1], [0, 0]])
    y = mat([[0, 0], [1, 0]])
    h = mat([[1, 0], [0, -1]])
    gens = {"h": h.sparse(), "x": x.sparse(), "y": y.sparse()}

    def problems(expected):
        ck = Checks()
        checkers._comm_table_ok(ck, 2, gens, expected)
        return ck.problems
    good = {("x", "y"): h.sparse(), ("h", "x"): lincomb((2, x)).sparse(),
            ("y", "h"): lincomb((2, y)).sparse()}
    assert problems(good) == []
    assert problems({**good, ("y", "h"): lincomb((-2, y)).sparse()}) == \
        ["[h,y] differs from the stated table"]
    del good[("x", "y")]  # an unlisted pair must commute
    assert problems(good) == ["[x,y] differs from the stated table"]


class TestRegistry:
    def test_ids_unique_and_complete(self):
        ids = [c.id for c in registry()]
        assert len(ids) == len(set(ids)) == 29
        for prefix, count in (("H", 8), ("Z", 5), ("R", 3), ("K", 6),
                              ("D", 5), ("P", 2)):
            assert sum(1 for i in ids if i.startswith(prefix)) == count

    def test_every_claim_has_statement(self):
        for c in registry():
            assert c.statement

    def test_flagged_set(self):
        flagged = {c.id for c in registry() if c.typo_flagged}
        assert flagged == {"Z4", "D1", "D5"}


class TestIndividualClaims:
    def test_h1_confirmed(self):
        r = run_claim(REG["H1"], {"n": 3, "a": F(2)})
        assert r.status == "confirmed"
        assert "10" in r.expected

    def test_d1_confirmed_small(self):
        r = run_claim(REG["D1"], {"n": 1})
        assert r.status == "confirmed" and "6" in r.expected

    def test_d5_n3_is_a_flagged_discrepancy(self):
        r = run_claim(REG["D5"], {"n": 3})
        assert r.status == "discrepancy"
        assert "9" in r.expected and "12" in r.actual

    def test_z3_even_class_refuted_by_engine(self):
        # the engine computes class n/2+2 at n = 2 and 4; the stated n/2+1
        # is not pre-flagged, so the mismatch reports as refuted
        r = run_claim(REG["Z3"], {"n": 2})
        assert r.status == "refuted"
        assert "expected 2, actual 3" in r.actual

    def test_dieudonne_generators_are_derivations(self):
        for n in (1, 2, 3, 4):
            alg = dieudonne(n)
            gens = dieu_gens(n)
            assert len(gens) == 3 * n + 3
            for name, m in gens.items():
                assert naive_is_derivation(to_mat(m, alg.dim), alg), (n, name)

    def test_h2_refutes_a_generator_outside_der(self, monkeypatch):
        named = checkers.heis_grouped_gens
        monkeypatch.setattr(checkers, "heis_grouped_gens",
                            lambda n: {**named(n), "x": identity(2 * n + 1).sparse()})
        r = run_claim(REG["H2"], {"n": 2, "a": F(2)})
        assert r.status == "refuted"
        assert "x is a derivation" in r.actual

    def test_levi_failure_carries_its_reason(self, monkeypatch):
        named = checkers.kron_gens
        monkeypatch.setattr(checkers, "kron_gens",
                            lambda n: {**named(n), "b3": named(n)["A1"]})
        r = run_claim(REG["K3"], {"n": 2})
        assert r.status == "refuted"
        assert r.actual == "Levi complement verified: failed(not-subalgebra)"
        l5r = checkers.l5r_gens
        monkeypatch.setattr(checkers, "l5r_gens",
                            lambda: {**l5r(), "G": l5r()["A1"]})
        r = run_claim(REG["R2"], {"n": 1})
        assert r.actual == "Levi <x-y,F,G> verified: failed(not-subalgebra)"
        monkeypatch.setattr(checkers, "l5r_gens",
                            lambda: {**l5r(), "G": identity(5).sparse()})
        r = run_claim(REG["R2"], {"n": 1})
        assert r.actual == "Levi generators lie in Der"

    # Every shipped output confirms H6, K5 and Z4, so only a wrong generator
    # reaches their comparisons of stated and computed matrices.

    def test_h6_refutes_a_wrong_left_multiplication(self, monkeypatch):
        # 2 B_1 spans what B_1 spans, so only the ad_e formulas differ
        named = checkers.heis_grouped_gens
        monkeypatch.setattr(checkers, "heis_grouped_gens", lambda n: {
            **named(n), "B1": checkers._comb((2, named(n)["B1"]))})
        r = run_claim(REG["H6"], {"n": 2, "a": F(2)})
        assert r.status == "refuted"
        assert r.actual.startswith("ad_e1: expected") and "ad_e2: " in r.actual
        assert "ad_f" not in r.actual and "Inn" not in r.actual
        # 1-based (row, col) entries of the operator y -> [e_i, y]; z is row 5
        assert r.actual == ("ad_e1: expected {(5, 3): 6}, actual {(5, 3): 3}; "
                            "ad_e2: expected {(5, 3): 2, (5, 4): 3}, "
                            "actual {(5, 3): 1, (5, 4): 3}")
        assert "Fraction(" not in r.actual

    def test_k5_refutes_a_wrong_left_multiplication(self, monkeypatch):
        named = checkers.kron_gens
        monkeypatch.setattr(checkers, "kron_gens", lambda n: {
            **named(n), "A1": checkers._comb((2, named(n)["A1"]))})
        r = run_claim(REG["K5"], {"n": 2})
        assert r.status == "refuted"
        assert r.actual.startswith("ad_f1 = A_i - A_(i+1): expected")
        assert "ad_e" not in r.actual and "Inn" not in r.actual
        assert r.actual == ("ad_f1 = A_i - A_(i+1): expected {(5, 1): 2, (5, 3): -1}, "
                            "actual {(5, 1): 1, (5, 3): -1}")
        assert "Fraction(" not in r.actual

    def test_d3_prints_a_span_mismatch_as_canonical_rows(self, monkeypatch):
        monkeypatch.setattr(checkers, "nilradical",
                            lambda alg: Subspace.zero(alg.dim, alg.field))
        r = run_claim(REG["D3"], {"n": 1})
        assert r.status == "refuted"
        assert r.actual == ("nilradical = commutator ideal: stated span "
                            "{[0, 1, 0, 0, 0, 0]; [0, 0, 0, 1, 0, 0]; "
                            "[0, 0, 0, 0, 1, 0]; [0, 0, 0, 0, 0, 1]} "
                            "!= computed span {}")

    def test_z4_sign_probe_flips_with_b2(self, monkeypatch):
        # -b_2 leaves every span unchanged; only the [B_1, b_2] sign differs
        assert run_claim(REG["Z4"], {"n": 1}).status == "confirmed"
        named = checkers.j0_gens
        monkeypatch.setattr(checkers, "j0_gens", lambda n: {
            **named(n), "b2": checkers._comb((-1, named(n)["b2"]))})
        r = run_claim(REG["Z4"], {"n": 1})
        assert r.status == "discrepancy"
        assert r.actual == "[B1,b2] computes to the opposite sign"

    # D1 and D5 confirm or report their flagged discrepancy on every shipped
    # output, so only a changed Der or basis reaches their other verdicts.

    def test_d1_returns_before_the_table_on_a_short_der(self, monkeypatch):
        # Der without A_3 is one dimension short: the basis checks refute
        # D1 before its flagged table is read
        gens = dieu_gens(1)
        monkeypatch.setattr(checkers, "der_algebra", lambda alg: MatrixLieAlgebra(
            4, Subspace.span([m for nm, m in gens.items() if nm != "A3"], 16, "Q")))
        r = run_claim(REG["D1"], {"n": 1})
        assert (r.status, r.expected, r.actual) == (
            REFUTED, "dim Der = 3n+3 = 6 with the stated basis",
            "dim Der: expected 6, actual 5; A3 is a derivation; named basis "
            "spans Der: a stated generator is not in the computed algebra")

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_d1_flags_a_table_read_from_a_non_unit_row(self, monkeypatch, n):
        # 2 E_1 spans what E_1 spans, but its rows are not +-1 units, so no
        # [A_i, E_1] entry is stated and the flagged table differs there
        named = checkers.dieu_gens
        monkeypatch.setattr(checkers, "dieu_gens", lambda n: {
            **named(n), "E1": checkers._comb((2, named(n)["E1"]))})
        r = run_claim(REG["D1"], {"n": n})
        assert (r.status, r.expected, r.actual) == (
            DISCREPANCY, "bracket table with [x,E_i] = [E_i,y] = E_i",
            "[A1,E1] differs from the stated table")

    def test_d5_at_n3_returns_before_the_dimension_probe(self, monkeypatch):
        named = checkers.dieu_gens
        monkeypatch.setattr(checkers, "dieu_gens", lambda n: {
            **named(n), "X": checkers._unit(2 * n + 2, 1, 1)})
        r = run_claim(REG["D5"], {"n": 3})
        assert (r.status, r.expected, r.actual) == (
            REFUTED, "worked example at n=3",
            "worked basis spans Der: a stated generator is not in the "
            "computed algebra")

    def test_d5_at_n3_confirms_a_consistent_nine_dimensional_der(self, monkeypatch):
        # the n = 2 Der with its own basis has the stated dimension 9
        named, real = checkers.dieu_gens, checkers.der_algebra
        monkeypatch.setattr(checkers, "dieu_gens", lambda n: named(2))
        monkeypatch.setattr(checkers, "der_algebra", lambda alg: real(
            FamilySpec("dieudonne", 2).build()))
        r = run_claim(REG["D5"], {"n": 3})
        assert (r.status, r.expected, r.actual) == (
            "confirmed", "worked example at n=3", "worked example at n=3")

    def test_mixing_generators_written_out_at_n2(self):
        """The c_h / b_h entries at n = 2 by hand, 1-based (row, col): the
        Kronecker signs start at -1 and the J_0 signs at +1."""
        def entries(gens):
            return {name: {(i // 5 + 1, i % 5 + 1): v for i, v in m.items()}
                    for name, m in gens.items() if name[0] in "bc"}
        assert entries(kron_gens(2)) == {"c3": {(3, 2): -1, (1, 4): 1},
                                         "b3": {(4, 1): -1, (2, 3): 1}}
        assert entries(j0_gens(2)) == {"c2": {(1, 2): 1}, "b4": {(4, 3): 1}}

    def test_r3_deterministic_given_seed(self):
        # R3 is decided exactly, so the seed changes only the report's id
        a, b = (run_all(1, seed=seed, only={"R3"}) for seed in (0, 7))
        assert a.input != b.input
        assert json.loads(report_json(a))["claims"] == \
            json.loads(report_json(b))["claims"]
        assert [c["status"] for c in a.claims] == ["confirmed"]

    def test_r3_refutes_one_extra_member_entering_der(self, monkeypatch):
        # only alpha = i, beta = -i realifies into Der: no finite sample of
        # the family need meet it, but the dimension of the preimage moves
        real = checkers.realify_derivation
        inside = checkers.l5r_gens()["E"]
        monkeypatch.setattr(checkers, "realify_derivation", lambda flat, d: (
            inside if flat == {0: GaussRat(0, 1), 4: GaussRat(0, -1)}
            else real(flat, d)))
        r = run_claim(REG["R3"], {"n": 1})
        assert (r.status, r.actual) == (
            REFUTED, "dim of the realified family inside Der: expected 5, actual 6")


class TestRunAll:
    def test_nmax1_skips_even_only_claims(self):
        rep = run_all(nmax=1, a_values=(F(2),))
        by_id = {}
        for c in rep.claims:
            by_id.setdefault(c["id"], []).append(c)
        for cid in ("Z1", "Z3", "K2", "K3"):
            assert [c["status"] for c in by_id[cid]] == ["skipped"]
        for cid in ("K1", "K4", "Z2"):
            assert all(c["status"] == "confirmed" for c in by_id[cid])

    def test_nmax2_single_parameter_engine_statuses(self):
        # everything confirms except the even-case solvable-class statement,
        # which the engine genuinely refutes (class 3, not 2, at n = 2)
        rep = run_all(nmax=2, a_values=(F(2),))
        bad = {(c["id"], c["status"]) for c in rep.claims
               if c["status"] not in ("confirmed", "skipped")}
        assert bad == {("Z3", "refuted")}

    def test_json_byte_identical_across_runs(self):
        a = report_json(run_all(nmax=1, a_values=(F(2),), seed=5))
        b = report_json(run_all(nmax=1, a_values=(F(2),), seed=5))
        assert a == b
        doc = json.loads(a)
        assert doc["claims"] and doc["version"]

    def test_claim_filter(self):
        rep = run_all(nmax=2, a_values=(F(2),), only={"H1"})
        assert {c["id"] for c in rep.claims} == {"H1"}

    def test_unknown_claim_id_rejected(self):
        with pytest.raises(ValueError, match="unknown claim id.*: AA, ZZ"):
            run_all(nmax=1, only={"H1", "ZZ", "AA"})

    def test_params_serialized_exactly(self):
        rep = run_all(nmax=1, a_values=(F(1, 2),), only={"H1"})
        assert rep.claims[0]["params"]["a"] == "1/2"

    def test_bad_nmax(self):
        with pytest.raises(ValueError):
            run_all(nmax=0)

    def test_default_parameter_set(self):
        assert F(0) in DEFAULT_A and F(1) in DEFAULT_A and F(-1) in DEFAULT_A
