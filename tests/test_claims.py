import hashlib
import json
from fractions import Fraction as F
from functools import cached_property

import pytest

from derleib import catalog, checkers
from derleib.checkers import dieu_gens, j0_gens, kron_gens, registry
from derleib.claims import DEFAULT_A, REFUTED, run_all, run_claim
from derleib.catalog import dieudonne, kronecker
from derleib.derivations import MatrixLieAlgebra, der_algebra
from derleib.dsl import report_json
from derleib.exactlin import GaussRat, Subspace

from helpers import identity, lincomb, mat, naive_is_derivation, to_mat

REG = {c.id: c for c in registry()}


def test_k6_and_p1_share_one_kronecker_build():
    # K6 calls kronecker(n, GROUPED), P1 FamilySpec(...).build(), which
    # passes its order; kronecker(n) would be a second cache entry
    kronecker.cache_clear()
    run_claim(REG["K6"], {"n": 2, "a": F(2)})
    run_claim(REG["P1"], {"family": "kronecker", "n": 2})
    assert kronecker.cache_info().misses == 1


def test_heisenberg_claims_build_each_jordan_member_once(monkeypatch):
    # H1, H3 and H8 all read the member at n=2, a=2, and H8 also a=0 and
    # heisenberg-lie; `_heis` builds each Jordan member once, so the
    # catalog builds each of the three algebras once
    built = []
    plain = catalog.heisenberg_leibniz

    def counted(n, a, order=catalog.GROUPED):
        built.append((n, order))
        return plain(n, a, order)
    for module in (catalog, checkers):
        monkeypatch.setattr(module, "heisenberg_leibniz", counted)
    checkers._heis.cache_clear()
    for cid in ("H1", "H3", "H8"):
        run_claim(REG[cid], {"n": 2, "a": F(2)})
    assert checkers._heis.cache_info().misses == 2
    assert built == [(2, catalog.GROUPED)] * 3


def test_r3_reports_a_family_member_without_a_real_form(monkeypatch):
    # the family member with mu = i has no real form here: R3 reports it as
    # a failed check instead of reading the None
    real = checkers.realify_derivation
    monkeypatch.setattr(checkers, "realify_derivation", lambda flat, d: (
        None if flat == {6: GaussRat(0, 1)} else real(flat, d)))
    result = run_claim(REG["R3"], {"n": 1})
    assert result.status == REFUTED
    assert "family realifies" in result.actual.split("; ")


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
        ck = checkers._Checks()
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
            assert c.title and c.statement

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
        a = run_claim(REG["R3"], {"n": 1}, master_seed=7)
        b = run_claim(REG["R3"], {"n": 1}, master_seed=7)
        assert a.status == b.status == "confirmed"


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
