import json
from fractions import Fraction as F

import pytest

from derleib import claims
from derleib.claims import (
    DEFAULT_A,
    dieu_gens,
    registry,
    run_all,
    run_claim,
)
from derleib.catalog import dieudonne
from derleib.derivations import is_derivation
from derleib.dsl import report_json
from derleib.exactlin import Mat

REG = {c.id: c for c in registry()}


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
                assert is_derivation(m, alg), (n, name)

    def test_h2_refutes_a_generator_outside_der(self, monkeypatch):
        named = claims.heis_grouped_gens
        monkeypatch.setattr(claims, "heis_grouped_gens",
                            lambda n: {**named(n), "x": Mat.identity(2 * n + 1)})
        r = run_claim(REG["H2"], {"n": 2, "a": F(2)})
        assert r.status == "refuted"
        assert "x is a derivation" in r.actual

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
