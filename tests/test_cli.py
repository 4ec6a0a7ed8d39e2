import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from derleib import checkers, claims, cli, derivations, liestruct
from derleib.algebra import MAX_DIM, Algebra, _operators
from derleib.cli import main
from derleib.catalog import dieudonne, heisenberg_lie, kronecker
from derleib.derivations import GenusError, almost_inner_genus1, der_algebra, \
    inner_derivations
from derleib.dsl import AlgebraDoc, parse, serialize
from derleib.exactlin import GaussRat, Q, QI, ShapeMismatch, Subspace

from helpers import dense_basis, pretty, random_small_algebra, rescale_basis

SQUARE_DOC = """algebra sq field Q
basis e z
[e,e] = z
end
"""


# gl2 with [e,f] = h - c, whose radical is the centre <c>
GL2_DOC = """algebra gl2 field %s
basis h e f c
[h,e] = 2 e
[e,h] = -2 e
[h,f] = -2 f
[f,h] = 2 f
[e,f] = h + -1 c
[f,e] = -1 h + c
end
"""

GL2_ANALYSIS = """algebra gl2: dim 4 over %s
classify: left=yes right=yes symmetric=yes lie=yes
lower central dims: (4, 3)
derived dims: (4, 3)
centers: left 1, right 1, two-sided 1
Killing rank: 3
radical (dim 1):
  [0, 0, 0, 1]
nilradical (dim 1):
  [0, 0, 0, 1]
Levi candidate: %s
"""


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestCheck:
    def test_square_map_document(self, tmp_path):
        path = tmp_path / "sq.alg"
        path.write_text(SQUARE_DOC)
        code, text = run_cli("check", str(path))
        assert code == 0
        assert "left=yes right=yes" in text
        assert "genus 1" in text

    def test_invalid_algebra_fails(self, tmp_path):
        path = tmp_path / "bad.alg"
        path.write_text("algebra bad field Q\nbasis x\n[x,x] = x\nend\n")
        code, text = run_cli("check", str(path))
        assert code == 1

    def test_parse_error_is_usage_error(self, tmp_path):
        path = tmp_path / "broken.alg"
        path.write_text("algebra broken field Q\nbasis x\n[x,y] = x\nend\n")
        code, _ = run_cli("check", str(path))
        assert code == 2

    def test_zero_denominator_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "zero.alg"
        path.write_text("algebra zero field Q\nbasis e f z\n[e,f] = 1/0 z\nend\n")
        code, _ = run_cli("check", str(path))
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_family_and_file_are_exclusive(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("check")
        assert exc.value.code == 2


class TestDerive:
    def test_dieudonne_example(self):
        code, text = run_cli("derive", "--family", "dieudonne", "--n", "1")
        assert code == 0
        assert "dim Der = 6" in text
        assert "dim Inn = 2" in text
        assert "dim AIDer = 3" in text

    def test_json_output(self):
        code, text = run_cli("derive", "--family", "heisenberg", "--n", "2",
                             "--a", "2", "--json")
        assert code == 0
        doc = json.loads(text)
        assert doc["analyses"][0]["der_dim"] == 7
        assert doc["analyses"][0]["inn_dim"] == 4

    def test_bracket_table(self):
        code, text = run_cli("derive", "--family", "heisenberg", "--n", "1",
                             "--a", "2", "--table")
        assert code == 0
        assert "induced bracket table" in text

    def test_deterministic_output(self):
        a = run_cli("derive", "--family", "kronecker", "--n", "2")
        b = run_cli("derive", "--family", "kronecker", "--n", "2")
        assert a == b

    @pytest.mark.parametrize("family", ["heisenberg-lie", "heisenberg"])
    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_nonpositive_n_is_usage_error(self, family, n):
        code, text = run_cli("derive", "--family", family, "--n", n)
        assert code == 2 and text == ""

    @pytest.mark.parametrize("argv", [
        ("--family", "heisenberg", "--n", "1", "--a", "1/0"),
        ("--family", "realify-heisenberg", "--n", "1", "--b", "1/0"),
        ("--family", "realify-heisenberg", "--n", "1", "--b", "1.5"),
    ])
    def test_bad_parameter_is_usage_error(self, argv, capsys):
        code, text = run_cli("derive", *argv)
        assert code == 2 and text == ""
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,err", [
        (("--a", "1+2i"),
         "parameter must be real here; the imaginary part has its own slot"),
        (("--a", "1", "--b", "0"), "parameter must have a nonzero imaginary part"),
    ])
    def test_realified_parameter_error_names_the_rule(self, argv, err, capsys):
        code, text = run_cli("derive", "--family", "realify-heisenberg", "--n",
                             "1", *argv)
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == "error: %s\n" % err

    def test_family_without_n_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("derive", "--family", "heisenberg")
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("error: --family requires --n\n")

    @pytest.mark.parametrize("argv,extra", [
        (("--family", "kronecker", "--n", "1", "--a", "5", "--b", "7"), "a, b"),
        (("--family", "heisenberg", "--n", "1", "--b", "7"), "b"),
        (("--family", "heisenberg-lie", "--n", "1", "--a", "5"), "a"),
        (("--family", "dieudonne", "--n", "1", "--order", "interleaved"), "order"),
    ])
    def test_unused_family_parameter_is_usage_error(self, argv, extra, capsys):
        code, text = run_cli("derive", *argv)
        assert code == 2 and text == ""
        assert capsys.readouterr().err == "error: family %s does not take %s\n" % (
            argv[1], extra)

    def test_one_over_the_size_cap_is_usage_error(self, tmp_path, monkeypatch,
                                                  capsys):
        """MAX_DIM + 1 from a family and from a definition file exits 2
        before any derivation system is built."""
        def refuse(alg):
            raise AssertionError("built a system past the cap")
        monkeypatch.setattr(cli, "der_algebra", refuse)
        n = MAX_DIM // 2  # dieudonne n has dimension 2n + 2, MAX_DIM + 1 here
        assert run_cli("derive", "--family", "dieudonne", "--n", str(n)) == (2, "")
        assert capsys.readouterr().err == (
            "error: n=%d gives dimension %d, above the limit of %d\n"
            % (n, 2 * n + 2, MAX_DIM))
        path = tmp_path / "big.alg"
        path.write_text("algebra big field Q\nbasis %s\nend\n"
                        % " ".join("x%d" % k for k in range(MAX_DIM + 1)))
        assert run_cli("derive", str(path)) == (2, "")
        assert "more than %d basis labels" % MAX_DIM in capsys.readouterr().err

    def test_closure_failure_is_internal_error(self, tmp_path, monkeypatch):
        # labels unique to this test, so no cached Der(L) bypasses the check;
        # the structure cache is keyed by subspace, and Der(h3) is the
        # subspace of Der(J_0) at n=1, interleaved, so it is emptied too
        derivations._structure.cache_clear()
        path = tmp_path / "h3.alg"
        path.write_text("algebra h3 field Q\nbasis p q r\n[p,q] = r\n"
                        "[q,p] = -1 r\nend\n")
        # the unit map p -> p is not a derivation, so it escapes Der(h3)
        monkeypatch.setattr(derivations, "sparse_commutator",
                            lambda a, b, d: {0: 1})
        code, _ = run_cli("derive", str(path))
        assert code == 3

    @pytest.mark.parametrize("argv,exc", [
        (("derive", "--family", "heisenberg", "--n", "1", "--a", "2"),
         ZeroDivisionError("division by zero")),
        (("verify-paper", "--nmax", "2", "--claim", "H1"), KeyError("k")),
        # no input reaches a shape check, so a failed one is the engine's fault
        (("derive", "--family", "kronecker", "--n", "1"),
         ShapeMismatch("matrix is 2x2, algebra dimension is 3")),
    ])
    def test_unexpected_exception_is_internal_error(self, argv, exc, monkeypatch,
                                                    capsys):
        # exit 1 would read as a refuted claim, so an unmapped fault exits 3
        def broken(alg):
            raise exc
        monkeypatch.setattr(cli, "der_algebra", broken)
        monkeypatch.setattr(checkers, "der_algebra", broken)
        code, _ = run_cli(*argv)
        assert code == 3
        assert capsys.readouterr().err == "internal error: %s: %s\n" % (
            type(exc).__name__, exc)


# scales of the basis vectors: negative and multi-digit numerators and
# denominators, which give the printed columns uneven widths
_SCALES = st.fractions(-99, 99, max_denominator=99).filter(bool)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10 ** 6), field=st.sampled_from((Q, QI)),
       scales=st.lists(st.tuples(_SCALES, _SCALES), min_size=4, max_size=4))
@example(seed=5, field=Q, scales=[(F(-13, 7), 0), (F(22, 3), 0), (F(-1), 0),
                                   (F(5, 11), 0)])
@example(seed=5, field=QI, scales=[(F(-13, 7), F(2, 9)), (F(22, 3), -1),
                                    (F(-1), F(17, 5)), (F(5, 11), 0)])
def test_derive_prints_the_dense_basis_matrices(seed, field, scales):
    """``derive``'s text matrices, printed from the canonical sparse rows,
    equal the dense printer of ``tests/helpers.py`` applied to the dense
    basis of Der, Inn and AIDer, on random algebras in a basis rescaled by
    rationals, or by Gaussian rationals over Q(i)."""
    lam = [F(re) if field == Q else GaussRat(re, im) for re, im in scales]
    alg = rescale_basis(random_small_algebra(Random(seed)), lam, field)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "drawn.alg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize(AlgebraDoc("drawn", alg)))
        code, text = run_cli("derive", path)
    assert code == 0
    mlas = [("Der", der_algebra(alg))]
    if alg.kind.left_leibniz:
        mlas.append(("Inn", inner_derivations(alg)))
    try:
        mlas.append(("AIDer", almost_inner_genus1(alg)))
    except GenusError:
        pass
    want = "".join("%s basis matrices:\n" % label
                   + "".join(pretty(m) + "\n\n" for m in dense_basis(mla))
                   for label, mla in mlas)
    assert text[text.index("Der basis matrices:\n"):] == want


class TestAnalyze:
    def test_on_leibniz_algebra_skips_lie_parts(self):
        code, text = run_cli("analyze", "--family", "kronecker", "--n", "2")
        assert code == 0
        assert "skipped (not a Lie algebra)" in text

    def test_on_lie_algebra(self):
        code, text = run_cli("analyze", "--family", "heisenberg-lie", "--n", "1")
        assert code == 0
        assert "Killing rank: 0" in text
        assert "radical (dim 3)" in text

    def test_levi_candidate(self):
        code, text = run_cli("analyze", "--family", "heisenberg-lie", "--n", "1",
                             "--levi", "0,0,1")
        assert code == 0
        assert "failed(not-complement)" in text

    @pytest.mark.parametrize("field", [Q, QI])
    @pytest.mark.parametrize("levi,verdict", [
        ("1,0,0,-1;0,1,0,0;0,0,1,0", "verified"),
        # <h, e, c> meets the radical, though the dimensions add up
        ("1,0,0,0;0,1,0,0;0,0,0,1", "failed(not-complement)")])
    def test_gl2_levi_candidates(self, tmp_path, field, levi, verdict):
        path = tmp_path / "gl2.alg"
        path.write_text(GL2_DOC % field)
        assert run_cli("analyze", str(path), "--levi", levi) == (
            0, GL2_ANALYSIS % (field, verdict))

    def test_levi_bad_length(self):
        code, _ = run_cli("analyze", "--family", "heisenberg-lie", "--n", "1",
                          "--levi", "1,0")
        assert code == 2

    @pytest.mark.parametrize("levi", ["", " ", "1,0", "0,x,1", "0,0,1;1"])
    def test_bad_levi_is_usage_error_before_any_output(self, levi, capsys):
        code, text = run_cli("analyze", "--family", "heisenberg-lie", "--n", "1",
                             "--levi", levi)
        assert (code, text) == (2, "")
        assert capsys.readouterr().err.startswith("error: ")

    def test_radical_self_check_failure_is_internal_error(self, monkeypatch,
                                                          capsys):
        # a radical that is not an ideal is the engine's fault, not the
        # input's; radical is memoized, so no cached answer may skip the check
        liestruct.radical.cache_clear()
        monkeypatch.setattr(liestruct, "_orthogonal", lambda sub, gram:
                            Subspace.span([{0: 1}], sub.ambient_dim, sub.field))
        code, _ = run_cli("analyze", "--family", "heisenberg-lie", "--n", "1")
        assert code == 3
        assert capsys.readouterr().err == (
            "internal invariant violation: radical self-check failed: "
            "subspace is not a two-sided ideal\n")

    def test_der_flag_analyzes_the_derivation_algebra(self):
        code, text = run_cli("analyze", "--family", "kronecker", "--n", "2",
                             "--der")
        assert code == 0
        assert "derivation algebra: dim 9" in text
        assert "radical (dim 6)" in text
        assert "nilradical (dim 5)" in text


    def test_centers_computed_once(self, tmp_path, monkeypatch):
        """The centers line and the Lie analysis share one computation."""
        code, text = run_cli("catalog", "--family", "heisenberg-lie", "--n", "3")
        assert code == 0
        path = tmp_path / "h7.alg"
        path.write_text(text)
        calls = []
        centers = Algebra.centers

        def counted(alg):
            calls.append(alg)
            return centers(alg)
        monkeypatch.setattr(Algebra, "centers", counted)
        code, text = run_cli("analyze", str(path), "--der")
        assert code == 0 and "nilradical (dim" in text
        assert len(calls) == 1

    def test_cached_operators_stay_as_built(self):
        """``Algebra.int_ops`` is built once per algebra and shared, so no
        reader may change it: after a full ``analyze --der`` and a
        ``verify-paper --nmax 2``, every algebra's cached operators equal a
        fresh build from its table."""
        code, text = run_cli("analyze", "--family", "heisenberg-lie", "--n", "3",
                             "--der")
        assert code == 0 and "nilradical (dim" in text
        assert run_cli("verify-paper", "--nmax", "2")[0] == 1
        der = derivations.der_algebra(heisenberg_lie(3))
        assert "int_ops" in der.structure.__dict__
        cached = [alg for alg in gc.get_objects()
                  if isinstance(alg, Algebra) and "int_ops" in alg.__dict__]
        assert len(cached) > 20
        for alg in cached:
            assert alg.int_ops == _operators(alg.int_table, alg.dim)


class TestCatalog:
    def test_emitted_document_round_trips(self):
        code, text = run_cli("catalog", "--family", "kronecker", "--n", "3")
        assert code == 0
        alg = parse(text).algebra
        assert alg == kronecker(3)

    def test_realified_emission(self):
        code, text = run_cli("catalog", "--family", "realify-heisenberg",
                             "--n", "1", "--a", "0", "--b", "1",
                             "--order", "interleaved")
        assert code == 0
        alg = parse(text).algebra
        assert alg.dim == 5

    def test_gaussian_parameter_document(self):
        code, text = run_cli("catalog", "--family", "heisenberg", "--n", "1",
                             "--a", "1+1i")
        assert code == 0
        assert "field Qi" in text
        alg = parse(text).algebra
        assert alg.field == "Qi"


class TestVerify:
    def test_nmax1_all_confirmed_or_skipped(self):
        code, text = run_cli("verify-paper", "--nmax", "1", "--a", "2", "--json")
        assert code == 0
        doc = json.loads(text)
        statuses = {c["status"] for c in doc["claims"]}
        assert statuses <= {"confirmed", "skipped"}

    def test_nmax2_exposes_the_refuted_claim(self):
        code, text = run_cli("verify-paper", "--nmax", "2", "--a", "2")
        assert code == 1
        assert "refuted" in text and "Z3" in text

    def test_discrepancy_does_not_fail_without_strict(self):
        code, text = run_cli("verify-paper", "--nmax", "3", "--a", "2",
                             "--claim", "D5")
        assert code == 0
        assert "discrepancy" in text

    def test_strict_fails_on_discrepancy(self):
        code, _ = run_cli("verify-paper", "--nmax", "3", "--a", "2",
                          "--claim", "D5", "--strict")
        assert code == 1

    def test_byte_identical_json(self):
        a = run_cli("verify-paper", "--nmax", "1", "--a", "2", "--json")
        b = run_cli("verify-paper", "--nmax", "1", "--a", "2", "--json")
        assert a == b

    def test_claim_filter(self):
        code, text = run_cli("verify-paper", "--nmax", "1", "--claim", "H1",
                             "--json")
        assert code == 0
        doc = json.loads(text)
        assert {c["id"] for c in doc["claims"]} == {"H1"}

    @pytest.mark.parametrize("argv,tok", [
        (("--a", "i", "--claim", "R1"), "i"),
        (("--a", "2,1+2i"), "1+2i"),
    ])
    def test_imaginary_parameter_is_usage_error(self, argv, tok, monkeypatch,
                                                capsys):
        def refuse(**kwargs):
            raise AssertionError("a claim ran")
        monkeypatch.setattr(claims, "run_all", refuse)
        code, text = run_cli("verify-paper", "--nmax", "1", *argv)
        assert code == 2 and text == ""
        assert capsys.readouterr().err == \
            "error: imaginary scalar %r in field Q\n" % tok

    @pytest.mark.parametrize("value,err", [
        ("", "malformed scalar ''"),
        ("2,2", "repeated --a value 2"),
        ("2,4/2", "repeated --a value 2"),
        ("1/2,3,-1,3", "repeated --a value 3"),
    ])
    def test_empty_or_repeated_parameter_is_usage_error(self, value, err,
                                                        monkeypatch, capsys):
        def refuse(**kwargs):
            raise AssertionError("a claim ran")
        monkeypatch.setattr(claims, "run_all", refuse)
        code, text = run_cli("verify-paper", "--nmax", "1", "--a", value,
                             "--claim", "H1")
        assert code == 2 and text == ""
        assert capsys.readouterr().err == "error: %s\n" % err

    @pytest.mark.parametrize("claim", [(), ("--claim", "H1")])
    def test_nmax_above_the_family_limit_fails_fast(self, claim, capsys):
        # the Dieudonne algebra, of dimension 2n+2, is the largest family
        top = (MAX_DIM - 2) // 2
        assert dieudonne(top).dim <= MAX_DIM
        with pytest.raises(ValueError):
            dieudonne(top + 1)
        start = time.perf_counter()
        code, text = run_cli("verify-paper", "--nmax", str(top + 1), *claim)
        assert time.perf_counter() - start < 2
        assert code == 2 and text == ""
        assert capsys.readouterr().err == (
            "error: nmax must be between 1 and %d, the largest n every family "
            "builds within dimension %d\n" % (top, MAX_DIM))

    def test_nmax_at_the_family_limit_is_accepted(self, monkeypatch):
        monkeypatch.setattr(checkers, "registry", lambda: ())
        report = claims.run_all(nmax=(MAX_DIM - 2) // 2)
        assert report.claims == ()

    def test_unknown_claim_is_usage_error(self, capsys):
        code, text = run_cli("verify-paper", "--nmax", "1", "--claim", "ZZ")
        assert code == 2 and text == ""
        assert "ZZ" in capsys.readouterr().err


# Captured from the CLI that built every subparser on every run, at 80
# columns; the parser now fills in only the subcommand it is given.
TOP_HELP = """\
usage: derleib [-h] [--version]
               {check,derive,analyze,catalog,verify-paper} ...

exact derivation algebras of nilpotent Leibniz algebras

positional arguments:
  {check,derive,analyze,catalog,verify-paper}
    check               parse and classify an algebra
    derive              compute Der / Inn / AIDer
    analyze             structural analysis
    catalog             emit a family as a definition document
    verify-paper        re-verify the documented claim registry

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
"""

ANALYZE_HELP = """\
usage: derleib analyze [-h]
                       [--family {heisenberg-lie,heisenberg,kronecker,dieudonne,realify-heisenberg}]
                       [--n N] [--a A] [--b B] [--order {grouped,interleaved}]
                       [--der] [--levi LEVI]
                       [file]

positional arguments:
  file                  algebra definition file

options:
  -h, --help            show this help message and exit
  --family {heisenberg-lie,heisenberg,kronecker,dieudonne,realify-heisenberg}
                        catalog family
  --n N                 family size parameter
  --a A                 scalar parameter (exact syntax, e.g. 1/2 or 1+1i)
  --b B                 imaginary part for realify-heisenberg
  --order {grouped,interleaved}
  --der                 analyze the derivation algebra of the input instead of
                        the input itself
  --levi LEVI           claimed Levi complement: 'v1;v2;...', each vector
                        comma-separated coordinates in the analyzed algebra's
                        basis
"""

VERIFY_USAGE_ERROR = """\
usage: derleib verify-paper [-h] [--nmax NMAX] [--a A] [--seed SEED]
                            [--claim CLAIM] [--json] [--timing] [--strict]
derleib verify-paper: error: argument --nmax: expected one argument
"""

TYPO_ERROR = """\
usage: derleib [-h] [--version]
               {check,derive,analyze,catalog,verify-paper} ...
derleib: error: argument command: invalid choice: 'frobnicate' (choose from \
'check', 'derive', 'analyze', 'catalog', 'verify-paper')
"""


class TestParser:
    @pytest.mark.parametrize("argv, code, out, err", [
        (["--help"], 0, TOP_HELP, ""),
        (["analyze", "--help"], 0, ANALYZE_HELP, ""),
        (["verify-paper", "--nmax"], 2, "", VERIFY_USAGE_ERROR),
        (["frobnicate"], 2, "", TYPO_ERROR),
    ], ids=["help", "analyze-help", "usage-error", "typo"])
    def test_help_and_errors_unchanged(self, argv, code, out, err, monkeypatch,
                                       capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        assert capsys.readouterr() == (out, err)

    def test_only_the_named_subcommand_is_filled_in(self, capsys):
        """A parser built for one subcommand has no options for another; one
        built for no subcommand has them all."""
        derive = ["derive", "--family", "dieudonne", "--n", "2", "--json"]
        with pytest.raises(SystemExit):
            cli.build_parser(["catalog"]).parse_args(derive)
        assert "unrecognized arguments" in capsys.readouterr().err
        assert cli.build_parser(derive).parse_args(derive).json
        assert cli.build_parser(["--help"]).parse_args(derive).json


def _fresh_python(*args):
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))


class TestShutdown:
    """``main`` registers ``gc.freeze`` to run at exit, so that interpreter
    finalization does not scan the run's objects; a fresh process must
    still print every byte and keep the exit code."""

    def test_fresh_process_prints_what_main_returns(self):
        argv = ["verify-paper", "--nmax", "2", "--json"]
        code, text = run_cli(*argv)
        proc = _fresh_python("-m", "derleib.cli", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, text.encode("utf-8"), b"")

    def test_main_twice_in_one_process_exits_cleanly(self):
        """Two runs of ``main`` in one process: both exit codes, then one
        freeze at exit, counted by a wrapper around the real one."""
        proc = _fresh_python("-c", """if True:
            import gc, io
            from derleib.cli import main
            freeze = gc.freeze
            gc.freeze = lambda: print("frozen") or freeze()
            print(*[main(["verify-paper", "--nmax", "1", "--json"], out=io.StringIO())
                    for _ in range(2)])
            """)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"0 0\nfrozen\n", b"")
