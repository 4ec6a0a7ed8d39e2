import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from derleib.algebra import MAX_DIM, Algebra
from derleib.catalog import kronecker
from derleib.cli import main
from derleib.dsl import (
    AlgebraDoc,
    ParseError,
    Report,
    parse,
    report_json,
    serialize,
)
from derleib.exactlin import GaussRat, Q, QI

H3_DOC = """algebra h3 field Q
basis e f z
[e,f] = z
[f,e] = -1 z
end
"""


class TestParse:
    def test_heisenberg_document(self):
        doc = parse(H3_DOC)
        alg = doc.algebra
        assert doc.name == "h3" and alg.field == Q
        assert alg.labels == ("e", "f", "z")
        assert alg.table == {(0, 1): ((2, 1),), (1, 0): ((2, -1),)}
        assert alg.kind.lie

    def test_comments_and_blank_lines(self):
        text = "# heading\nalgebra a field Q  # trailing\n\nbasis x y\n" \
               "[x,y] = 2 y\nend\n"
        doc = parse(text)
        assert doc.algebra.table == {(0, 1): ((1, F(2)),)}

    def test_terms_combine(self):
        doc = parse("algebra a field Q\nbasis x y\n[x,x] = y + y\nend")
        assert doc.algebra.table == {(0, 0): ((1, F(2)),)}
        doc = parse("algebra a field Q\nbasis x y\n[x,x] = y + -1 y\nend")
        assert doc.algebra.table == {}

    def test_gaussian_scalar_round_trip(self):
        text = "algebra a field Qi\nbasis e f z\n[e,f] = 1+1i z\nend"
        doc = parse(text)
        (terms,) = doc.algebra.table.values()
        assert terms == ((2, GaussRat(1, 1)),)
        assert parse(serialize(doc)) == doc

    def test_round_trip_identity_on_canonical_docs(self):
        for alg, name in ((kronecker(3), "k3"), (kronecker(1), "k1")):
            doc = AlgebraDoc(name, alg)
            assert parse(serialize(doc)) == doc

    def test_serialize_parse_idempotent(self):
        messy = "algebra a field Q\nbasis x y z\n[y,x] = z\n[x,y] = 2 z\nend"
        doc = parse(messy)
        once = serialize(doc)
        assert serialize(parse(once)) == once

    def test_catalog_pipeline(self):
        doc = AlgebraDoc("k3", kronecker(3))
        reparsed = parse(serialize(doc)).algebra
        assert reparsed == kronecker(3)
        assert reparsed.kind == kronecker(3).kind


class TestParseErrors:
    @pytest.mark.parametrize("text,frag", [
        ("algebra a field R\nbasis x\nend", "field"),
        ("algebra a field Q\nbasis x x\nend", "duplicate basis label"),
        ("algebra a field Q\nbasis x\n[x,y] = x\nend", "undeclared"),
        ("algebra a field Q\nbasis x y\n[x,y] = w\nend", "undeclared label 'w'"),
        ("algebra a field Q\nbasis x\n[x,x] = x\n[x,x] = x\nend", "duplicate entry"),
        ("algebra a field Q\nbasis x\n[x,x] = 1/ x\nend", "malformed scalar"),
        ("algebra a field Q\nbasis x\n[x,x] = x", "unexpected end"),
        ("algebra a field Q\nbasis x\nend\nleftover", "after 'end'"),
        ("algebra a field Qi\nbasis x\n[x,x] = 1+1i\nend", "malformed term"),
        ("basis x\nend", "algebra"),
    ])
    def test_error_messages_carry_position(self, text, frag):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert frag in str(exc.value)
        assert exc.value.line >= 1 and exc.value.col >= 1

    @pytest.mark.parametrize("scalar", ["1/0", "1+1/0i"])
    def test_zero_denominator_reports_position(self, scalar):
        text = "algebra a field Qi\nbasis e f z\n[e,f] = %s z\nend" % scalar
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert "zero denominator" in str(exc.value)
        assert exc.value.line == 3 and exc.value.col >= 1

    @pytest.mark.parametrize("text,line,col", [
        ("algebra a field Qi\nbasis e f z\n[e,f] = 1/0 z\nend", 3, 9),
        ("algebra a field Q\nbasis x\n[x,y] = x\nend", 3, 4),
        ("algebra a field Q\nbasis x y\n[x,y] = w\nend", 3, 9),
        ("algebra a field Q\nbasis x\n  [x, x]=  x + 2 q\nend", 3, 18),
    ])
    def test_error_column_is_exact(self, text, line, col):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (exc.value.line, exc.value.col) == (line, col)

    @pytest.mark.parametrize("first", ["y + -1 y", "0 y"])
    def test_duplicate_of_a_cancelled_entry(self, first):
        text = "algebra a field Q\nbasis x y\n[x,x] = %s\n[x,x] = 2 y\nend" % first
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (exc.value.line, exc.value.col) == (4, 2)
        assert exc.value.msg == "duplicate entry for [x,x]"

    def test_basis_longer_than_the_cap(self):
        labels = ["x%d" % k for k in range(MAX_DIM + 1)]
        basis = "basis " + " ".join(labels)
        with pytest.raises(ParseError) as exc:
            parse("algebra a field Q\n%s\nend" % basis)
        assert exc.value.msg == "more than %d basis labels" % MAX_DIM
        assert (exc.value.line, exc.value.col) == (2, basis.index(labels[-1]) + 1)
        assert len(parse("algebra a field Q\n%s\nend" % basis[:basis.rindex(" ")])
                   .algebra.labels) \
            == MAX_DIM

    def test_imaginary_scalar_in_rational_field(self):
        with pytest.raises(ParseError):
            parse("algebra a field Q\nbasis x\n[x,x] = 1+1i x\nend")


def random_doc(rng: Random) -> AlgebraDoc:
    dim = rng.randint(1, 4)
    labels = ["v%d" % k for k in range(dim)]
    entries = {}
    for _ in range(rng.randint(0, 5)):
        i, j = rng.randrange(dim), rng.randrange(dim)
        if (i, j) in entries:
            continue
        terms = []
        seen = set()
        for _ in range(rng.randint(1, 2)):
            k = rng.randrange(dim)
            if k in seen:
                continue
            seen.add(k)
            cf = F(rng.randint(-5, 5), rng.choice((1, 2, 3)))
            if cf:
                terms.append((k, cf))
        if terms:
            entries[(i, j)] = terms
    return AlgebraDoc("fuzz", Algebra.from_brackets(Q, labels, entries))


class TestFuzz:
    def test_thousand_documents_round_trip_or_error(self):
        rng = Random(2024)
        crashes = 0
        for t in range(1000):
            doc = random_doc(rng)
            text = serialize(doc)
            if t % 2 == 0:
                assert parse(text) == doc
            else:
                # mutate: parser must either parse or raise ParseError
                chars = list(text)
                for _ in range(rng.randint(1, 4)):
                    pos = rng.randrange(len(chars))
                    chars[pos] = rng.choice("[]=,+ \nabz019/i-")
                try:
                    parse("".join(chars))
                except ParseError:
                    pass
                except Exception:
                    crashes += 1
        assert crashes == 0


_LABELS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True)
_STRAY = st.sampled_from(("[", "]", ",", "=", "+", "#", "end", "basis", "field",
                          "1/0", "i", "--", "2/", "[x,", "]]", "\t", "é"))
_NUMERATORS = st.one_of(st.integers(-3, 3), st.integers(-2 ** 200, 2 ** 200))


def _scalar_text(draw, field):
    """A scalar token: small or huge numerators, huge denominators, a zero
    one now and then, and over Q(i) sometimes an imaginary part."""
    text = "%d%s" % (draw(_NUMERATORS),
                     draw(st.sampled_from(("", "", "/3", "/%d" % (2 ** 70 + 1), "/0"))))
    if field == QI and draw(st.booleans()):
        text += "%+di" % draw(_NUMERATORS)
    return text


def _generated_document(draw) -> str:
    """A definition document from random labels, sometimes more than
    ``MAX_DIM`` of them, with up to five bracket entries of random scalars,
    and up to two stray tokens put into random lines."""
    field = draw(st.sampled_from((Q, QI)))
    labels = draw(st.lists(_LABELS, min_size=1, max_size=6, unique=True))
    if draw(st.integers(0, 3)) == 3:
        labels += ["big%d" % k for k in range(MAX_DIM - len(labels) + draw(st.integers(0, 2)))]
    lines = ["algebra %s field %s" % (draw(_LABELS), field), "basis " + " ".join(labels)]
    for _ in range(draw(st.integers(0, 5))):
        a, b = draw(st.sampled_from(labels)), draw(st.sampled_from(labels))
        terms = [(_scalar_text(draw, field) + " " if draw(st.booleans()) else "")
                 + draw(st.sampled_from(labels)) for _ in range(draw(st.integers(1, 3)))]
        lines.append("[%s,%s] = %s" % (a, b, " + ".join(terms)))
    if draw(st.integers(0, 5)) < 5:
        lines.append("end")
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(lines) - 1))
        words = lines[k].split(" ")
        words.insert(draw(st.integers(0, len(words))), draw(_STRAY))
        lines[k] = " ".join(words)
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_generated_documents_round_trip_or_fail_cleanly(data):
    """A generated document parses and round-trips through ``serialize``,
    or raises ``ParseError``; ``derleib check`` on it exits 2 exactly when
    it does not parse, otherwise 0 or 1, and never prints a traceback."""
    text = _generated_document(data.draw)
    try:
        doc = parse(text)
    except ParseError:
        doc = None
    else:
        assert parse(serialize(doc)) == doc
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.alg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stderr(err):
            code = main(["check", path], out=io.StringIO())
    assert code in (0, 1, 2) and (code == 2) == (doc is None), err.getvalue()
    assert "Traceback" not in err.getvalue()


class TestReportJson:
    def _report(self):
        claims = ({"id": "H1", "params": {"n": 1, "a": "2"},
                   "status": "confirmed", "expected": "dim 4",
                   "actual": "dim 4", "elapsed": 0.0123},)
        return Report(version="0.1.0", input="abc123", claims=claims)

    def test_status_and_exact_strings(self):
        text = report_json(self._report())
        doc = json.loads(text)
        assert doc["claims"][0]["status"] == "confirmed"
        assert doc["claims"][0]["params"]["a"] == "2"
        assert doc["version"] == "0.1.0"

    def test_byte_identical_without_timing(self):
        a = report_json(self._report())
        b = report_json(self._report())
        assert a == b
        assert json.loads(a)["claims"][0]["elapsed_ms"] is None

    def test_timing_flag(self):
        doc = json.loads(report_json(self._report(), timing=True))
        assert doc["claims"][0]["elapsed_ms"] == 12

    def test_no_floats_anywhere(self):
        def walk(node):
            assert not isinstance(node, float)
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)
        walk(json.loads(report_json(self._report())))
