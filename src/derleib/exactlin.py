"""Exact scalars and linear algebra over the rationals and Gaussian rationals.

Everything here is exact: scalars are `fractions.Fraction` (field tag ``Q``)
or :class:`GaussRat` (field tag ``Qi``), and all linear algebra reduces to
row operations in an :class:`Echelon` over the field its caller names: over
Q on projective rows of Python ints, divided by their pivots only when the
canonical rows are read, over Q(i) on pivot-one rows.  Vectors are dense
tuples or sparse ``{column: value}`` dicts; a :class:`Subspace` stores
sparse echelon rows and makes dense tuples only as a view.  Operators are
sparse matrices ``{row: {column: value}}`` without zero entries, handled by
the kit :func:`axpy`, :func:`sparse_combine`, :func:`sparse_mul`,
:func:`sparse_trace`, :func:`sparse_flat`, :func:`sparse_rows` and
:func:`sparse_commutator`.  :class:`Mat` is dense, for the catalog's parameter
matrices and the CLI's dense view.  Values are immutable after construction,
so every operation is safe to call concurrently.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

Q = "Q"
QI = "Qi"

_F0 = Fraction(0)
_F1 = Fraction(1)


class FieldMismatch(ValueError):
    """Raised when values from different scalar fields are combined."""


class ShapeMismatch(ValueError):
    """Raised on incompatible matrix/vector shapes or ambient dimensions."""


class InternalInvariantError(RuntimeError):
    """An internal verification failed; signals an algorithm bug."""


class GaussRat:
    """A Gaussian rational ``re + im*i`` with exact Fraction parts.

    Instances are immutable by convention; arithmetic returns new values.
    Plain ints and Fractions coerce into the real part, so generic code can
    use literals like ``0``, ``1`` and ``-1`` with either scalar type.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    @staticmethod
    def _parts(x):
        if isinstance(x, GaussRat):
            return x.re, x.im
        if isinstance(x, (int, Fraction)):
            return Fraction(x), _F0
        return None

    def __add__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        return GaussRat(self.re + p[0], self.im + p[1])

    __radd__ = __add__

    def __sub__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        return GaussRat(self.re - p[0], self.im - p[1])

    def __rsub__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        return GaussRat(p[0] - self.re, p[1] - self.im)

    def __mul__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        a, b = self.re, self.im
        c, d = p
        return GaussRat(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        c, d = p
        n = c * c + d * d
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        a, b = self.re, self.im
        return GaussRat((a * c + b * d) / n, (b * c - a * d) / n)

    def __rtruediv__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        return GaussRat(p[0], p[1]) / self

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        return self.re == p[0] and self.im == p[1]

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def conjugate(self):
        return GaussRat(self.re, -self.im)

    def __repr__(self):
        return "GaussRat(%s, %s)" % (self.re, self.im)


Scalar = Union[Fraction, GaussRat]


def scalar_zero(field: str) -> Scalar:
    return _F0 if field == Q else GaussRat()


def scalar_one(field: str) -> Scalar:
    return _F1 if field == Q else GaussRat(1)


def coerce_scalar(x, field: str) -> Scalar:
    """Coerce ``x`` into the given field, rejecting cross-field values."""
    if field == Q:
        if isinstance(x, GaussRat):
            if x.im:
                raise FieldMismatch("imaginary value %r in a Q context" % (x,))
            return x.re
        return Fraction(x)
    if isinstance(x, GaussRat):
        return x
    return GaussRat(Fraction(x))


def scalar_parts(x: Scalar) -> tuple[Fraction, Fraction]:
    """Real and imaginary part of any scalar."""
    if isinstance(x, GaussRat):
        return x.re, x.im
    return Fraction(x), _F0


_RAT = "[+-]?[0-9]+(?:/[0-9]+)?"


def _rational(part: str, text: str) -> Fraction:
    if not _re.fullmatch(_RAT, part):
        raise ValueError("malformed scalar %r" % (text,))
    try:
        return Fraction(part)
    except ZeroDivisionError:
        raise ValueError("zero denominator in scalar %r" % (text,)) from None


def parse_scalar(text: str, field: str = QI) -> Scalar:
    """Parse the shared scalar syntax: ``p``, ``p/q``, ``p/q+r/si``, ``i``, ``-i``.

    No whitespace is allowed inside a token, and every denominator must be
    nonzero.  A value with a nonzero imaginary part is rejected when
    ``field`` is ``Q``.
    """
    tok = text.strip()
    if not tok or any(ch.isspace() for ch in tok):
        raise ValueError("malformed scalar %r" % (text,))
    if tok.endswith("i"):
        body = tok[:-1]
        split = None
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "+-/":
                split = k
                break
        if split is None:
            re_part, im_part = "", body
        else:
            re_part, im_part = body[:split], body[split:]
        if im_part in ("", "+"):
            im = _F1
        elif im_part == "-":
            im = -_F1
        else:
            im = _rational(im_part, text)
        re = _rational(re_part, text) if re_part else _F0
        if field == Q and im:
            raise FieldMismatch("imaginary scalar %r in field Q" % (text,))
        return coerce_scalar(GaussRat(re, im), field)
    return coerce_scalar(_rational(tok, text), field)


def format_scalar(x: Scalar) -> str:
    """Canonical text form; inverse of :func:`parse_scalar`."""
    re, im = scalar_parts(x)
    if not im:
        return str(re)
    if not re:
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        return "%si" % (im,)
    sign = "+" if im > 0 else "-"
    return "%s%s%si" % (re, sign, abs(im))


def format_vector(v) -> str:
    return "[" + ", ".join(format_scalar(x) for x in v) + "]"


SparseVec = dict  # column index -> nonzero scalar


def axpy(acc: SparseVec, cf, vec) -> SparseVec:
    """``acc += cf * vec`` in place; ``vec`` is an iterable of (column, value)
    pairs, and entries that cancel are deleted.  Returns ``acc``."""
    for c, v in vec:
        cur = acc.get(c)
        nv = cf * v if cur is None else cur + cf * v
        if nv:
            acc[c] = nv
        elif cur is not None:
            del acc[c]
    return acc


def sparse_combine(vecs, coeffs) -> SparseVec:
    """``sum c * vecs[k]`` over the ``(k, c)`` pairs of ``coeffs``; each
    vector is a sequence of ``(column, value)`` pairs."""
    acc = {}
    for k, c in coeffs:
        axpy(acc, c, vecs[k])
    return acc


def sparse_mul(a: dict, b: dict) -> dict:
    """Product ``a b`` of two sparse matrices ``{row: {column: value}}``."""
    out = {}
    for r, arow in a.items():
        acc = {}
        for k, av in arow.items():
            if k in b:
                axpy(acc, av, b[k].items())
        if acc:
            out[r] = acc
    return out


def sparse_trace(a: dict, b: dict):
    """``trace(a b)`` of two sparse matrices; the int 0 when no terms meet."""
    t = 0
    for r, row in a.items():
        for c, v in row.items():
            bc = b.get(c)
            if bc and r in bc:
                t = t + v * bc[r]
    return t


def sparse_flat(a: dict, d: int) -> SparseVec:
    """Row-major flattening of a sparse matrix with ``d`` columns."""
    return {r * d + c: v for r, row in a.items() for c, v in row.items()}


def sparse_rows(flat: SparseVec, d: int) -> dict:
    """Inverse of :func:`sparse_flat`."""
    out = {}
    for i, v in flat.items():
        out.setdefault(i // d, {})[i % d] = v
    return out


def sparse_commutator(a: dict, b: dict, d: int) -> SparseVec:
    """Row-major flattening of ``a b - b a`` for sparse d x d matrices."""
    return axpy(sparse_flat(sparse_mul(a, b), d), -1,
                sparse_flat(sparse_mul(b, a), d).items())


def _row_of(vec, field: str) -> SparseVec:
    """The nonzeros of a dense or sparse vector as a new sparse row of an
    :class:`Echelon` over ``field``: over Q scaled to ints by the lcm of
    their denominators, so an int vector keeps its values."""
    row = {c: v for c, v in (vec.items() if isinstance(vec, dict) else enumerate(vec)) if v}
    if field != Q or all(type(v) is int for v in row.values()):
        return row
    n = lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (n // v.denominator) for c, v in row.items()}


def _primitive(vec: SparseVec, p: int) -> SparseVec:
    """An int vector divided by the gcd of its entries, signed so that the
    entry at column ``p`` is positive."""
    g = gcd(*vec.values())
    if vec[p] < 0:
        g = -g
    return vec if g == 1 else {c: v // g for c, v in vec.items()}


class Echelon:
    """Incremental row space of vectors over ``field``, kept reduced.

    Rows are sparse mappings ``{column: scalar}``, one per pivot column, the
    pivot being the row's first column.  Each row is zero in every other
    pivot column, so dividing the rows by their pivots gives the canonical
    RREF basis of the row space.  Over Q a row is kept projectively, as a
    coprime int vector with a positive pivot, and elimination runs on
    Python ints; a vector enters scaled by the lcm of its denominators.
    Over Q(i) each row has pivot one.
    """

    __slots__ = ("ncols", "field", "rows")

    def __init__(self, ncols: int, field: str):
        self.ncols = ncols
        self.field = field
        self.rows: dict[int, SparseVec] = {}  # pivot column -> row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec) -> SparseVec:
        """Reduce ``vec`` against the stored rows (vec is not modified).
        Over Q the result is a nonzero multiple of the reduced vector, which
        is enough for the callers: they test it for zero or insert it."""
        out = _row_of(vec, self.field)
        rows = self.rows
        hits = [p for p in out if p in rows]
        if not hits:
            return out
        if self.field == Q:
            # one factor m makes every row's coefficient b*m/a an int; a row
            # is zero at the other pivots, so clearing p leaves them alone
            m = lcm(*(rows[p][p] // gcd(rows[p][p], out[p]) for p in hits))
            if m != 1:
                out = {c: m * v for c, v in out.items()}
            for p in hits:
                axpy(out, -(out[p] // rows[p][p]), rows[p].items())
        else:
            for p in hits:
                axpy(out, -out[p], rows[p].items())
        return out

    def insert(self, vec) -> bool:
        """Add ``vec`` to the row space; returns True iff the rank grew."""
        red = self.reduce(vec)
        if not red:
            return False
        p = min(red)
        rows = self.rows
        if self.field == Q:
            row = _primitive(red, p)
            a = row[p]
            for k, other in rows.items():
                b = other.get(p)
                if b:
                    g = gcd(a, b)
                    other = {c: a // g * v for c, v in other.items()}
                    rows[k] = _primitive(axpy(other, -(b // g), row.items()), k)
        else:
            piv = red[p]
            row = {c: v / piv for c, v in red.items()}
            for other in rows.values():
                cf = other.get(p)
                if cf:
                    axpy(other, -cf, row.items())
        rows[p] = row
        return True

    def contains(self, vec) -> bool:
        return not self.reduce(vec)

    def canonical_rows(self) -> tuple:
        """The rows in pivot order, each divided by its pivot, as
        ``(column, value)`` pairs in ascending column order: the canonical
        sparse basis."""
        if self.field != Q:
            return tuple(tuple(sorted(self.rows[p].items())) for p in sorted(self.rows))
        return tuple(tuple((c, Fraction(v, row[p])) for c, v in sorted(row.items()))
                     for p, row in sorted(self.rows.items()))


@dataclass(frozen=True)
class Mat:
    """Dense matrix, row-major, over a single scalar field."""

    rows: int
    cols: int
    field: str
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0 or len(self.entries) != self.rows * self.cols:
            raise ShapeMismatch("%d entries for a %dx%d matrix"
                                % (len(self.entries), self.rows, self.cols))

    @classmethod
    def from_rows(cls, data: Sequence[Sequence], field: str = Q) -> "Mat":
        nr = len(data)
        nc = len(data[0]) if nr else 0
        flat = []
        for r in data:
            if len(r) != nc:
                raise ShapeMismatch("ragged rows")
            flat.extend(coerce_scalar(x, field) for x in r)
        return cls(nr, nc, field, tuple(flat))

    @classmethod
    def zero(cls, rows: int, cols: int, field: str = Q) -> "Mat":
        z = scalar_zero(field)
        return cls(rows, cols, field, (z,) * (rows * cols))

    @classmethod
    def unit(cls, rows: int, cols: int, r: int, c: int, field: str = Q, value=1) -> "Mat":
        if not (0 <= r < rows and 0 <= c < cols):
            raise ShapeMismatch("entry (%d, %d) outside %dx%d" % (r, c, rows, cols))
        z = scalar_zero(field)
        flat = [z] * (rows * cols)
        flat[r * cols + c] = coerce_scalar(value, field)
        return cls(rows, cols, field, tuple(flat))

    def at(self, r: int, c: int) -> Scalar:
        return self.entries[r * self.cols + c]

    def row(self, r: int) -> tuple:
        return self.entries[r * self.cols:(r + 1) * self.cols]

    def col(self, c: int) -> tuple:
        return tuple(self.entries[r * self.cols + c] for r in range(self.rows))

    def _check(self, other: "Mat", same_shape: bool):
        if self.field != other.field:
            raise FieldMismatch("mixed fields %s and %s" % (self.field, other.field))
        if same_shape and (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("shape mismatch")

    # kept for the benchmark's span recorder, which wraps it by name
    def __mul__(self, other: "Mat") -> "Mat":
        self._check(other, False)
        if self.cols != other.rows:
            raise ShapeMismatch("cannot multiply %dx%d by %dx%d"
                                % (self.rows, self.cols, other.rows, other.cols))
        n, m, k = self.rows, other.cols, self.cols
        z = scalar_zero(self.field)
        out = [z] * (n * m)
        a, b = self.entries, other.entries
        for r in range(n):
            base = r * k
            orow = r * m
            for t in range(k):
                av = a[base + t]
                if not av:
                    continue
                bbase = t * m
                for c in range(m):
                    bv = b[bbase + c]
                    if bv:
                        out[orow + c] = out[orow + c] + av * bv
        return Mat(n, m, self.field, tuple(out))

    def apply(self, vec: Sequence) -> tuple:
        """Matrix-vector product (columns hold images of basis vectors)."""
        if len(vec) != self.cols:
            raise ShapeMismatch("vector length %d != %d" % (len(vec), self.cols))
        z = scalar_zero(self.field)
        out = [z] * self.rows
        for c, xv in enumerate(vec):
            if not xv:
                continue
            for r in range(self.rows):
                e = self.entries[r * self.cols + c]
                if e:
                    out[r] = out[r] + e * xv
        return tuple(out)

    def is_zero(self) -> bool:
        return not any(self.entries)

    def flatten(self) -> tuple:
        """Row-major flattening; the fixed convention for matrix subspaces."""
        return self.entries

    def sparse(self) -> SparseVec:
        """The nonzero entries of the row-major flattening."""
        return {i: x for i, x in enumerate(self.entries) if x}

    @classmethod
    def unflatten(cls, vec: Sequence, rows: int, cols: int, field: str) -> "Mat":
        if len(vec) != rows * cols:
            raise ShapeMismatch("flat length %d != %d*%d" % (len(vec), rows, cols))
        return cls(rows, cols, field, tuple(vec))

    def pretty(self) -> str:
        cells = [[format_scalar(self.at(r, c)) for c in range(self.cols)]
                 for r in range(self.rows)]
        widths = [max(len(cells[r][c]) for r in range(self.rows)) if self.rows else 0
                  for c in range(self.cols)]
        return "\n".join(
            "[ " + "  ".join(cells[r][c].rjust(widths[c]) for c in range(self.cols)) + " ]"
            for r in range(self.rows))


def rref(m: Mat) -> tuple[Mat, int]:
    """Reduced row-echelon form of ``m`` and its rank; row space preserved."""
    sub = Subspace.span((m.row(r) for r in range(m.rows)), m.cols, m.field)
    pad = (scalar_zero(m.field),) * ((m.rows - sub.dim) * m.cols)
    return Mat(m.rows, m.cols, m.field,
               tuple(x for row in sub.basis for x in row) + pad), sub.dim


def kernel_from_rows(rows: Iterable, ncols: int, field: str) -> "Subspace":
    """Canonical basis of the common kernel of sparse/dense constraint rows:
    for each free column f, x_f = 1 and x_p = -row[f] / row[p] at the pivot
    p of each echelon row, cleared of denominators over Q."""
    ech = Echelon(ncols, field)
    for r in rows:
        ech.insert(r)
    pivots = ech.rows
    one = scalar_one(field)
    out = Echelon(ncols, field)
    for f in range(ncols):
        if f in pivots:
            continue
        hits = [(p, row) for p, row in pivots.items() if f in row]
        if field == Q:
            n = lcm(*(row[p] for p, row in hits))
            v = {f: n}
            v.update((p, -row[f] * (n // row[p])) for p, row in hits)
        else:
            v = {f: one}
            v.update((p, -row[f]) for p, row in hits)
        out.insert(v)
    return Subspace(ncols, field, out.canonical_rows())


@dataclass(frozen=True)
class Subspace:
    """A subspace of F^n stored by its canonical reduced-echelon rows:
    ``(column, value)`` pairs in ascending column order, the pivot first with
    value one.  Equal subspaces have identical rows, so structural equality
    decides subspace equality; ``basis`` is the dense view of the rows.
    """

    ambient_dim: int
    field: str
    rows: tuple  # canonical sparse RREF rows, no zero rows

    @classmethod
    def span(cls, vectors: Iterable, ambient_dim: int, field: str = Q) -> "Subspace":
        ech = Echelon(ambient_dim, field)
        for v in vectors:
            ech.insert(v)
        return cls(ambient_dim, field, ech.canonical_rows())

    @classmethod
    def zero(cls, ambient_dim: int, field: str = Q) -> "Subspace":
        return cls(ambient_dim, field, ())

    @classmethod
    def full(cls, ambient_dim: int, field: str = Q) -> "Subspace":
        one = scalar_one(field)
        return cls(ambient_dim, field, tuple(((k, one),) for k in range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    @cached_property
    def basis(self) -> tuple:
        """Dense view: one ambient-length tuple per row, in pivot order."""
        zero = scalar_zero(self.field)
        return tuple(tuple(row.get(c, zero) for c in range(self.ambient_dim))
                     for row in map(dict, self.rows))

    @cached_property
    def pivots(self) -> tuple:
        """Pivot column of each row, in row order."""
        return tuple(row[0][0] for row in self.rows)

    @cached_property
    def echelon(self) -> Echelon:
        """The rows as an :class:`Echelon` to reduce against; read only.
        Over Q each is the canonical row times the lcm of its denominators,
        which is then its pivot value."""
        ech = Echelon(self.ambient_dim, self.field)
        ech.rows = {row[0][0]: _row_of(dict(row), self.field) for row in self.rows}
        return ech

    def _check(self, other: "Subspace"):
        if self.field != other.field:
            raise FieldMismatch("mixed fields")
        if self.ambient_dim != other.ambient_dim:
            raise ShapeMismatch("ambient dimension mismatch: %d vs %d"
                                % (self.ambient_dim, other.ambient_dim))

    def contains(self, v) -> bool:
        """Membership of a vector, or of every basis vector of a subspace."""
        if isinstance(v, Subspace):
            self._check(v)
            return all(map(self.echelon.contains, v.echelon.rows.values()))
        self._check_vector(v)
        return self.echelon.contains(v)

    def _check_vector(self, v):
        """A dense vector must have the ambient length, a sparse one only
        columns inside the ambient space."""
        n = self.ambient_dim
        if isinstance(v, dict):
            if v and not (0 <= min(v) and max(v) < n):
                raise ShapeMismatch("vector column outside ambient %d" % n)
        elif len(v) != n:
            raise ShapeMismatch("vector length %d != ambient %d" % (len(v), n))

    def sum(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace.span(map(dict, self.rows + other.rows),
                             self.ambient_dim, self.field)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: row-reduce [u|u] and [v|0]; zero left halves give U ∩ V."""
        self._check(other)
        n = self.ambient_dim
        ech = Echelon(2 * n, self.field)
        for row in self.echelon.rows.values():
            ech.insert({**row, **{c + n: v for c, v in row.items()}})
        for row in other.echelon.rows.values():
            ech.insert(row)
        # a row with pivot >= n is a multiple of one of U ∩ V's basis vectors
        return Subspace.span(({c - n: v for c, v in row.items()}
                              for p, row in ech.rows.items() if p >= n),
                             n, self.field)

    def coords(self, v) -> Optional[tuple]:
        """Coordinates of ``v`` in the canonical basis, or None if outside:
        ``v`` reduces to zero, and then its values at the pivots are the
        coordinates, because the basis is in reduced echelon form."""
        self._check_vector(v)
        if self.echelon.reduce(v):
            return None
        if isinstance(v, dict):
            zero = scalar_zero(self.field)
            return tuple(v.get(p, zero) for p in self.pivots)
        return tuple(v[p] for p in self.pivots)
