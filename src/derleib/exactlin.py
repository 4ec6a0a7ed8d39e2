"""Exact scalars and linear algebra over the rationals and Gaussian rationals.

Everything here is exact: scalars are `fractions.Fraction` (field tag ``Q``)
or :class:`GaussRat` (field tag ``Qi``), and all linear algebra reduces to
row operations in an :class:`Echelon` on projective rows of Python ints,
divided by their pivots only when the canonical rows are read; over Q(i)
on the realified rows, twice as many columns.  Vectors are dense tuples or
sparse ``{column: value}`` dicts; a :class:`Subspace` stores its echelon
rows and makes canonical and dense rows as views.  Operators are sparse
matrices ``{row: {column: value}}`` without zero entries, handled by the
kit :func:`axpy`, :func:`sparse_combine`, :func:`sparse_mul`,
:func:`sparse_traces`, :func:`sparse_flat`, :func:`sparse_rows` and
:func:`sparse_commutator`, the only matrix arithmetic here.  :class:`Mat`
is dense storage, kept for the benchmark's span recorder.  Values are
immutable after construction, so every operation is safe to call
concurrently.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from functools import cached_property
from heapq import heappop, heappush
from math import gcd, lcm
from typing import Iterable, Optional, Union

Q = "Q"
QI = "Qi"

_F0 = Fraction(0)


class FieldMismatch(ValueError):
    """Raised when values from different scalar fields are combined."""


class ShapeMismatch(Exception):
    """Raised on incompatible matrix/vector shapes or ambient dimensions: an
    internal fault, since every user input is checked where it is parsed."""


class InternalInvariantError(RuntimeError):
    """An internal verification failed; signals an algorithm bug."""


class Frozen:
    """Base of the immutable values that keep an instance ``__dict__``, where
    ``cached_property`` stores the views it builds.  A subclass's fields,
    ``_fields``, are its own annotated names in order, set positionally by
    ``__init__``; two values are equal when their types and fields are."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError("%s takes %d values, %d given"
                            % (type(self).__name__, len(self._fields), len(values)))
        self.__dict__.update(zip(self._fields, values))

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())


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

    def __repr__(self):
        return "GaussRat(%s, %s)" % (self.re, self.im)


Scalar = Union[Fraction, GaussRat]


def scalar_zero(field: str) -> Scalar:
    return _F0 if field == Q else GaussRat()


def coerce_scalar(x, field: str) -> Scalar:
    """Coerce ``x`` into the given field, rejecting cross-field values."""
    if field == Q:
        if isinstance(x, GaussRat):
            if x.im:
                raise FieldMismatch("imaginary value %r in a Q context" % (x,))
            return x.re
        return x if type(x) is Fraction else Fraction(x)
    if isinstance(x, GaussRat):
        return x
    return GaussRat(Fraction(x))


def scalar_parts(x: Scalar) -> tuple[Fraction, Fraction]:
    """Real and imaginary part of any scalar."""
    if isinstance(x, GaussRat):
        return x.re, x.im
    return Fraction(x), _F0


_RAT = "[+-]?[0-9]+(?:/[0-9]+)?"
# a real token, or an optional real part followed by an imaginary part
_SCALAR = _re.compile("(%s)|(?:(%s)(?=[+-]))?([+-]?(?:[0-9]+(?:/[0-9]+)?)?)i"
                      % (_RAT, _RAT))


def _rational(part: str, text: str) -> Fraction:
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
    m = _SCALAR.fullmatch(text.strip())
    if m is None:
        raise ValueError("malformed scalar %r" % (text,))
    real, re_part, im_part = m.groups()
    if real is not None:
        return coerce_scalar(_rational(real, text), field)
    if im_part in ("", "+", "-"):
        im_part += "1"  # a bare sign is the unit
    im = _rational(im_part, text)
    re = _rational(re_part, text) if re_part else _F0
    if field == Q and im:
        raise FieldMismatch("imaginary scalar %r in field Q" % (text,))
    return coerce_scalar(GaussRat(re, im), field)


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


def sparse_traces(left, right) -> dict:
    """``{s: {t: trace(left[s] right[t])}}``, zeros omitted, for two
    sequences of sparse matrices, as one :func:`sparse_mul`: trace(a b) is
    the sum of a[r][c] b[c][r], so each left matrix is flattened at (r, c)
    and each right one transposed into the column (c, r)."""
    flat = {s: {(r, c): v for r, row in a.items() for c, v in row.items()}
            for s, a in enumerate(left)}
    cols = {}
    for t, b in enumerate(right):
        for r, row in b.items():
            for c, v in row.items():
                cols.setdefault((c, r), {})[t] = v
    return sparse_mul(flat, cols)


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
    """Row-major flattening of ``a b - b a`` for sparse d x d matrices, both
    products accumulated into one flat vector in one pass."""
    out = {}
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        for r, row in x.items():
            for k, v in row.items():
                if k in y:
                    axpy(out, sign * v, ((r * d + c, w) for c, w in y[k].items()))
    return out


def _row_of(vec, field: str) -> SparseVec:
    """The nonzeros of a dense or sparse vector as a new int row of an
    :class:`Echelon`, scaled by the lcm of their denominators, so an int
    vector keeps its values; over Q(i) x + yi at column c is x at 2c, y at 2c+1."""
    row = {c: v for c, v in (vec.items() if isinstance(vec, dict) else enumerate(vec)) if v}
    if field != Q:
        row = {2 * c + k: x for c, v in row.items()
               for k, x in enumerate(scalar_parts(v)) if x}
    for v in row.values():
        if type(v) is not int:
            break
    else:
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
    """Incremental row space of vectors over ``field``, in echelon form.

    Rows are coprime int vectors ``{column: int}`` with a positive pivot,
    one per pivot column, the row's first.  An insert only forward-reduces:
    a stored row is zero at the pivots stored before it.  The back pass
    :meth:`_reduced`, where :meth:`erows` and :func:`kernel_from_rows` read
    the rows, makes them zero in every other pivot column: divided by their
    pivots, the canonical RREF basis.  Over Q(i) rows live on the 2 * ncols
    columns of :func:`_row_of` and each vector enters with i times itself,
    so the Q span is the Q(i) span: pivots come in pairs 2p, 2p+1, and the
    reduced row at 2p is a multiple of the realified Q(i) row with pivot p.
    """

    __slots__ = ("ncols", "field", "rows")

    def __init__(self, ncols: int, field: str):
        self.ncols = ncols
        self.field = field
        self.rows: dict[int, SparseVec] = {}  # pivot column -> row

    @property
    def rank(self) -> int:
        return len(self.rows) if self.field == Q else len(self.rows) // 2

    def reduce(self, vec) -> SparseVec:
        """A new int row: ``vec`` reduced, zero iff it lies in the row space."""
        return self._reduce(_row_of(vec, self.field))

    def _reduce(self, out: SparseVec) -> SparseVec:
        """Clear the pivots of the int row ``out``, lowest first, in place or
        in a scaled copy, which is returned: clearing p adds only columns > p."""
        rows = self.rows
        hits = out.keys() & rows.keys()
        if not hits:
            return out
        hits = sorted(hits)  # a sorted list is a heap
        while hits:
            p = heappop(hits)
            b = out.get(p)
            if b:  # else a lower row cancelled it
                row = rows[p]
                g = gcd(row[p], b)
                if g != row[p]:
                    out = {c: row[p] // g * v for c, v in out.items()}
                for c in row:
                    if c not in out and c in rows:
                        heappush(hits, c)
                axpy(out, -(b // g), row.items())
        return out

    def insert(self, vec) -> bool:
        """Add ``vec`` to the row space; returns True iff the rank grew."""
        red = self.reduce(vec)
        if not red:
            return False
        self._add(red)
        if self.field != Q:
            # i * red lies outside the grown span, which it closes under i
            self._add(self._reduce({c ^ 1: -v if c & 1 else v for c, v in red.items()}))
        return True

    def _add(self, red: SparseVec):
        """Store a nonzero forward-reduced int row at its pivot."""
        p = min(red)
        self.rows[p] = _primitive(red, p)

    def _reduced(self) -> dict:
        """The back pass, highest pivot first: each row is reduced against
        the rows above it; a row already reduced stays the same dict."""
        for p in sorted(self.rows, reverse=True):
            self.rows[p] = _primitive(self._reduce(self.rows.pop(p)), p)
        return self.rows

    def contains(self, vec) -> bool:
        return not self.reduce(vec)

    def erows(self) -> tuple:
        """The rows in pivot order, as ``(column, value)`` pairs in ascending
        column order: unique to the row space, the form a Subspace stores.
        Over Q(i) the rows at even pivots read back as pivot-one rows."""
        rows = self._reduced()
        if self.field == Q:
            return tuple(tuple(sorted(rows[p].items())) for p in sorted(rows))
        return tuple(tuple((c, GaussRat(Fraction(row.get(2 * c, 0), row[p]),
                                        Fraction(row.get(2 * c + 1, 0), row[p])))
                           for c in sorted({k >> 1 for k in row}))
                     for p, row in sorted(rows.items()) if not p & 1)

    def canonical_rows(self) -> tuple:
        """:meth:`erows` divided by their pivots: the canonical sparse basis."""
        if self.field != Q:
            return self.erows()
        return tuple(tuple((c, Fraction(v, row[0][1])) for c, v in row)
                     for row in self.erows())


class Mat(Frozen):
    """Dense matrix, row-major, over a single scalar field: the storage of
    the span recorder's shims; its product is :func:`sparse_mul`'s."""

    rows: int
    cols: int
    field: str
    entries: tuple

    def __init__(self, rows: int, cols: int, field: str, entries: tuple):
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise ShapeMismatch("%d entries for a %dx%d matrix"
                                % (len(entries), rows, cols))
        super().__init__(rows, cols, field, entries)

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
        a, b = (sparse_rows(m.sparse(), m.cols) for m in (self, other))
        return Mat.unflatten(sparse_flat(sparse_mul(a, b), other.cols),
                             self.rows, other.cols, self.field)

    def flatten(self) -> tuple:
        """Row-major flattening; the fixed convention for matrix subspaces."""
        return self.entries

    def sparse(self) -> SparseVec:
        """The nonzero entries of the row-major flattening."""
        return {i: x for i, x in enumerate(self.entries) if x}

    @classmethod
    def unflatten(cls, vec, rows: int, cols: int, field: str) -> "Mat":
        """The matrix of a row-major flattening, dense or sparse."""
        if isinstance(vec, dict):
            z = scalar_zero(field)
            vec = [vec.get(i, z) for i in range(rows * cols)]
        if len(vec) != rows * cols:
            raise ShapeMismatch("flat length %d != %d*%d" % (len(vec), rows, cols))
        return cls(rows, cols, field, tuple(vec))


def kernel_from_rows(rows: Iterable, ncols: int, field: str) -> "Subspace":
    """Canonical basis of the common kernel of sparse/dense constraint rows:
    for each free column f, x_f = 1 and x_p = -row[f] / row[p] at the pivot
    p of each int row, cleared of denominators.  Over Q(i) that is the real
    kernel of the realified rows, the realified conjugate of the kernel."""
    ech = Echelon(ncols, field)
    for r in rows:
        if ech.insert(r) and ech.rank == ncols:
            return Subspace.zero(ncols, field)  # full column rank
    pivots = ech._reduced()
    hits = {}  # column -> the (pivot, row) pairs whose row holds it
    for p, row in pivots.items():
        for c in row:
            hits.setdefault(c, []).append((p, row))
    out = Echelon(ncols, field)
    for f in range(ncols if field == Q else 2 * ncols):
        if f in pivots:
            continue
        n = lcm(*(row[p] for p, row in hits.get(f, ())))
        v = {f: n}
        v.update((p, -row[f] * (n // row[p])) for p, row in hits.get(f, ()))
        if field != Q:
            v = {c: -x if c & 1 else x for c, x in v.items()}
        out._add(out._reduce(v))
    return Subspace(ncols, field, out.erows())


class Subspace(Frozen):
    """A subspace of F^n stored by its :meth:`Echelon.erows`, which are
    unique to it, so structural equality decides subspace equality; ``rows``
    (the canonical pivot-one rows) and ``basis`` (their dense tuples) are
    views built when read.
    """

    ambient_dim: int
    field: str
    erows: tuple  # echelon rows in pivot order, no zero rows

    @classmethod
    def span(cls, vectors: Iterable, ambient_dim: int, field: str = Q,
             bound: Optional["Subspace"] = None) -> "Subspace":
        """The span of ``vectors``.  ``bound`` is a subspace the caller has
        proved contains every vector, the whole space by default; it is
        returned, and no further vector is read, once the span reaches its
        dimension."""
        top = ambient_dim if bound is None else bound.dim
        ech = Echelon(ambient_dim, field)
        for v in vectors:
            if ech.insert(v) and ech.rank == top:
                return cls.full(ambient_dim, field) if bound is None else bound
        return cls(ambient_dim, field, ech.erows())

    @classmethod
    def zero(cls, ambient_dim: int, field: str = Q) -> "Subspace":
        return cls(ambient_dim, field, ())

    @classmethod
    def full(cls, ambient_dim: int, field: str = Q) -> "Subspace":
        one = 1 if field == Q else GaussRat(1)
        return cls(ambient_dim, field, tuple(((k, one),) for k in range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.erows)

    def is_zero(self) -> bool:
        return not self.erows

    @cached_property
    def rows(self) -> tuple:
        """The canonical reduced-echelon rows, pivot one."""
        return self._ech.canonical_rows()

    @cached_property
    def basis(self) -> tuple:
        """Dense view: one ambient-length tuple per row, in pivot order."""
        zero = scalar_zero(self.field)
        return tuple(tuple(row.get(c, zero) for c in range(self.ambient_dim))
                     for row in map(dict, self.rows))

    @cached_property
    def pivots(self) -> tuple:
        """Pivot column of each row, in row order."""
        return tuple(row[0][0] for row in self.erows)

    @cached_property
    def _ech(self) -> Echelon:
        """The rows as an :class:`Echelon` to reduce against; read only."""
        ech = Echelon(self.ambient_dim, self.field)
        if self.field == Q:  # the stored rows are its int rows; Q(i)'s are realified
            ech.rows = {row[0][0]: dict(row) for row in self.erows}
        else:
            for row in self.erows:
                ech.insert(dict(row))
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
            return all(map(self._ech.contains, map(dict, v.erows)))
        self._check_vector(v)
        return self._ech.contains(v)

    def take_coords(self, vec: SparseVec) -> Optional[list]:
        """Coordinates of a sparse vector that the caller hands over, keyed
        by pivot: its values at the pivot columns as ``(pivot, value)``
        pairs in ascending order, or None if it lies outside, as
        :meth:`coords` reads them.  Over Q ``vec`` must be an int row inside
        the ambient space; it is read at the pivots first and then reduced
        in place, with no copy and no shape check.  Over Q(i) it is tested
        by :meth:`contains`."""
        rows = self._ech.rows
        if self.field == Q:
            at = sorted((p, v) for p, v in vec.items() if p in rows)
            return None if self._ech._reduce(vec) else at
        if not self.contains(vec):
            return None
        # Q(i) pivot p is the realified pivot 2p
        return sorted((p, v) for p, v in vec.items() if 2 * p in rows)

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
        return Subspace.span(map(dict, self.erows + other.erows),
                             self.ambient_dim, self.field)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: row-reduce [u|u] and [v|0]; zero left halves give U ∩ V."""
        self._check(other)
        n = self.ambient_dim
        ech = Echelon(2 * n, self.field)
        for row in self.erows:
            ech.insert({**dict(row), **{c + n: v for c, v in row}})
        for row in other.erows:
            ech.insert(dict(row))
        # the rows with pivot >= n, shifted, are U ∩ V's reduced rows
        return Subspace(n, self.field, tuple(tuple((c - n, v) for c, v in row)
                                             for row in ech.erows() if row[0][0] >= n))

    def coords(self, v) -> Optional[tuple]:
        """Coordinates of ``v`` in the canonical basis, or None if outside:
        ``v`` reduces to zero, and then its values at the pivots are the
        coordinates, because the basis is in reduced echelon form."""
        self._check_vector(v)
        if self._ech.reduce(v):
            return None
        if isinstance(v, dict):
            zero = scalar_zero(self.field)
            return tuple(v.get(p, zero) for p in self.pivots)
        return tuple(v[p] for p in self.pivots)
