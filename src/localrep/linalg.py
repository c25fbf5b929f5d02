"""Generic linear algebra over the supported scalar models.

Everything here is pure and deterministic.  One elimination kernel,
:class:`Echelon`, does all row reduction: :func:`rref` and its kernels,
:func:`solve_linear`, ``Matrix.det`` and ``Matrix.inv`` here, and the
spins, invariance tests and word algebras of :mod:`localrep.reptheory`.
Its pivot is the first entry that is not zero under
``Field.is_zero(x, scale)``, with ``scale`` the largest |entry| given so
far, so results are exact over the exact fields and use the relative
tolerance of :mod:`localrep.fields` over R.
Over R this gives up partial pivoting on purpose: callers read each reduced
row's pivot as its first nonzero entry, which the largest-entry rule does
not keep.

One routine, :func:`_product`, forms every product of rows by columns,
here and in the other modules.  Over Q (the ``padic`` model) the work is
done on integers: a product's entry is one integer dot product over the
lcm denominators of its row and column, normalised once, and ``Echelon``
stores primitive integer rows, with one content gcd per row operation
(fraction-free elimination, Bareiss 1968).  The answers are the same
rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import add, mul

from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    SingularMatrixError,
)
from .fields import Field, INFINITY


class Matrix:
    """Immutable square matrix with entries in one field."""

    __slots__ = ("field", "data")

    def __init__(self, field: Field, rows):
        rows = tuple(tuple(row) for row in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise DimensionMismatchError("matrix must be square")
        self.field = field
        self.data = rows

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_rows(cls, field: Field, rows) -> "Matrix":
        return cls(field, (tuple(field.coerce(x) for x in row) for row in rows))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = field.one(), field.zero()
        return cls(field, tuple(
            tuple(one if i == j else zero for j in range(n)) for i in range(n)
        ))

    @classmethod
    def diagonal(cls, field: Field, entries) -> "Matrix":
        entries = [field.coerce(e) for e in entries]
        zero = field.zero()
        n = len(entries)
        return cls(field, tuple(
            tuple(entries[i] if i == j else zero for j in range(n)) for i in range(n)
        ))

    @classmethod
    def block_diagonal(cls, field: Field, blocks) -> "Matrix":
        """The square ``blocks`` down the diagonal, in order, zeros elsewhere."""
        zero = field.zero()
        n = sum(b.n for b in blocks)
        rows, lo = [], 0
        for b in blocks:
            rows.extend((zero,) * lo + row + (zero,) * (n - lo - b.n) for row in b.data)
            lo += b.n
        return cls(field, rows)

    # -- basic structure --------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.data)

    def column(self, j: int):
        return tuple(r[j] for r in self.data)

    def entry_scale(self) -> float:
        """Largest |entry|, used for relative tolerances over the reals."""
        if not self.field.is_real:
            return 1.0
        return max((abs(x) for row in self.data for x in row), default=0.0)

    def _check(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")
        if self.n != other.n:
            raise DimensionMismatchError(f"{self.n} vs {other.n}")

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        return Matrix(self.field, tuple(
            tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.data, other.data)
        ))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        return Matrix(self.field, tuple(
            tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.data, other.data)
        ))

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, tuple(tuple(-a for a in row) for row in self.data))

    def __mul__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        return Matrix(self.field, _product(self.field, self.data, tuple(zip(*other.data))))

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        return Matrix(self.field, tuple(tuple(c * a for a in row) for row in self.data))

    def apply(self, vec):
        """Matrix times column vector (any sequence of field elements)."""
        return tuple(r[0] for r in _product(self.field, self.data, (vec,)))

    def transpose(self) -> "Matrix":
        return Matrix(self.field, tuple(self.column(j) for j in range(self.n)))

    def trace(self):
        t = self.field.zero()
        for i in range(self.n):
            t = t + self.data[i][i]
        return t

    def det(self):
        ech = Echelon(self.field)
        for row in self.data:
            if not ech.insert(row):
                return self.field.zero()
        return ech.det()

    def is_singular(self) -> bool:
        """Rank below n under :class:`Echelon`'s zero test, the rule of ``det``,
        ``inv`` and :func:`rref`; the one singularity test of the package."""
        ech = Echelon(self.field)
        return not all(ech.insert(row) for row in self.data)

    def inv(self) -> "Matrix":
        return Matrix(self.field, _inverse(self.field, self.data))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field or self.n != other.n:
            return False
        sc = max(self.entry_scale(), other.entry_scale())
        f = self.field
        return all(
            f.eq(a, b, sc)
            for ra, rb in zip(self.data, other.data)
            for a, b in zip(ra, rb)
        )

    def __hash__(self):
        raise TypeError("matrices over the reals compare with tolerance; not hashable")

    def __str__(self) -> str:
        f = self.field
        return "[" + "; ".join(
            " ".join(f.format(x) for x in row) for row in self.data
        ) + "]"

    def __repr__(self) -> str:
        return f"Matrix({self.field}, {self!s})"

    def min_valuation(self):
        """Smallest valuation among nonzero entries; INFINITY if all zero."""
        v = INFINITY
        for row in self.data:
            for x in row:
                if not self.field.is_zero(x):
                    v = min(v, self.field.valuation(x))
        return v


def _product(field: Field, rows, cols) -> tuple:
    """Entry (i, j) is the dot product of ``rows[i]`` and ``cols[j]`` (sequences).

    Over Q it is one integer dot product over the lcm denominators of the
    row and the column; over F_p(T) and R the entrywise products are added
    in order, so rows and columns must not be empty there.
    """
    if field.kind == "padic":
        cols = [_over_lcm(c) for c in cols]
        return tuple(tuple(Fraction(sum(map(mul, r, c)), d * e) for c, e in cols)
                     for r, d in map(_over_lcm, rows))
    return tuple(tuple(reduce(add, map(mul, r, c)) for c in cols) for r in rows)


def _over_lcm(vec):
    """Rationals (or ints) as ``(ints, d)``: vec = ints / d, d the lcm of the denominators."""
    pairs = [x.as_integer_ratio() for x in vec]
    d = lcm(*[q for _, q in pairs])
    return [p * (d // q) for p, q in pairs], d


def _primitive(v: list):
    """``(v / g, g)`` for an integer vector, g its content; g is 0 exactly when v is."""
    g = gcd(*v)
    return (v if g < 2 else [x // g for x in v]), g


def _eliminate(v: list, row: list, piv: int):
    """:func:`_primitive` of ``row[piv] * v - v[piv] * row``, which is zero at ``piv``."""
    a, c = row[piv], v[piv]
    return _primitive([a * x - c * y for x, y in zip(v, row)])


# ---------------------------------------------------------------------------
# the elimination kernel


class Echelon:
    """Row echelon form over one field, grown one vector at a time.

    Each stored row is normalised at its pivot and zero at the pivots of the
    rows stored before it.  The pivot of a vector is its first entry that is
    not zero under ``Field.is_zero(x, scale)``, where ``scale`` is the largest
    |entry| given so far (it matters over R only).  Over the exact fields the
    first-nonzero rule is plain Gaussian elimination.  Over R it is also the
    only rule that fits the callers: :func:`rref` hands out rows whose pivot
    is their first nonzero entry, and ``reptheory`` reads coordinates and
    adapted bases off exactly those entries.  Under a largest-entry pivot
    rows no longer start at their pivot and those readings break, so partial
    pivoting was given up.  Entries below the zero test at a pivot are set
    to exact zeros.

    Over Q an ``Echelon`` is an :class:`_IntegerEchelon`: its rows are
    primitive integer vectors instead, each a multiple of the normalised row,
    and each row operation divides by one content gcd.  No ``Fraction`` is
    formed until the reduced rows are read off.
    """

    __slots__ = ("field", "rows", "pivots", "raw", "scale")

    def __new__(cls, field: Field):
        return object.__new__(_IntegerEchelon if field.kind == "padic" else cls)

    def __init__(self, field: Field):
        self.field = field
        self.rows = []      # normalised (over Q primitive) rows, in insertion order
        self.pivots = []    # their pivot columns
        self.raw = []       # the residuals' entries at their pivots
        self.scale = 0.0

    def _reduce(self, vec) -> list:
        """Residual of ``vec``: exactly zero at every pivot."""
        vec = list(vec)
        for row, piv in zip(self.rows, self.pivots):
            self._clear(vec, row, piv)
        return vec

    def _clear(self, vec: list, row, piv: int):
        """Subtract the multiple of ``row`` that makes ``vec[piv]`` zero, in place.

        ``row`` is 1 at ``piv`` and 0 before it.  ``vec[piv]`` is set to an
        exact zero, over R also where it was already below the zero test.
        """
        c = vec[piv]
        if not self.field.is_zero(c, self.scale):
            vec[piv + 1:] = [a - c * b for a, b in zip(vec[piv + 1:], row[piv + 1:])]
        vec[piv] = self.field.zero()

    def _pivot(self, vec):
        f = self.field
        for i, x in enumerate(vec):
            if not f.is_zero(x, self.scale):
                return i
        return None

    def contains(self, vec) -> bool:
        return self._pivot(self._reduce(vec)) is None

    def insert(self, vec) -> bool:
        """Reduce ``vec`` and store the residual; True if it was new."""
        f = self.field
        if f.is_real:
            self.scale = max(self.scale, max((abs(x) for x in vec), default=0.0))
        res = self._reduce(vec)
        piv = self._pivot(res)
        if piv is None:
            return False
        inv = f.one() / res[piv]
        self.rows.append([f.zero()] * piv + [f.one()] + [x * inv for x in res[piv + 1:]])
        self.pivots.append(piv)
        self.raw.append(res[piv])
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduced(self) -> tuple:
        """Rows of the reduced echelon form, by pivot column.

        Back-substitution: going from the last stored row to the first, each
        row clears its pivot column in the rows stored before it.  Over R,
        entries below the zero test are set to 0.0.
        """
        f = self.field
        rows = [list(r) for r in self.rows]
        for i in range(len(rows) - 1, 0, -1):
            for j in range(i):
                self._clear(rows[j], rows[i], self.pivots[i])
        if f.is_real:
            rows = [[0.0 if f.is_zero(x, self.scale) else x for x in r] for r in rows]
        order = sorted(range(len(rows)), key=self.pivots.__getitem__)
        return tuple(tuple(rows[i]) for i in order)

    def det(self):
        """Determinant of the inserted rows: n independent rows of length n.

        Each residual is the inserted row minus a combination of earlier
        ones, so the residuals have the same determinant; with their columns
        put in pivot order they are triangular with the raw pivots on the
        diagonal.
        """
        p = self.pivots
        inversions = sum(1 for i in range(len(p)) for j in range(i) if p[j] > p[i])
        det = self.field.one()
        for x in self.raw:
            det = det * x
        return -det if inversions % 2 else det


class _IntegerEchelon(Echelon):
    """:class:`Echelon` over Q, fraction-free: rows are primitive integer vectors.

    A vector is reduced as ``s * v``, with v a primitive integer vector and
    s a rational.  Reducing v by a row R with pivot p replaces it by
    ``R[p] v - v[p] R`` divided by its content g, which multiplies s by
    ``g / R[p]``; so the residual, its pivot and ``raw`` (s times the pivot
    entry, for :meth:`det`) are those of elimination in ``Fraction``.
    ``reduced`` back-substitutes in integers and divides each row by its
    pivot entry last, which gives the same canonical reduced rows.
    """

    __slots__ = ()

    def _reduce(self, vec):
        """``(v, num, den)`` with residual ``num / den * v``; None when it is zero."""
        v, den = _over_lcm(vec)
        v, num = _primitive(v)
        if not num:
            return None
        for row, piv in zip(self.rows, self.pivots):
            if v[piv]:
                den *= row[piv]
                v, g = _eliminate(v, row, piv)
                if not g:
                    return None
                num *= g
        return v, num, den

    def contains(self, vec) -> bool:
        return self._reduce(vec) is None

    def insert(self, vec) -> bool:
        res = self._reduce(vec)
        if res is None:
            return False
        v, num, den = res
        piv = next(i for i, x in enumerate(v) if x)
        self.rows.append(v)
        self.pivots.append(piv)
        self.raw.append(Fraction(num * v[piv], den))
        return True

    def reduced(self) -> tuple:
        rows = list(self.rows)
        for i in range(len(rows) - 1, 0, -1):
            piv = self.pivots[i]
            for j in range(i):
                if rows[j][piv]:
                    rows[j] = _eliminate(rows[j], rows[i], piv)[0]
        order = sorted(range(len(rows)), key=self.pivots.__getitem__)
        return tuple(tuple(Fraction(x, rows[i][self.pivots[i]]) for x in rows[i])
                     for i in order)


@dataclass(frozen=True)
class RrefResult:
    reduced: tuple          # rows of the reduced echelon form, zero rows last
    rank: int
    pivots: tuple           # pivot column indices
    kernel: tuple           # basis vectors of the right kernel


def rref(field: Field, rows) -> RrefResult:
    """Reduced row echelon form of a rectangular array over ``field``.

    Returns the reduced rows, the rank, the pivot columns and a basis of the
    kernel, all read off an :class:`Echelon` of the rows.
    """
    ech = Echelon(field)
    for r in rows:
        ech.insert([field.coerce(x) for x in r])
    ncols = len(rows[0]) if rows else 0
    zero = field.zero()
    reduced = ech.reduced()
    pivots = tuple(sorted(ech.pivots))
    kernel = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [zero] * ncols
        vec[fc] = field.one()
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[fc]
        kernel.append(tuple(vec))
    return RrefResult(
        reduced=reduced + ((zero,) * ncols,) * (len(rows) - ech.rank),
        rank=ech.rank,
        pivots=pivots,
        kernel=tuple(kernel),
    )


def solve_linear(field: Field, rows, rhs):
    """One solution of A x = b, or None when the system is inconsistent.

    A pivot in the last column of the augmented rows means that the rest of
    its row is zero: the system is inconsistent.
    """
    ncols = len(rows[0]) if rows else 0
    res = rref(field, [list(r) + [b] for r, b in zip(rows, rhs)])
    if ncols in res.pivots:
        return None
    x = [field.zero()] * ncols
    for row, pc in zip(res.reduced, res.pivots):
        x[pc] = row[ncols]
    return tuple(x)


def _inverse(field: Field, data):
    n = len(data)
    one, zero = field.one(), field.zero()
    aug = [list(data[i]) + [one if j == i else zero for j in range(n)] for i in range(n)]
    res = rref(field, aug)
    if res.pivots != tuple(range(n)):
        raise SingularMatrixError("matrix is singular (or below tolerance)")
    return tuple(tuple(row[n:]) for row in res.reduced)
