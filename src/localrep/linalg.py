"""Generic linear algebra over the supported scalar models.

Everything here is pure and deterministic.  Over the exact fields all results
are exact; over the reals pivoting uses the relative tolerance from
:mod:`localrep.fields`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    SingularMatrixError,
    WrongFieldError,
)
from .fields import Field, INFINITY, REAL_TOLERANCE


class Matrix:
    """Immutable square matrix with entries in one field."""

    __slots__ = ("field", "data")

    def __init__(self, field: Field, rows, coerce: bool = False):
        if coerce:
            rows = tuple(tuple(field.coerce(x) for x in row) for row in rows)
        else:
            rows = tuple(tuple(row) for row in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise DimensionMismatchError("matrix must be square")
        self.field = field
        self.data = rows

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_rows(cls, field: Field, rows) -> "Matrix":
        return cls(field, rows, coerce=True)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = field.one(), field.zero()
        return cls(field, tuple(
            tuple(one if i == j else zero for j in range(n)) for i in range(n)
        ))

    @classmethod
    def zeros(cls, field: Field, n: int) -> "Matrix":
        zero = field.zero()
        return cls(field, tuple(tuple(zero for _ in range(n)) for _ in range(n)))

    @classmethod
    def diagonal(cls, field: Field, entries) -> "Matrix":
        entries = [field.coerce(e) for e in entries]
        zero = field.zero()
        n = len(entries)
        return cls(field, tuple(
            tuple(entries[i] if i == j else zero for j in range(n)) for i in range(n)
        ))

    # -- basic structure --------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.data)

    def row(self, i: int):
        return self.data[i]

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
        n = self.n
        cols = tuple(other.column(j) for j in range(n))
        return Matrix(self.field, tuple(
            tuple(_dot(row, col) for col in cols) for row in self.data
        ))

    def __pow__(self, k: int) -> "Matrix":
        if k < 0:
            return self.inv() ** (-k)
        out = Matrix.identity(self.field, self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        return Matrix(self.field, tuple(tuple(c * a for a in row) for row in self.data))

    def apply(self, vec):
        """Matrix times column vector (any sequence of field elements)."""
        return tuple(_dot(row, vec) for row in self.data)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, tuple(self.column(j) for j in range(self.n)))

    def trace(self):
        t = self.field.zero()
        for i in range(self.n):
            t = t + self.data[i][i]
        return t

    def trace_of_product(self, other: "Matrix"):
        """tr(self * other) without forming the product: O(n^2), not O(n^3).

        Adds the diagonal entries of the product in the order of
        ``(self * other).trace()``, so float results agree bit for bit.
        """
        self._check(other)
        t = self.field.zero()
        for i, row in enumerate(self.data):
            t = t + _dot(row, other.column(i))
        return t

    def det(self):
        return _det(self.field, [list(r) for r in self.data])

    def inv(self) -> "Matrix":
        return Matrix(self.field, _inverse(self.field, self.data))

    def conjugate_by(self, h: "Matrix") -> "Matrix":
        """h^-1 * self * h."""
        return h.inv() * self * h

    def is_identity(self, scale: float | None = None) -> bool:
        sc = self.entry_scale() if scale is None else scale
        f = self.field
        one = f.one()
        for i, row in enumerate(self.data):
            for j, x in enumerate(row):
                target = one if i == j else f.zero()
                if not f.eq(x, target, sc):
                    return False
        return True

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


def _dot(row, col):
    it = iter(zip(row, col))
    a, b = next(it)
    acc = a * b
    for a, b in it:
        acc = acc + a * b
    return acc


# ---------------------------------------------------------------------------
# elimination primitives (work on rectangular lists of lists)


def _pivot_row(field: Field, rows, col: int, start: int, tol: float):
    """Index of the pivot row for ``col`` searching from ``start``, or None."""
    if field.is_real:
        best, best_val = None, tol
        for i in range(start, len(rows)):
            v = abs(rows[i][col])
            if v > best_val:
                best, best_val = i, v
        return best
    for i in range(start, len(rows)):
        if not field.is_zero(rows[i][col]):
            return i
    return None


@dataclass(frozen=True)
class RrefResult:
    reduced: tuple          # rows of the reduced echelon form
    rank: int
    pivots: tuple           # pivot column indices
    kernel: tuple           # basis vectors of the right kernel


def rref(field: Field, rows) -> RrefResult:
    """Reduced row echelon form of a rectangular array over ``field``.

    Returns the reduced rows, the rank, the pivot columns and a basis of the
    kernel.  Over the reals the pivot threshold is relative to the largest
    absolute entry of the input.
    """
    work = [[field.coerce(x) for x in r] for r in rows]
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    scale = 1.0
    if field.is_real and nrows:
        scale = max((abs(x) for r in work for x in r), default=0.0)
    tol = REAL_TOLERANCE * max(1.0, scale)

    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        piv = _pivot_row(field, work, c, r, tol if field.is_real else 0.0)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = field.one() / work[r][c] if not field.is_real else 1.0 / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(nrows):
            if i == r:
                continue
            factor = work[i][c]
            if field.is_zero(factor, scale):
                continue
            work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1

    # clean tiny residue over the reals so downstream zero tests are stable
    if field.is_real:
        for i in range(nrows):
            work[i] = [0.0 if abs(x) <= tol else x for x in work[i]]

    rank = len(pivots)
    free = [c for c in range(ncols) if c not in pivots]
    kernel = []
    for fc in free:
        vec = [field.zero()] * ncols
        vec[fc] = field.one()
        for ri, pc in enumerate(pivots):
            vec[pc] = -work[ri][fc]
        kernel.append(tuple(vec))
    return RrefResult(
        reduced=tuple(tuple(row) for row in work),
        rank=rank,
        pivots=tuple(pivots),
        kernel=tuple(kernel),
    )


def solve_linear(field: Field, rows, rhs):
    """One solution of A x = b, or None when the system is inconsistent."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    res = rref(field, aug)
    for row in res.reduced:
        if all(field.is_zero(x) for x in row[:ncols]) and not field.is_zero(row[ncols]):
            return None
    x = [field.zero()] * ncols
    for ri, pc in enumerate(res.pivots):
        if pc < ncols:
            x[pc] = res.reduced[ri][ncols]
    return tuple(x)


def _det(field: Field, work):
    n = len(work)
    scale = 1.0
    if field.is_real and n:
        scale = max((abs(x) for r in work for x in r), default=0.0)
    tol = REAL_TOLERANCE * max(1.0, scale)
    det = field.one()
    sign = 1
    for c in range(n):
        piv = _pivot_row(field, work, c, c, tol if field.is_real else 0.0)
        if piv is None:
            return field.zero()
        if piv != c:
            work[c], work[piv] = work[piv], work[c]
            sign = -sign
        pivot = work[c][c]
        det = det * pivot
        for i in range(c + 1, n):
            factor = work[i][c] / pivot
            if field.is_zero(factor, scale):
                continue
            work[i] = [a - factor * b for a, b in zip(work[i], work[c])]
    if sign < 0:
        det = -det
    return det


def _inverse(field: Field, data):
    n = len(data)
    one, zero = field.one(), field.zero()
    aug = [list(data[i]) + [one if j == i else zero for j in range(n)] for i in range(n)]
    res = rref(field, aug)
    if res.rank < n or any(p >= n for p in res.pivots[:n]):
        raise SingularMatrixError("matrix is singular (or below tolerance)")
    return tuple(tuple(res.reduced[i][n:]) for i in range(n))


# ---------------------------------------------------------------------------
# Smith-type decomposition over Z_p


def smith_padic(m: Matrix):
    """Decompose an invertible p-adic matrix as ``k1 * a * k2``.

    ``a`` is ``diag(p^e_1, ..., p^e_n)`` with ``e_1 <= ... <= e_n`` and the
    outer factors have all entries of valuation >= 0 and determinant of
    valuation 0, i.e. they are p-adic units as matrices.  Exact throughout.
    """
    field = m.field
    if field.kind != "padic":
        raise WrongFieldError("Smith decomposition is defined for the p-adic model")
    p = field.p
    n = m.n
    a = [list(row) for row in m.data]
    k1 = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    k2 = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]

    def val(x):
        return field.valuation(x)

    # invariant maintained by every step: m == k1 * a * k2
    for s in range(n):
        # minimal-valuation pivot in the trailing block
        best = None
        best_v = INFINITY
        for i in range(s, n):
            for j in range(s, n):
                v = val(a[i][j])
                if v < best_v:
                    best, best_v = (i, j), v
        if best is None or best_v is INFINITY:
            raise SingularMatrixError("matrix is singular over Q")
        bi, bj = best
        if bi != s:
            a[s], a[bi] = a[bi], a[s]           # row swap on a ...
            for r in range(n):                  # ... compensated on k1 columns
                k1[r][s], k1[r][bi] = k1[r][bi], k1[r][s]
        if bj != s:
            for r in range(n):
                a[r][s], a[r][bj] = a[r][bj], a[r][s]
            k2[s], k2[bj] = k2[bj], k2[s]
        pivot = a[s][s]
        for i in range(s + 1, n):
            if a[i][s] == 0:
                continue
            f = a[i][s] / pivot                 # valuation >= 0 by pivot choice
            a[i] = [x - f * y for x, y in zip(a[i], a[s])]
            for r in range(n):
                k1[r][s] = k1[r][s] + f * k1[r][i]
        for j in range(s + 1, n):
            if a[s][j] == 0:
                continue
            f = a[s][j] / pivot
            for r in range(n):
                a[r][j] = a[r][j] - f * a[r][s]
            k2[s] = [x + f * y for x, y in zip(k2[s], k2[j])]

    # normalise units off the diagonal of a into k1
    exps = []
    for i in range(n):
        v = val(a[i][i])
        unit = a[i][i] / Fraction(p) ** v
        a[i][i] = Fraction(p) ** v
        for r in range(n):
            k1[r][i] = k1[r][i] * unit
        exps.append(v)

    # sort elementary divisors ascending
    order = sorted(range(n), key=lambda i: exps[i])
    a_sorted = [[Fraction(0)] * n for _ in range(n)]
    for new, old in enumerate(order):
        a_sorted[new][new] = a[old][old]
    k1s = [[k1[r][order[c]] for c in range(n)] for r in range(n)]
    k2s = [k2[order[r]] for r in range(n)]

    k1m = Matrix(field, k1s)
    am = Matrix(field, a_sorted)
    k2m = Matrix(field, k2s)
    return k1m, am, k2m


def elementary_divisor_valuations(m: Matrix) -> tuple:
    """Valuations ``e_1 <= ... <= e_n`` of the elementary divisors of ``m``."""
    _, a, _ = smith_padic(m)
    return tuple(m.field.valuation(a.data[i][i]) for i in range(m.n))
