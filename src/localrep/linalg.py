"""Generic linear algebra over the supported scalar models.

Everything here is pure and deterministic.  One elimination kernel,
:class:`Echelon`, does all row reduction: :func:`rref` and its kernels,
:func:`solve_linear`, ``Matrix.det`` and ``Matrix.inv`` here, the spins,
invariance tests and word algebras of :mod:`localrep.reptheory`, and the
pivot blocks of the block LDU in :func:`localrep.parabolic.levi_decompose`.
Its pivot is the first entry that is not zero under
``Field.is_zero(x, scale)``, with ``scale`` the largest |entry| given so
far, so results are exact over the exact fields and use the relative
tolerance of :mod:`localrep.fields` over R.
Over R this gives up partial pivoting on purpose: callers read each reduced
row's pivot as its first nonzero entry, which the largest-entry rule does
not keep.  One routine eliminates on its own: :func:`smith_padic`, which
pivots on least valuation.
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
from .fields import Field, INFINITY


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
        ech = Echelon(self.field)
        for row in self.data:
            if not ech.insert(row):
                return self.field.zero()
        return ech.det()

    def inv(self) -> "Matrix":
        return Matrix(self.field, _inverse(self.field, self.data))

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
    """

    __slots__ = ("field", "rows", "pivots", "raw", "scale")

    def __init__(self, field: Field):
        self.field = field
        self.rows = []      # normalised rows, in insertion order
        self.pivots = []    # their pivot columns
        self.raw = []       # the residuals' entries at their pivots
        self.scale = 0.0

    def reduce(self, vec) -> list:
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
        return self._pivot(self.reduce(vec)) is None

    def insert(self, vec) -> bool:
        """Reduce ``vec`` and store the residual; True if it was new."""
        f = self.field
        if f.is_real:
            self.scale = max(self.scale, max((abs(x) for x in vec), default=0.0))
        res = self.reduce(vec)
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


# ---------------------------------------------------------------------------
# Smith-type decomposition over Z_p


def smith_padic(m: Matrix):
    """Decompose an invertible p-adic matrix as ``k1 * a * k2``.

    ``a`` is ``diag(p^e_1, ..., p^e_n)`` with ``e_1 <= ... <= e_n`` and the
    outer factors have all entries of valuation >= 0 and determinant of
    valuation 0, i.e. they are p-adic units as matrices.  Exact throughout.
    The elimination is its own, not :class:`Echelon`'s: it is two-sided and
    pivots on least valuation, so every multiplier stays in Z_p and the
    outer factors stay integral.
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
