import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localrep import Field, Matrix, rref
from localrep.errors import SingularMatrixError
from localrep.fields import REAL_TOLERANCE
from localrep.linalg import Echelon, RrefResult, _product, solve_linear

Q5 = Field.padic(5)
F3 = Field.funcfield(3)
R = Field.real()


def _minor_rank(field, rows):
    """Oracle: rank as the largest k with a nonzero k x k minor."""
    nrows, ncols = len(rows), len(rows[0])

    def det(sub):
        k = len(sub)
        if k == 1:
            return sub[0][0]
        total = field.zero()
        sign = field.one()
        for j in range(k):
            minor = [r[:j] + r[j + 1:] for r in sub[1:]]
            total = total + sign * sub[0][j] * det(minor)
            sign = -sign
        return total

    for k in range(min(nrows, ncols), 0, -1):
        for ri in itertools.combinations(range(nrows), k):
            for ci in itertools.combinations(range(ncols), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if not field.is_zero(det(sub)):
                    return k
    return 0


class TestRref:
    def test_identity(self):
        res = rref(Q5, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert res.rank == 3 and res.kernel == ()

    def test_rank_one(self):
        res = rref(Q5, [[1, 1], [1, 1]])
        assert res.rank == 1
        assert len(res.kernel) == 1
        v = res.kernel[0]
        # kernel spans (1, -1)
        assert v[0] == -v[1]

    def test_random_rect_vs_minor_oracle(self):
        rng = random.Random(11)
        for _ in range(10):
            rows = [[Fraction(rng.randint(-4, 4)) for _ in range(6)] for _ in range(4)]
            res = rref(Q5, rows)
            assert res.rank == _minor_rank(Q5, rows)
            assert len(res.kernel) == 6 - res.rank

    def test_kernel_annihilates_exactly(self):
        rng = random.Random(12)
        for field in (Q5, F3):
            for _ in range(10):
                rows = [[field.coerce(rng.randint(-4, 4)) for _ in range(5)]
                        for _ in range(3)]
                res = rref(field, rows)
                for v in res.kernel:
                    for row in rows:
                        acc = field.zero()
                        for a, b in zip(row, v):
                            acc = acc + a * b
                        assert field.is_zero(acc) and acc == field.zero()

    def test_real_tolerance(self):
        res = rref(R, [[1.0, 1.0], [1.0, 1.0 + 1e-12]])
        assert res.rank == 1  # below relative pivot tolerance
        # an entry below the zero test comes out as an exact zero
        assert rref(R, [[2.0, 2e-13, 4.0]]).reduced == ((1.0, 0.0, 2.0),)

    def test_solve_linear(self):
        sol = solve_linear(Q5, [[1, 1], [1, -1]], [Fraction(2), Fraction(0)])
        assert sol == (Fraction(1), Fraction(1))
        assert solve_linear(Q5, [[1, 1], [1, 1]], [Fraction(0), Fraction(1)]) is None


# ---------------------------------------------------------------------------
# reference elimination: Gauss-Jordan with column partial pivoting over R, as
# linalg had it before the Echelon kernel


def _pivot_row(field, rows, col: int, start: int, tol: float):
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


def reference_rref(field, rows) -> RrefResult:
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


def reference_solve(field, rows, rhs):
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    res = reference_rref(field, aug)
    for row in res.reduced:
        if all(field.is_zero(x) for x in row[:ncols]) and not field.is_zero(row[ncols]):
            return None
    x = [field.zero()] * ncols
    for ri, pc in enumerate(res.pivots):
        if pc < ncols:
            x[pc] = res.reduced[ri][ncols]
    return tuple(x)


def reference_det(field, work):
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


def reference_inverse(field, data):
    n = len(data)
    one, zero = field.one(), field.zero()
    aug = [list(data[i]) + [one if j == i else zero for j in range(n)] for i in range(n)]
    res = reference_rref(field, aug)
    if res.rank < n or any(p >= n for p in res.pivots[:n]):
        raise SingularMatrixError("matrix is singular (or below tolerance)")
    return tuple(tuple(res.reduced[i][n:]) for i in range(n))


F3_ENTRIES = ("0", "1", "2", "T", "T+1", "2*T", "T^2+2", "1/T", "T+1/T+2")


def entries(field):
    if field.kind == "funcfield":
        return st.sampled_from(F3_ENTRIES).map(field.coerce)
    return st.integers(-4, 4).map(field.coerce)


@st.composite
def arrays(draw, field, square=False):
    """Rectangular (or square) arrays, rank-deficient about half the time.

    A rank-deficient array is a product of a rows x k and a k x cols array
    with k below both sizes; over R the entries are integers.
    """
    nrows = draw(st.integers(1, 5))
    ncols = nrows if square else draw(st.integers(1, 5))
    entry = entries(field)
    k = draw(st.integers(0, min(nrows, ncols)))
    if k == min(nrows, ncols) or draw(st.booleans()):
        return [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    left = [[draw(entry) for _ in range(k)] for _ in range(nrows)]
    right = [[draw(entry) for _ in range(ncols)] for _ in range(k)]
    return [[sum((left[i][t] * right[t][j] for t in range(k)), start=field.zero())
             for j in range(ncols)] for i in range(nrows)]


def _close(a, b) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def _all_close(xs, ys) -> bool:
    return len(xs) == len(ys) and all(
        _close(a, b) for x, y in zip(xs, ys) for a, b in zip(x, y))


def _inverse_or_none(inverse):
    try:
        return inverse()
    except SingularMatrixError:
        return None


EXACT = pytest.mark.parametrize("field", [Q5, F3], ids=["Q5", "F3T"])
ORACLE_SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)


class TestKernelAgainstGaussJordan:
    """The Echelon kernel against the Gauss-Jordan reference above."""

    @EXACT
    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_exact_rref_and_solve(self, field, data):
        rows = data.draw(arrays(field))
        assert rref(field, rows) == reference_rref(field, rows)
        rhs = [data.draw(entries(field)) for _ in rows]
        assert solve_linear(field, rows, rhs) == reference_solve(field, rows, rhs)

    @EXACT
    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_exact_det_and_inverse(self, field, data):
        rows = data.draw(arrays(field, square=True))
        m = Matrix(field, tuple(tuple(r) for r in rows))
        det = m.det()
        assert det == reference_det(field, [list(r) for r in rows])
        want = _inverse_or_none(lambda: reference_inverse(field, m.data))
        got = _inverse_or_none(lambda: m.inv().data)
        assert got == want
        assert (got is None) == field.is_zero(det)

    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_real_integer_arrays(self, data):
        rows = data.draw(arrays(R))
        got, want = rref(R, rows), reference_rref(R, rows)
        assert (got.rank, got.pivots) == (want.rank, want.pivots)
        assert _all_close(got.reduced, want.reduced)
        assert _all_close(got.kernel, want.kernel)
        rhs = [data.draw(entries(R)) for _ in rows]
        sol, ref = solve_linear(R, rows, rhs), reference_solve(R, rows, rhs)
        assert (sol is None) == (ref is None)
        if sol is not None:
            assert _all_close([sol], [ref])

    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_real_det_and_inverse(self, data):
        rows = data.draw(arrays(R, square=True))
        m = Matrix(R, tuple(tuple(r) for r in rows))
        assert _close(m.det(), reference_det(R, [list(r) for r in rows]))
        want = _inverse_or_none(lambda: reference_inverse(R, m.data))
        got = _inverse_or_none(lambda: m.inv().data)
        assert (got is None) == (want is None)
        if got is not None:
            assert _all_close(got, want)

    @pytest.mark.parametrize("field", [Q5, F3, R], ids=["Q5", "F3T", "R"])
    def test_singular_inverse_raises_and_inconsistent_solve_is_none(self, field):
        with pytest.raises(SingularMatrixError):
            Matrix.from_rows(field, [[1, 2, 0], [2, 4, 0], [0, 1, 1]]).inv()
        rows = [[field.coerce(x) for x in r] for r in ([1, 2], [2, 4])]
        assert solve_linear(field, rows, [field.one(), field.zero()]) is None
        assert solve_linear(field, rows, [field.one(), field.coerce(2)]) is not None


class TestInvert:
    def test_identity(self):
        m = Matrix.identity(Q5, 3)
        assert m.inv() == m

    def test_diag_uniformizer(self):
        F3p = Field.padic(3)
        m = Matrix.from_rows(F3p, [[3, 0], [0, 1]])
        assert m.inv() == Matrix.from_rows(F3p, [["1/3", 0], [0, 1]])

    def test_unipotent(self):
        m = Matrix.from_rows(Q5, [[1, 1], [0, 1]])
        assert m.inv() == Matrix.from_rows(Q5, [[1, -1], [0, 1]])
        assert m * m.inv() == Matrix.identity(Q5, 2)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            Matrix.from_rows(Q5, [[1, 1], [1, 1]]).inv()

    def test_real_inverse_norm(self):
        m = Matrix.from_rows(R, [[2.0, 1.0], [1.0, 1.0]])
        prod = m * m.inv()
        assert prod == Matrix.identity(R, 2)


class TestRealZeroTestKnownFault:
    @pytest.mark.xfail(strict=True, reason=(
        "Echelon tests a pivot against the largest entry inserted so far, so "
        "the 1 after the row (1e10, 0) reads as zero (ROADMAP items 5 and 11)"))
    def test_det_does_not_depend_on_row_order(self):
        for rows in ([[1e10, 0], [0, 1]], [[1, 0], [0, 1e10]]):
            assert Matrix.from_rows(R, rows).det() == pytest.approx(1e10)

    @pytest.mark.xfail(strict=True, reason=(
        "Matrix.inv reduces [g | I] in one Echelon, whose zero test scales with "
        "the largest entry inserted, 1e5, so the inverse's 1e-5 is cleared to 0.0; "
        "every real inv caller inherits it (ROADMAP items 5 and 11)"))
    def test_inverse_keeps_small_entries(self):
        assert Matrix.from_rows(R, [[1e5]]).inv().data[0][0] == pytest.approx(1e-5)


class TestIsSingular:
    """``Matrix.is_singular``: rank below n under the zero test of ``det``."""

    @EXACT
    def test_agrees_with_det_on_exact_fields(self, field):
        rng = random.Random(f"is-singular:{field.kind}")
        pool = F3_ENTRIES if field.kind == "funcfield" else range(-3, 4)
        seen = set()
        for trial in range(60):
            n = rng.randint(1, 4)
            rows = [[field.coerce(rng.choice(pool)) for _ in range(n)] for _ in range(n)]
            if trial % 3 == 0:  # the last row a combination of the others
                coeffs = [field.coerce(rng.choice(pool)) for _ in range(n - 1)]
                rows[-1] = [sum((c * r[j] for c, r in zip(coeffs, rows)), start=field.zero())
                            for j in range(n)]
            m = Matrix(field, rows)
            assert m.is_singular() == field.is_zero(m.det()), rows
            seen.add(m.is_singular())
        assert seen == {True, False}

    @pytest.mark.parametrize("c", [1e-3, 1e-5])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_small_real_scalars_are_not_singular(self, c, n):
        assert not Matrix.identity(R, n).scale(c).is_singular()

    def test_real_rank_deficit_is_singular(self):
        assert Matrix.from_rows(R, [[1e-3, 2e-3, 0], [0, 1e-3, 0], [1e-3, 3e-3, 0]]).is_singular()
        assert Matrix.from_rows(R, [[2.0, 1.0], [4.0, 2.0]]).is_singular()


# ---------------------------------------------------------------------------
# the integer kernel over Q against Fraction arithmetic


def reference_product(a, b):
    """Triple-loop matrix product in ``Fraction``."""
    return tuple(tuple(sum((a[i][t] * b[t][j] for t in range(len(b))), start=Fraction(0))
                       for j in range(len(b[0]))) for i in range(len(a)))


def _rational(rng, digits):
    """A seeded rational: up to ``digits`` digits over a product of powers of 3, 5 and 7."""
    den = rng.choice((1, 1, 3, 5, 25, 7, 21, 125 * 9))
    return Fraction(rng.randint(-10 ** digits, 10 ** digits), den)


def _rational_arrays(seed, digits):
    """Seeded rational arrays: square and rectangular, full rank and deficient,
    with zero rows, and the all-zero array."""
    rng = random.Random(f"integer-kernel:{seed}:{digits}")
    for _ in range(6):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        if rng.random() < 0.4:
            ncols = nrows
        rows = [[_rational(rng, digits) for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.5 and min(nrows, ncols) > 1:  # rank below both sizes
            k = rng.randint(1, min(nrows, ncols) - 1)
            left = [[_rational(rng, digits) for _ in range(k)] for _ in range(nrows)]
            rows = [list(r) for r in reference_product(left, rows[:k])]
        if rng.random() < 0.3:
            rows[rng.randrange(nrows)] = [Fraction(0)] * ncols
        yield rows
    yield [[Fraction(0)] * 3 for _ in range(2)]


class TestIntegerKernelOverQ:
    """Over Q, products and elimination run on integers; every answer is
    compared with textbook ``Fraction`` arithmetic (the Gauss-Jordan
    reference above and a triple-loop product)."""

    CASES = pytest.mark.parametrize("digits", [2, 40, 400])
    SEEDS = pytest.mark.parametrize("seed", range(4))

    @CASES
    @SEEDS
    def test_rref_and_solve(self, digits, seed):
        rng = random.Random(f"rhs:{seed}:{digits}")
        for rows in _rational_arrays(seed, digits):
            res = rref(Q5, rows)
            assert res == reference_rref(Q5, rows)
            assert all(isinstance(x, Fraction) for row in res.reduced for x in row)
            rhs = [_rational(rng, digits) for _ in rows]
            assert solve_linear(Q5, rows, rhs) == reference_solve(Q5, rows, rhs)
            x0 = [_rational(rng, digits) for _ in rows[0]]
            rhs = [sum((a * b for a, b in zip(r, x0)), start=Fraction(0)) for r in rows]
            sol = solve_linear(Q5, rows, rhs)
            assert sol == reference_solve(Q5, rows, rhs) and sol is not None

    @CASES
    @SEEDS
    def test_det_inverse_and_singularity(self, digits, seed):
        for rows in _rational_arrays(seed, digits):
            if len(rows) != len(rows[0]):
                continue
            m = Matrix(Q5, rows)
            det = m.det()
            assert det == reference_det(Q5, [list(r) for r in rows])
            assert m.is_singular() == (det == 0)
            want = _inverse_or_none(lambda: reference_inverse(Q5, m.data))
            assert _inverse_or_none(lambda: m.inv().data) == want
            assert (want is None) == (det == 0)

    @CASES
    @SEEDS
    def test_echelon_insert_and_contains(self, digits, seed):
        rng = random.Random(f"echelon:{seed}:{digits}")
        for rows in _rational_arrays(seed, digits):
            ncols = len(rows[0])
            ech = Echelon(Q5)
            ranks = [reference_rref(Q5, rows[:k]).rank for k in range(len(rows) + 1)]
            for k, row in enumerate(rows):
                assert ech.insert(row) is (ranks[k + 1] > ranks[k])
                assert ech.contains(row)
            zero = [Fraction(0)] * ncols
            assert ech.contains(zero) and ech.insert(zero) is False
            coeffs = [_rational(rng, digits) for _ in rows]
            combo = [sum((c * r[j] for c, r in zip(coeffs, rows)), start=Fraction(0))
                     for j in range(ncols)]
            assert ech.contains(combo) and ech.insert(combo) is False
            ref = reference_rref(Q5, rows)
            # over Q a nonzero kernel vector is orthogonal to the row span, so outside it
            for v in ref.kernel:
                assert not ech.contains(v)
            assert ech.reduced() == ref.reduced[:ref.rank]
            assert (ech.rank, tuple(sorted(ech.pivots))) == (ref.rank, ref.pivots)

    @CASES
    @SEEDS
    def test_product_and_apply(self, digits, seed):
        rng = random.Random(f"product:{seed}:{digits}")
        for n in (1, 2, 3, 5):
            a, b = ([[_rational(rng, digits) for _ in range(n)] for _ in range(n)]
                    for _ in range(2))
            if n > 1:
                a[rng.randrange(n)] = [Fraction(0)] * n
            ma, mb = Matrix(Q5, a), Matrix(Q5, b)
            assert (ma * mb).data == reference_product(a, b)
            v = [_rational(rng, digits) for _ in range(n)]
            assert ma.apply(v) == tuple(r[0] for r in reference_product(a, [[x] for x in v]))
            assert ma.apply([0] * n) == (Fraction(0),) * n
            # rectangular: the first rows of a against the first columns of b
            k = rng.randint(1, n)
            assert _product(Q5, a[:k], list(zip(*b))[:n - k + 1]) == tuple(
                row[:n - k + 1] for row in reference_product(a, b)[:k])

    def test_rows_are_primitive_integer_vectors(self):
        for rows in _rational_arrays(0, 40):
            ech = Echelon(Q5)
            for row in rows:
                ech.insert(row)
            for v in ech.rows:
                assert all(type(x) is int for x in v) and math.gcd(*v) == 1

    @pytest.mark.parametrize("op", ["product", "apply"])
    def test_products_make_no_fraction_arithmetic(self, monkeypatch, op):
        # as sums of entrywise products, this product made 27 multiplications
        # and 18 additions of Fractions, and the matrix times vector 9 and 6
        calls = []
        for name in ("__mul__", "__add__"):
            def counted(self, other, name=name, real=getattr(Fraction, name)):
                calls.append(name)
                return real(self, other)

            monkeypatch.setattr(Fraction, name, counted)
        a = Matrix.from_rows(Q5, [[1, 2, 3], [4, 5, 6], [7, 8, 10]])
        b = Matrix.from_rows(Q5, [[2, 0, 1], [1, 3, 0], [0, 1, 4]])
        if op == "product":
            a * b
        else:
            a.apply(b.data[0])
        assert calls == []


# the one product routine against sums of entrywise products in each field


def reference_dot_array(field, rows, cols):
    """Entry (i, j) is ``field.zero()`` plus the products of rows[i] and cols[j], in order."""
    return tuple(tuple(sum((a * b for a, b in zip(r, c)), start=field.zero()) for c in cols)
                 for r in rows)


def _entry(field, rng):
    if field.is_real:
        return rng.uniform(-10.0, 10.0)
    if field.kind == "padic":
        return Fraction(rng.randint(-99, 99), rng.choice((1, 3, 25, 7 * 125)))
    return field.coerce(rng.choice(["0", "1", "2", "T", "2*T+1", "1/T", "T/T+1", "T^2+2/T^2+T+2"]))


class TestProduct:
    @pytest.mark.parametrize("field", [Q5, F3, R], ids=["Q5", "F3T", "R"])
    def test_against_the_reference(self, field):
        rng = random.Random(f"product:{field}")
        for nrows, length, ncols in [(1, 1, 1), (3, 3, 3), (5, 5, 5), (2, 4, 3), (4, 2, 1),
                                     (3, 5, 1), (1, 6, 4), (0, 3, 2), (2, 3, 0), (0, 2, 0)]:
            rows = [[_entry(field, rng) for _ in range(length)] for _ in range(nrows)]
            cols = [[_entry(field, rng) for _ in range(length)] for _ in range(ncols)]
            if nrows > 1:
                rows[0] = [field.zero()] * length
            got = _product(field, rows, cols)
            # floats too: both add the same products in the same order
            assert got == reference_dot_array(field, rows, cols)
            assert len(got) == nrows and all(len(r) == ncols for r in got)

    def test_empty_inputs(self):
        for field in (Q5, F3, R):
            assert _product(field, [], []) == ()
            assert _product(field, [], [[field.one()]]) == ()
            assert _product(field, [[field.one()], [field.zero()]], []) == ((), ())
