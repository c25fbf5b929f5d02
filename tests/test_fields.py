import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localrep import Field, FpPoly, FpRat, INFINITY
from localrep.errors import ParseError, RealHasNoValuation
from localrep.fields import LITERAL_DEGREE_CAP, LITERAL_DIGITS_CAP, PRIME_BOUND, _is_prime

Q5 = Field.padic(5)
F3 = Field.funcfield(3)
R = Field.real()


class TestValuation:
    def test_padic_examples(self):
        assert Q5.valuation(Fraction(50)) == 2
        assert Q5.valuation(Fraction(3, 25)) == -2
        assert Q5.valuation(Fraction(0)) == INFINITY

    def test_funcfield_examples(self):
        assert F3.valuation(F3.coerce("T")) == 1
        assert F3.valuation(F3.coerce("T^2/T^5")) == -3
        assert F3.valuation(F3.coerce("2")) == 0
        assert F3.valuation(F3.coerce("0")) == INFINITY

    def test_real_has_no_valuation(self):
        with pytest.raises(RealHasNoValuation):
            R.valuation(1.5)


rationals = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**4
)


class TestValuationIdentities:
    @given(rationals, rationals)
    @settings(max_examples=200, deadline=None)
    def test_multiplicative(self, x, y):
        if x == 0 or y == 0:
            return
        assert Q5.valuation(x * y) == Q5.valuation(x) + Q5.valuation(y)

    @given(rationals, rationals)
    @settings(max_examples=200, deadline=None)
    def test_ultrametric(self, x, y):
        vx, vy = Q5.valuation(x), Q5.valuation(y)
        vsum = Q5.valuation(x + y)
        assert vsum >= min(vx, vy)
        if vx != vy:
            assert vsum == min(vx, vy)

    @given(st.sampled_from([2, 3, 5]), rationals.filter(lambda x: x != 0),
           st.integers(-3000, 3000))
    @settings(max_examples=300, deadline=None)
    def test_padic_matches_naive_loop(self, p, x, e):
        # the doubling strip against one factor of p per division
        x = x * Fraction(p) ** e
        num, den, naive = x.numerator, x.denominator, 0
        while num % p == 0:
            num //= p
            naive += 1
        while den % p == 0:
            den //= p
            naive -= 1
        assert Field.padic(p).valuation(x) == naive

    @given(st.integers(-50, 50), st.integers(-50, 50),
           st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_funcfield_multiplicative(self, a, b, i, j):
        x = FpRat(FpPoly(3, [a]) * FpPoly.t_power(3, i))
        y = FpRat(FpPoly(3, [b]) * FpPoly.t_power(3, j))
        if x.is_zero() or y.is_zero():
            return
        assert F3.valuation(x * y) == F3.valuation(x) + F3.valuation(y)


class TestFpArithmetic:
    def test_poly_divmod(self):
        f = FpPoly(3, [1, 0, 1])   # 1 + T^2
        g = FpPoly(3, [1, 1])      # 1 + T
        q, r = f.divmod(g)
        assert q * g + r == f
        assert r.degree < g.degree

    def test_gcd_monic(self):
        f = FpPoly(5, [0, 0, 2])       # 2 T^2
        g = FpPoly(5, [0, 3])          # 3 T
        got = FpPoly.gcd(f, g)
        assert got == FpPoly.t_power(5, 1)

    def test_rat_field_ops(self):
        t = FpRat(FpPoly.t_power(3, 1))
        one = FpRat.from_int(3, 1)
        x = (t + one) / t
        assert x * t == t + one
        assert x - x == FpRat.from_int(3, 0)
        assert (one / x) * x == one

    def test_rat_canonical_denominator(self):
        # denominator is normalised monic, so equality is structural
        a = FpRat(FpPoly(5, [1]), FpPoly(5, [0, 2]))
        b = FpRat(FpPoly(5, [3]), FpPoly(5, [0, 6 % 5]))
        assert a == b and hash(a) == hash(b)


class TestTextEncoding:
    @pytest.mark.parametrize("text", ["50", "3/25", "-7/2", "0"])
    def test_padic_round_trip(self, text):
        x = Q5.parse(text)
        assert Q5.parse(Q5.format(x)) == x

    @pytest.mark.parametrize("text", ["T", "2*T", "T^2", "3*T^2+1", "T^2+2*T+1", "T+1/T", "2"])
    def test_funcfield_round_trip(self, text):
        x = F3.parse(text)
        assert F3.parse(F3.format(x)) == x

    def test_funcfield_printer_shape(self):
        x = F3.parse("2*T^2+1")
        assert F3.format(x) == "2*T^2+1"

    def test_real_round_trip(self):
        x = R.parse("1.5")
        assert x == 1.5 and R.parse(R.format(x)) == x

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            Q5.parse("not-a-number")
        with pytest.raises(ParseError):
            F3.parse("T**2")
        for zero_den in ("T/0", "1/3", "T/T^2+2*T^2"):  # 3 = 0 and T^2+2*T^2 = 0 in F_3
            with pytest.raises(ParseError):
                F3.parse(zero_den)
        for bad_real in ("1/0", "nan", "inf", "-1e999"):
            with pytest.raises(ParseError):
                R.parse(bad_real)

    def test_field_descriptor_round_trip(self):
        for f in (Q5, F3, R):
            assert Field.from_json(f.to_json()) == f

    def test_prime_validation(self):
        with pytest.raises(ValueError):
            Field.padic(4)
        with pytest.raises(ValueError):
            Field.funcfield(1)

    def test_miller_rabin_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

        assert [n for n in range(-3, 5000) if _is_prime(n)] == \
            [n for n in range(-3, 5000) if trial(n)]

    def test_large_primes_are_fast_and_exact(self):
        assert Field.padic(2 ** 61 - 1).p == 2 ** 61 - 1  # Mersenne; ~1e9 trial divisions
        assert _is_prime(1000000000000000003)
        for carmichael in (561, 41041, 3215031751):  # the last fools bases 2, 3, 5, 7
            assert not _is_prime(carmichael)
        # a strong pseudoprime to the bases 2..31, caught by base 37
        assert not _is_prime(3825123056546413051)

    def test_prime_past_the_bound_is_rejected(self):
        with pytest.raises(ValueError, match=str(PRIME_BOUND)):
            Field.padic(PRIME_BOUND + 2)
        with pytest.raises(ValueError, match=str(PRIME_BOUND)):
            Field.from_json({"type": "funcfield", "p": PRIME_BOUND})

    def test_literal_caps(self):
        cap, deg = LITERAL_DIGITS_CAP, LITERAL_DEGREE_CAP
        assert Q5.parse(f"1e-{cap - 1}") == Fraction(1, 10 ** (cap - 1))
        assert Q5.parse("7" * cap) == int("7" * cap)
        assert F3.parse(f"T^{deg}").num.degree == deg
        for past in (f"1e-{cap}", f"2E+{cap}", "7" * (cap + 1), f"{'1' * cap}e1",
                     "1e-" + "9" * 20):
            with pytest.raises(ParseError, match="digits"):
                Q5.parse(past)
        for past in (f"T^{deg + 1}", f"T+T^{deg + 1}/T", "T^" + "9" * 20):
            with pytest.raises(ParseError, match="power of T"):
                F3.parse(past)
        with pytest.raises(ParseError, match="coefficient"):
            F3.parse("1" * (cap + 1) + "*T")


def _euclid(a: FpPoly, b: FpPoly) -> FpPoly:
    """Reference gcd: Euclid through FpPoly.divmod, made monic."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a if a.is_zero() else a.scale(pow(a.leading(), -1, a.p))


def _polys(p, max_size=5, nonzero=False):
    coeffs = st.lists(st.integers(0, p - 1), max_size=max_size)
    if nonzero:
        coeffs = coeffs.filter(any)
    return coeffs.map(lambda cs: FpPoly(p, cs))


@st.composite
def _poly_pairs(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    return p, draw(_polys(p, 7)), draw(_polys(p, 7))


@st.composite
def _rat_pairs(draw):
    """A prime and two elements of F_p(T), each a polynomial (denominator 1)
    or a fraction given with a common factor for the constructor to cancel.
    The fractions' denominators share a factor, so sums meet gcd(d1, d2) != 1."""
    p = draw(st.sampled_from([2, 3, 5]))
    shared = draw(_polys(p, 3, nonzero=True))

    def element():
        num = draw(_polys(p))
        if draw(st.booleans()):
            return FpRat(num)
        den = draw(_polys(p, 4, nonzero=True)) * shared
        common = draw(_polys(p, 3, nonzero=True))
        return FpRat(num * common, den * common)

    return p, element(), element()


def _assert_canonical(x: FpRat):
    assert x.den.leading() == 1
    assert _euclid(x.num, x.den) == FpPoly.const(x.p, 1)


class TestCanonicalForm:
    """The operators keep num/den coprime with a monic den, and agree with
    the full normalising constructor applied to the unreduced result."""

    @given(_rat_pairs())
    @settings(max_examples=400, deadline=None)
    def test_ops_match_full_normalisation(self, case):
        p, x, y = case
        _assert_canonical(x)
        _assert_canonical(y)
        n1, d1, n2, d2 = x.num, x.den, y.num, y.den
        pairs = [
            (x + y, FpRat(n1 * d2 + n2 * d1, d1 * d2)),
            (x - y, FpRat(n1 * d2 - n2 * d1, d1 * d2)),
            (x * y, FpRat(n1 * n2, d1 * d2)),
        ]
        if not y.is_zero():
            pairs.append((x / y, FpRat(n1 * d2, d1 * n2)))
        for got, expected in pairs:
            assert got == expected and hash(got) == hash(expected)
            assert str(got) == str(expected)
            _assert_canonical(got)

    @given(_poly_pairs())
    @settings(max_examples=400, deadline=None)
    def test_gcd_matches_euclid(self, case):
        p, a, b = case
        assert FpPoly.gcd(a, b) == _euclid(a, b)

    @given(_poly_pairs())
    @settings(max_examples=400, deadline=None)
    def test_mul_coefficients_reduced(self, case):
        p, a, b = case
        prod = a * b
        assert all(0 <= c < p for c in prod.coeffs)
        assert not prod.coeffs or prod.coeffs[-1] != 0
        naive = [0] * (len(a.coeffs) + len(b.coeffs))
        for i, x in enumerate(a.coeffs):
            for j, y in enumerate(b.coeffs):
                naive[i + j] += x * y
        assert prod == FpPoly(p, naive)
