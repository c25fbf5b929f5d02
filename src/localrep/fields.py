"""Scalar arithmetic for the three supported local-field models.

A field element is an ordinary Python value whose meaning is fixed by a
:class:`Field` descriptor:

* ``real``      -- ``float`` with the archimedean absolute value,
* ``padic``     -- ``fractions.Fraction`` carrying the p-adic valuation
                   (exact rationals in lowest terms, so no precision loss),
* ``funcfield`` -- :class:`FpRat`, a reduced ratio of polynomials over the
                   prime field F_p in one indeterminate T, with the T-adic
                   valuation.

The non-archimedean absolute value is normalised as |x| = p^(-v(x)).  The
valuation of zero is the distinguished value ``INFINITY`` (``math.inf``),
never a large integer.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import FieldMismatchError, ParseError, RealHasNoValuation

INFINITY = math.inf

#: pivot / singularity tolerance for real matrices, relative to the largest
#: absolute entry
REAL_TOLERANCE = 1e-9


#: Miller-Rabin on the prime bases 2..41 decides primality exactly below this
#: bound (Sorenson and Webster, 2015); a larger p is rejected
PRIME_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: most digits a p-adic (rational) literal may stand for, its decimal
#: exponent counted in full ("1e-999" is 1000 digits), and the longest
#: coefficient of a rational-function literal
LITERAL_DIGITS_CAP = 1000
#: highest power of T a rational-function literal may name
LITERAL_DEGREE_CAP = 1000


def _multiplicity(n: int, p: int) -> int:
    """Largest v with p^v dividing the nonzero integer n, in O(log v) divisions.

    Strips p, p^2, p^4, ... while they divide, then the halved powers on the
    way back down; one factor of p per division would be quadratic in v.
    """
    powers = [p]
    v = 0
    while True:
        q, r = divmod(n, powers[-1])
        if r:
            break
        n = q
        v += 1 << (len(powers) - 1)
        powers.append(powers[-1] * powers[-1])
    # what is left of v is below the exponent of the power that failed, so
    # the remainder r has the valuation that n has
    n = r
    for k in range(len(powers) - 2, -1, -1):
        q, r = divmod(n, powers[k])
        if not r:
            n = q
            v += 1 << k
    return v


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for p < PRIME_BOUND."""
    if p >= PRIME_BOUND:
        raise ValueError(f"primes must be below {PRIME_BOUND}, got {p}")
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# polynomials and rational functions over F_p


class FpPoly:
    """Dense polynomial over F_p, coefficients ascending, no trailing zeros."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs, _trusted: bool = False):
        if _trusted:
            self.p = p
            self.coeffs = coeffs
            return
        cs = [c % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.p = p
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, p: int, c: int) -> "FpPoly":
        return cls(p, (c,))

    @classmethod
    def t_power(cls, p: int, k: int, c: int = 1) -> "FpPoly":
        return cls(p, (0,) * k + (c,))

    @property
    def order(self):
        """Index of the lowest nonzero coefficient (ord_T); INFINITY for 0."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return INFINITY

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def _check(self, other: "FpPoly"):
        if self.p != other.p:
            raise FieldMismatchError("polynomials over different primes")

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    def __add__(self, other: "FpPoly") -> "FpPoly":
        self._check(other)
        p = self.p
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % p
        while out and not out[-1]:
            out.pop()
        return FpPoly(p, tuple(out), _trusted=True)

    def __neg__(self) -> "FpPoly":
        return FpPoly(self.p, tuple([-c % self.p for c in self.coeffs]), _trusted=True)

    def __sub__(self, other: "FpPoly") -> "FpPoly":
        return self + (-other)

    def __mul__(self, other: "FpPoly") -> "FpPoly":
        self._check(other)
        p = self.p
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return FpPoly(p, (), _trusted=True)
        # p is prime, so the leading product a[-1] * b[-1] stays nonzero mod p
        if len(a) == 1:
            c = a[0]
            return FpPoly(p, tuple([c * y % p for y in b]), _trusted=True)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return FpPoly(p, tuple([c % p for c in out]), _trusted=True)

    def scale(self, c: int) -> "FpPoly":
        c %= self.p
        if c == 0:
            return FpPoly(self.p, ())
        return FpPoly(self.p, tuple([c * a % self.p for a in self.coeffs]), _trusted=True)

    def divmod(self, other: "FpPoly"):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        b = other.coeffs
        inv_lead = pow(b[-1], -1, p)
        rem = list(self.coeffs)
        dq = len(rem) - len(b)
        if dq < 0:
            return FpPoly(p, (), _trusted=True), self
        quo = [0] * (dq + 1)
        for k in range(dq, -1, -1):
            top = rem[k + len(b) - 1]
            if top:
                q = (top * inv_lead) % p
                quo[k] = q
                for j, c in enumerate(b, k):
                    rem[j] = (rem[j] - q * c) % p
        del rem[len(b) - 1:]
        while rem and not rem[-1]:
            rem.pop()
        # the top quotient coefficient comes from the nonzero top of self
        return FpPoly(p, tuple(quo), _trusted=True), FpPoly(p, tuple(rem), _trusted=True)

    @staticmethod
    def gcd(a: "FpPoly", b: "FpPoly") -> "FpPoly":
        """Monic gcd (zero only for gcd(0, 0)), by Euclid on remainders alone."""
        a._check(b)
        p = a.p
        r0, r1 = list(a.coeffs), list(b.coeffs)
        while r1:
            inv = pow(r1[-1], -1, p)
            d = len(r1) - 1
            # r0 <- r0 mod r1, cancelling the (nonzero) top coefficient each step
            while len(r0) > d:
                q = r0.pop() * inv % p
                shift = len(r0) - d
                for j in range(d):
                    r0[shift + j] = (r0[shift + j] - q * r1[j]) % p
                while r0 and not r0[-1]:
                    r0.pop()
            r0, r1 = r1, r0
        if not r0:
            return FpPoly(p, (), _trusted=True)
        inv = pow(r0[-1], -1, p)
        return FpPoly(p, tuple([c * inv % p for c in r0]), _trusted=True)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FpPoly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append("T" if c == 1 else f"{c}*T")
            else:
                terms.append(f"T^{k}" if c == 1 else f"{c}*T^{k}")
        return "+".join(terms)

    def __repr__(self) -> str:
        return f"FpPoly(p={self.p}, {self!s})"


_TERM_RE = re.compile(r"^(\d+)?(?:\*?(T)(?:\^(\d+))?)?$")


def _parse_poly(p: int, text: str) -> FpPoly:
    text = text.replace(" ", "")
    if not text:
        raise ParseError("empty polynomial")
    # split into signed terms
    chunks = re.findall(r"[+-]?[^+-]+", text)
    result = FpPoly(p, ())
    for chunk in chunks:
        sign = 1
        if chunk[0] in "+-":
            sign = -1 if chunk[0] == "-" else 1
            chunk = chunk[1:]
        m = _TERM_RE.match(chunk)
        if not m or (m.group(1) is None and m.group(2) is None):
            raise ParseError(f"bad polynomial term {chunk!r}")
        digits = m.group(1) or "1"
        power = (m.group(3) or "1").lstrip("0") or "0"
        # lengths first: int() is slow on a long digit string
        if len(digits) > LITERAL_DIGITS_CAP:
            raise ParseError(f"coefficient longer than {LITERAL_DIGITS_CAP} digits")
        if len(power) > len(str(LITERAL_DEGREE_CAP)) or int(power) > LITERAL_DEGREE_CAP:
            raise ParseError(f"power of T above {LITERAL_DEGREE_CAP} in {chunk[:40]!r}")
        coeff = int(digits)
        k = 0 if m.group(2) is None else int(power)
        result = result + FpPoly.t_power(p, k, sign * coeff)
    return result


def _cancel(a: FpPoly, b: FpPoly):
    """``(a/g, b/g)`` for g = gcd(a, b), with ``b`` nonzero.

    No gcd runs when ``a`` is zero or either side is a nonzero constant, and
    no division when the gcd is 1.  ``b/g`` stays monic when ``b`` is.
    """
    if not a.coeffs:  # gcd(0, b) is b made monic
        return a, FpPoly.const(b.p, b.leading())
    if len(a.coeffs) == 1 or len(b.coeffs) == 1:
        return a, b
    g = FpPoly.gcd(a, b)
    if g.is_one():
        return a, b
    return a.divmod(g)[0], b.divmod(g)[0]


def _monic(num: FpPoly, den: FpPoly):
    """Scale ``num/den`` so that the (nonzero) denominator is monic."""
    lead = den.leading()
    if lead == 1:
        return num, den
    inv = pow(lead, -1, den.p)
    return num.scale(inv), den.scale(inv)


class FpRat:
    """Fraction of F_p[T] polynomials in canonical form.

    Invariant: ``num`` and ``den`` are coprime and ``den`` is monic, so zero
    is 0/1 and a polynomial has ``den == 1``.  Equality, hashing and the
    printed form compare the pair itself and rely on this.

    The constructor normalises any pair: it cancels gcd(num, den) and makes
    the denominator monic.  Results of ``+ - * /`` are built from operands
    that already hold the invariant and need no full normalisation
    (Henrici's reduced-fraction arithmetic; Knuth, TAOCP vol. 2, 4.5.1):

    * both denominators 1: a sum, difference or product of polynomials is a
      polynomial over 1, with no gcd; more generally ``+`` and ``-`` over a
      common denominator d reduce (n1 +- n2)/d by one gcd with d;
    * ``*`` and ``/``: cancel across, g1 = gcd(n1, d2) and g2 = gcd(n2, d1).
      After that each reduced numerator is coprime to both reduced
      denominators, so the products are coprime too; ``/`` then only makes
      the denominator monic;
    * ``+`` and ``-``: with g = gcd(d1, d2) and s_i = d_i/g, the numerator
      t = n1 s2 + n2 s1 is coprime to s1 (t = n1 s2 mod s1) and to s2, so
      its gcd with the denominator g s1 s2 is gcd(t, g); when g is 1 the
      result is already reduced.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: FpPoly, den: FpPoly | None = None, _trusted: bool = False):
        if _trusted:
            self.num = num
            self.den = den
            return
        if den is None:
            den = FpPoly.const(num.p, 1)
        num._check(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num, self.den = _monic(*_cancel(num, den))

    @classmethod
    def from_int(cls, p: int, k: int) -> "FpRat":
        return cls(FpPoly.const(p, k), FpPoly.const(p, 1), _trusted=True)

    @property
    def p(self) -> int:
        return self.num.p

    def is_zero(self) -> bool:
        return self.num.is_zero()

    @property
    def valuation(self):
        if self.num.is_zero():
            return INFINITY
        return self.num.order - self.den.order

    def _sum(self, n2: FpPoly, d2: FpPoly) -> "FpRat":
        n1, d1 = self.num, self.den
        if d1 == d2:  # a common denominator; 1 for polynomials, then no gcd
            return FpRat(*_cancel(n1 + n2, d1), _trusted=True)
        g = FpPoly.gcd(d1, d2)
        if g.is_one():
            return FpRat(n1 * d2 + n2 * d1, d1 * d2, _trusted=True)
        s1, s2 = d1.divmod(g)[0], d2.divmod(g)[0]
        t, g = _cancel(n1 * s2 + n2 * s1, g)
        return FpRat(t, s1 * s2 * g, _trusted=True)

    def __add__(self, other: "FpRat") -> "FpRat":
        return self._sum(other.num, other.den)

    def __sub__(self, other: "FpRat") -> "FpRat":
        return self._sum(-other.num, other.den)

    def __neg__(self) -> "FpRat":
        return FpRat(-self.num, self.den, _trusted=True)

    def __mul__(self, other: "FpRat") -> "FpRat":
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if d1.is_one() and d2.is_one():
            return FpRat(n1 * n2, d1, _trusted=True)
        n1, d2 = _cancel(n1, d2)
        n2, d1 = _cancel(n2, d1)
        return FpRat(n1 * n2, d1 * d2, _trusted=True)

    def __truediv__(self, other: "FpRat") -> "FpRat":
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        n1, n2 = _cancel(self.num, other.num)
        d2, d1 = _cancel(other.den, self.den)
        return FpRat(*_monic(n1 * d2, d1 * n2), _trusted=True)

    def __pow__(self, k: int) -> "FpRat":
        if k < 0:
            return FpRat.from_int(self.p, 1) / self ** (-k)
        out = FpRat.from_int(self.p, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = FpRat.from_int(self.p, other)
        return (
            isinstance(other, FpRat)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        return f"{self.num}/{self.den}"

    def __repr__(self) -> str:
        return f"FpRat(p={self.p}, {self!s})"


def _check_literal_size(text: str):
    """ParseError when a decimal literal stands for more than the digit cap.

    ``Fraction("1e-999999")`` parses quickly into a million-digit integer
    that every later operation pays for, so the exponent counts as digits.
    Lengths are compared before any ``int()``, which is slow on long strings.
    """
    mantissa, _, exponent = text.lower().partition("e")
    exponent = exponent.strip().lstrip("+-").lstrip("0")
    digits = sum(c.isdigit() for c in mantissa)
    if len(exponent) > len(str(LITERAL_DIGITS_CAP)):
        digits += LITERAL_DIGITS_CAP + 1
    elif exponent.isdigit():
        digits += int(exponent)
    if digits > LITERAL_DIGITS_CAP:
        raise ParseError(f"literal {text[:40]!r} stands for more than {LITERAL_DIGITS_CAP} digits")


# ---------------------------------------------------------------------------
# field descriptors


@dataclass(frozen=True)
class Field:
    """Descriptor fixing which of the three scalar models is in use."""

    kind: str  # "real" | "padic" | "funcfield"
    p: int | None = None

    def __post_init__(self):
        if self.kind not in ("real", "padic", "funcfield"):
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind == "real":
            if self.p is not None:
                raise ValueError("real field takes no prime")
        else:
            if not isinstance(self.p, int) or not _is_prime(self.p):
                raise ValueError(f"{self.kind} field needs a prime, got {self.p!r}")

    @classmethod
    def real(cls) -> "Field":
        return cls("real")

    @classmethod
    def padic(cls, p: int) -> "Field":
        return cls("padic", p)

    @classmethod
    def funcfield(cls, p: int) -> "Field":
        return cls("funcfield", p)

    @property
    def is_real(self) -> bool:
        return self.kind == "real"

    # -- element construction ------------------------------------------------

    def zero(self):
        if self.kind == "real":
            return 0.0
        if self.kind == "padic":
            return Fraction(0)
        return FpRat.from_int(self.p, 0)

    def one(self):
        if self.kind == "real":
            return 1.0
        if self.kind == "padic":
            return Fraction(1)
        return FpRat.from_int(self.p, 1)

    def coerce(self, x):
        """Convert ints, strings and native values into this field."""
        if self.kind == "real":
            if isinstance(x, str):
                try:
                    v = float(Fraction(x)) if "/" in x else float(x)
                except (ValueError, ZeroDivisionError) as exc:
                    raise ParseError(f"bad real literal {x!r}") from exc
                if not math.isfinite(v):
                    raise ParseError(f"non-finite real literal {x!r}")
                return v
            return float(x)
        if self.kind == "padic":
            if isinstance(x, Fraction):
                return x
            if isinstance(x, int):
                return Fraction(x)
            if isinstance(x, str):
                _check_literal_size(x)
                try:
                    return Fraction(x)
                except (ValueError, ZeroDivisionError) as exc:
                    raise ParseError(f"bad rational literal {x!r}") from exc
            raise TypeError(f"cannot coerce {type(x).__name__} into {self}")
        # funcfield
        if isinstance(x, FpRat):
            if x.p != self.p:
                raise FieldMismatchError("rational function over a different prime")
            return x
        if isinstance(x, FpPoly):
            return FpRat(x)
        if isinstance(x, int):
            return FpRat.from_int(self.p, x)
        if isinstance(x, str):
            parts = x.split("/")
            if len(parts) == 1:
                return FpRat(_parse_poly(self.p, parts[0]))
            if len(parts) == 2:
                den = _parse_poly(self.p, parts[1])
                if den.is_zero():
                    raise ParseError(f"zero denominator in {x!r}")
                return FpRat(_parse_poly(self.p, parts[0]), den)
            raise ParseError(f"bad rational-function literal {x!r}")
        raise TypeError(f"cannot coerce {type(x).__name__} into {self}")

    # -- predicates and structure -------------------------------------------

    def is_zero(self, x, scale: float = 1.0) -> bool:
        if self.kind == "real":
            return abs(x) <= REAL_TOLERANCE * max(1.0, scale)
        if self.kind == "padic":
            return x == 0
        return x.is_zero()

    def eq(self, x, y, scale: float = 1.0) -> bool:
        if self.kind == "real":
            return abs(x - y) <= REAL_TOLERANCE * max(1.0, scale)
        return x == y

    def valuation(self, x):
        """p-adic (resp. T-adic) valuation; INFINITY for zero."""
        if self.kind == "real":
            raise RealHasNoValuation("the archimedean field has no discrete valuation")
        if self.kind == "padic":
            if x == 0:
                return INFINITY
            # in lowest terms at most one of num, den is divisible by p
            if x.numerator % self.p == 0:
                return _multiplicity(x.numerator, self.p)
            if x.denominator % self.p == 0:
                return -_multiplicity(x.denominator, self.p)
            return 0
        return x.valuation

    def uniformizer(self):
        """An element of valuation exactly 1 (p, resp. T)."""
        if self.kind == "real":
            raise RealHasNoValuation("no uniformizer in the archimedean field")
        if self.kind == "padic":
            return Fraction(self.p)
        return FpRat(FpPoly.t_power(self.p, 1))

    # -- text encoding --------------------------------------------------------

    def parse(self, text: str):
        return self.coerce(text)

    def format(self, x) -> str:
        if self.kind == "real":
            return repr(float(x))
        return str(x)

    def to_json(self) -> dict:
        if self.kind == "real":
            return {"type": "real"}
        return {"type": self.kind, "p": self.p}

    @classmethod
    def from_json(cls, obj: dict) -> "Field":
        if not isinstance(obj, dict):
            raise ParseError(f"field descriptor must be an object, got {obj!r}")
        kind = obj.get("type")
        if kind == "real":
            return cls.real()
        if kind in ("padic", "funcfield"):
            return cls(kind, obj.get("p"))
        raise ParseError(f"unknown field descriptor {obj!r}")

    def __str__(self) -> str:
        if self.kind == "real":
            return "R"
        if self.kind == "padic":
            return f"Q(p={self.p})"
        return f"F{self.p}(T)"
