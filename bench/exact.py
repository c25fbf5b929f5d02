"""The benchmark's own scalar and matrix arithmetic.

Every correctness check in the benchmark runs on this module, never on the
routines of ``localrep`` it is checking.  Three scalar models mirror the
program's fields:

* ``Q``    -- ``fractions.Fraction`` (the program's 5-adic model is exact Q);
* ``Fp(T)``-- :class:`RatFn`, a reduced ratio of polynomials over F_p;
* ``R``    -- ``Fraction`` while inputs are built (so they are exact), and
               ``float`` when reports are read, compared with a relative
               tolerance.

Matrices are lists of rows.  The code favours plainness over speed: it runs
outside every timed span.
"""

from __future__ import annotations

from fractions import Fraction

# ---------------------------------------------------------------------------
# polynomials over F_p: tuples of coefficients, ascending, no trailing zeros


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def padd(p, a, b):
    if len(a) < len(b):
        a, b = b, a
    return _trim([(x + (b[i] if i < len(b) else 0)) % p for i, x in enumerate(a)])


def pneg(p, a):
    return tuple((-x) % p for x in a)


def pmul(p, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim([c % p for c in out])


def pdivmod(p, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv = pow(b[-1], -1, p)
    rem = list(a)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = (rem[k + len(b) - 1] * inv) % p
        quo[k] = c
        if c:
            for j, y in enumerate(b):
                rem[k + j] = (rem[k + j] - c * y) % p
    return _trim(quo), _trim(rem)


def pgcd(p, a, b):
    while b:
        a, b = b, pdivmod(p, a, b)[1]
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return tuple((x * inv) % p for x in a)


class RatFn:
    """Element of F_p(T): reduced fraction with a monic denominator."""

    __slots__ = ("p", "num", "den")

    def __init__(self, p, num, den=(1,)):
        num, den = _trim(c % p for c in num), _trim(c % p for c in den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        g = pgcd(p, num, den)
        if g != (1,) and num:
            num, den = pdivmod(p, num, g)[0], pdivmod(p, den, g)[0]
        if not num:
            den = (1,)
        inv = pow(den[-1], -1, p)
        self.p = p
        self.num = tuple((c * inv) % p for c in num)
        self.den = tuple((c * inv) % p for c in den)

    def _lift(self, other):
        return other if isinstance(other, RatFn) else RatFn(self.p, (other,))

    def __add__(self, other):
        o = self._lift(other)
        p = self.p
        return RatFn(p, padd(p, pmul(p, self.num, o.den), pmul(p, o.num, self.den)),
                     pmul(p, self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        return RatFn(self.p, pneg(self.p, self.num), self.den)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        o = self._lift(other)
        p = self.p
        return RatFn(p, pmul(p, self.num, o.num), pmul(p, self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if not o.num:
            raise ZeroDivisionError("division by zero")
        p = self.p
        return RatFn(p, pmul(p, self.num, o.den), pmul(p, self.den, o.num))

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __eq__(self, other):
        o = self._lift(other)
        return self.p == o.p and self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.p, self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def __repr__(self):
        return f"RatFn({format_poly(self.num)}/{format_poly(self.den)} mod {self.p})"


def format_poly(cs) -> str:
    """Polynomial text in the program's input grammar, e.g. ``2*T^2+T+1``."""
    terms = []
    for k in range(len(cs) - 1, -1, -1):
        c = cs[k]
        if not c:
            continue
        mono = "" if k == 0 else ("T" if k == 1 else f"T^{k}")
        if not mono:
            terms.append(str(c))
        else:
            terms.append(mono if c == 1 else f"{c}*{mono}")
    return "+".join(terms) or "0"


def parse_poly(p, text):
    """Parse ``[+-] c*T^k`` terms, the grammar shared by inputs and reports."""
    text = text.replace(" ", "")
    if not text:
        raise ValueError("empty polynomial")
    coeffs = {}
    i = 0
    while i < len(text):
        sign = 1
        if text[i] in "+-":
            sign = -1 if text[i] == "-" else 1
            i += 1
        j = i
        while j < len(text) and text[j] not in "+-":
            j += 1
        term, i = text[i:j], j
        if "T" in term:
            head, _, power = term.partition("T")
            head = head.rstrip("*")
            c = int(head) if head else 1
            k = int(power[1:]) if power.startswith("^") else 1
            if power and not power.startswith("^"):
                raise ValueError(f"bad term {term!r}")
        else:
            c, k = int(term), 0
        coeffs[k] = coeffs.get(k, 0) + sign * c
    top = max(coeffs)
    return _trim([coeffs.get(k, 0) % p for k in range(top + 1)])


# ---------------------------------------------------------------------------
# the three fields


class Field:
    """Scalar model: ``kind`` is ``real``, ``padic`` or ``funcfield``."""

    def __init__(self, kind, p=None):
        self.kind = kind
        self.p = p

    @classmethod
    def from_json(cls, obj):
        return cls(obj["type"], obj.get("p"))

    def to_json(self):
        return {"type": "real"} if self.kind == "real" else {"type": self.kind, "p": self.p}

    @property
    def exact(self):
        return self.kind != "real"

    def of(self, x):
        """Embed an int (or, over F_p(T), a coefficient tuple).

        Real constructions are carried out exactly in Q and only printed as
        floats, so inputs hold exactly the numbers the construction chose.
        """
        if self.kind in ("real", "padic"):
            return Fraction(x)
        if isinstance(x, tuple):
            return RatFn(self.p, x)
        return RatFn(self.p, (x,))

    def zero(self):
        return self.of(0)

    def one(self):
        return self.of(1)

    def parse(self, text: str):
        if self.kind == "real":
            return float(text)
        if self.kind == "padic":
            return Fraction(text)
        num, _, den = text.partition("/")
        return RatFn(self.p, parse_poly(self.p, num), parse_poly(self.p, den) if den else (1,))

    def format(self, x) -> str:
        if self.kind == "real":
            return repr(float(x))
        if self.kind == "padic":
            return str(x)
        if x.den == (1,):
            return format_poly(x.num)
        return f"{format_poly(x.num)}/{format_poly(x.den)}"

    def is_zero(self, x, scale=1.0):
        if self.kind == "real":
            return abs(x) <= 1e-9 * max(1.0, scale)
        return not x

    def close(self, x, y, rel=1e-6):
        if self.kind == "real":
            return abs(x - y) <= rel * max(1.0, abs(x), abs(y))
        return x == y

    def valuation(self, x):
        """p-adic valuation of a rational (T-adic over F_p(T)); None for 0."""
        if not x:
            return None
        if self.kind == "padic":
            v, num, den = 0, x.numerator, x.denominator
            while num % self.p == 0:
                num //= self.p
                v += 1
            while den % self.p == 0:
                den //= self.p
                v -= 1
            return v
        order = lambda cs: next(i for i, c in enumerate(cs) if c)  # noqa: E731
        return order(x.num) - order(x.den)


# ---------------------------------------------------------------------------
# matrices as lists of rows


def identity(f: Field, n):
    return [[f.one() if i == j else f.zero() for j in range(n)] for i in range(n)]


def matmul(a, b):
    cols = list(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in cols:
            acc = row[0] * col[0]
            for x, y in zip(row[1:], col[1:]):
                acc = acc + x * y
            out_row.append(acc)
        out.append(out_row)
    return out


def trace(m):
    acc = m[0][0]
    for i in range(1, len(m)):
        acc = acc + m[i][i]
    return acc


def scale_of(rows):
    return max((abs(x) for r in rows for x in r), default=0.0)


def echelon(f: Field, rows):
    """Row echelon form by Gaussian elimination; returns (rows, pivot columns)."""
    work = [list(r) for r in rows]
    scale = scale_of(work) if not f.exact else 1.0
    pivots = []
    r = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        if r == len(work):
            break
        if f.exact:
            piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        else:
            piv = max(range(r, len(work)), key=lambda i: abs(work[i][c]))
            if f.is_zero(work[piv][c], scale):
                piv = None
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = f.one() / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and not f.is_zero(work[i][c], scale):
                factor = work[i][c]
                work[i] = [x - factor * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return work, pivots


def rank(f: Field, rows):
    return len(echelon(f, rows)[1]) if rows else 0


def inverse(f: Field, m):
    n = len(m)
    aug = [list(row) + ident for row, ident in zip(m, identity(f, n))]
    work, pivots = echelon(f, aug)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in work[:n]]


def solvable(f: Field, rows, rhs) -> bool:
    """Whether the linear system rows * x = rhs has a solution."""
    return rank(f, rows) == rank(f, [list(r) + [b] for r, b in zip(rows, rhs)])


def conjugate(f: Field, m, h, h_inv=None):
    """h^-1 m h."""
    return matmul(matmul(h_inv if h_inv is not None else inverse(f, h), m), h)


def charpoly(f: Field, m):
    """Coefficients [1, c1, ..., cn] of det(xI - m), by Berkowitz (no division)."""
    n = len(m)
    if n == 1:
        return [f.one(), -m[0][0]]
    row, col = m[0][1:], [m[i][0] for i in range(1, n)]
    sub = [r[1:] for r in m[1:]]
    toeplitz = [f.one(), -m[0][0]]
    v = col
    for _ in range(n - 1):
        acc = f.zero()
        for x, y in zip(row, v):
            acc = acc + x * y
        toeplitz.append(-acc)
        v = [sum((a * b for a, b in zip(r, v)), f.zero()) for r in sub]
    q = charpoly(f, sub)
    return [
        sum((toeplitz[i - j] * q[j] for j in range(n) if 0 <= i - j <= n), f.zero())
        for i in range(n + 1)
    ]


def class_invariant(f: Field, gens):
    """Char polys of every generator and of their product: a conjugation invariant."""
    prod = gens[0]
    for m in gens[1:]:
        prod = matmul(prod, m)
    return tuple(tuple(charpoly(f, m)) for m in list(gens) + [prod])


def word_span_rank(f: Field, mats) -> int:
    """Dimension of the algebra spanned by all words in ``mats`` (Burnside)."""
    n = len(mats[0])
    flat = lambda m: [x for row in m for x in row]  # noqa: E731
    basis = [flat(identity(f, n))]
    frontier = [identity(f, n)]
    while frontier:
        nxt = []
        for w in frontier:
            for g in mats:
                prod = matmul(g, w)
                if rank(f, basis + [flat(prod)]) > len(basis):
                    basis.append(flat(prod))
                    nxt.append(prod)
        frontier = nxt
    return len(basis)


def splitting_system(f: Field, tops, bots, cocycles):
    """Rows and right-hand side of A_s X - X D_s = C_s for every generator s."""
    k, q = len(tops[0]), len(bots[0])
    rows, rhs = [], []
    for a, d, c in zip(tops, bots, cocycles):
        for i in range(k):
            for j in range(q):
                row = [f.zero()] * (k * q)
                for l in range(k):
                    row[l * q + j] = row[l * q + j] + a[i][l]
                for m in range(q):
                    row[i * q + m] = row[i * q + m] - d[m][j]
                rows.append(row)
                rhs.append(c[i][j])
    return rows, rhs


def block_upper(f: Field, m, sizes, scale=1.0) -> bool:
    """Whether m is block upper triangular for the given block sizes."""
    lo = 0
    for s in sizes:
        hi = lo + s
        for i in range(hi, len(m)):
            for j in range(lo, hi):
                if not f.is_zero(m[i][j], scale):
                    return False
        lo = hi
    return True
