"""Module-theoretic core for tuples of invertible matrices.

A representation of the free group on a finite symbol set S is stored as an
ordered map from symbols to invertible matrices over one field.  This module
decides irreducibility (no proper nonzero invariant subspace), complete
reducibility (the module is a direct sum of irreducibles), computes a full
composition series and the associated semisimplification, and tests
simultaneous conjugacy of semisimple tuples.

All three module-structure decisions read one thing: the tuple's split
(:func:`split_at`) at the first invariant subspace W the search certifies,
built once per tuple (:func:`_split`).  The split conjugates by one
adapted basis b, kept with its inverse, so each generator becomes
[[A, B], [0, D]].  The composition series refines the A
tuple (rho|_W) and the D tuple (rho_{V/W}), and carries h^-1 down the
same tree.  Complete reducibility is the existence of the block
conjugator, built down the same tree from solutions of A X - X D = B, so
each battery runs once.  Spins, dual spins and the word algebra are one
breadth-first closure under the generators alone: in finite dimension
m(U) in U gives m^-1(U) = U, and m^-1 lies in K[m] (Cayley-Hamilton).
The battery's commutant layer is one pass over one ordered stream.  The
seeded probes and intertwiner draws all use the one seed ``PROBE_SEED``,
so every answer is a function of the tuple alone.

Every negative verdict is certified: routines that report a reducible module
return an invariant flag whose invariance is re-verified exactly before it is
handed out.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    GeneratorMismatchError,
    NotInvariantError,
    SingularMatrixError,
)
from .fields import Field, FpPoly, FpRat
from .linalg import Echelon, Matrix, rref, solve_linear
from .parabolic import BlockStructure

PROBE_SEED = 0x5EED
INTERTWINER_RANDOM_TRIALS = 64
FINGERPRINT_TOLERANCE = 1e-6


class Representation:
    """A finite tuple of invertible n x n matrices over one field."""

    __slots__ = ("field", "n", "gens", "_derived")

    def __init__(self, field: Field, gens: dict):
        if not gens:
            raise ValueError("a representation needs at least one generator")
        mats = {}
        n = None
        for sym, m in gens.items():
            if not isinstance(m, Matrix):
                raise TypeError(f"generator {sym!r} is not a Matrix")
            if m.field != field:
                raise FieldMismatchError(f"generator {sym!r} lives in {m.field}")
            if n is None:
                n = m.n
            elif m.n != n:
                raise DimensionMismatchError("generators of mixed sizes")
            if m.is_singular():
                raise SingularMatrixError(f"generator {sym!r} is singular")
            mats[sym] = m
        self.field = field
        self.n = n
        self.gens = mats
        # "inverses", "algebra", "split", "series" -> built value
        self._derived = {}

    @classmethod
    def from_entries(cls, field: Field, gens: dict) -> "Representation":
        return cls(field, {s: Matrix.from_rows(field, rows) for s, rows in gens.items()})

    @property
    def symbols(self) -> tuple:
        return tuple(self.gens)

    def inverses(self) -> dict:
        return self._derive("inverses", lambda: {s: m.inv() for s, m in self.gens.items()})

    def _derive(self, key, build):
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

    def word_algebra(self) -> list:
        """:func:`word_algebra_basis` of this tuple, built once."""
        return self._derive("algebra", lambda: word_algebra_basis(self))

    def conjugate_by(self, h: Matrix) -> "Representation":
        hinv = h.inv()
        return Representation(self.field, {s: hinv * m * h for s, m in self.gens.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Representation):
            return NotImplemented
        return (
            self.field == other.field
            and self.n == other.n
            and self.symbols == other.symbols
            and all(self.gens[s] == other.gens[s] for s in self.gens)
        )

    def __repr__(self) -> str:
        return f"Representation({self.field}, n={self.n}, S={list(self.symbols)})"


@dataclass(frozen=True)
class InvariantFlag:
    """Basis change exhibiting a common block upper triangular shape.

    The columns of ``basis_change`` list an adapted basis: the first
    ``block_sizes[0]`` columns span an invariant subspace, the first
    ``block_sizes[0] + block_sizes[1]`` the next step, and so on.
    """

    basis_change: Matrix
    block_sizes: tuple

    @property
    def blocks(self) -> BlockStructure:
        """The flag's standard parabolic; for a composition series, rho_ss is the Levi part."""
        return BlockStructure(self.basis_change.n, self.block_sizes)

    def verify(self, rho: Representation) -> bool:
        h, blocks = self.basis_change, self.blocks
        hinv = h.inv()
        return all(blocks.is_block_triangular(hinv * m * h) for m in rho.gens.values())


@dataclass(frozen=True)
class Semisimplification:
    """A composition series together with its block-diagonal reduction."""

    flag: InvariantFlag
    rho_ss: Representation


@dataclass(frozen=True)
class Split:
    """A tuple conjugated by an adapted basis b of an invariant subspace W.

    The first ``sub.n`` columns of ``basis`` span W, so b^-1 g b is
    [[A, B], [0, D]] for every generator g, with b^-1 = ``inverse``:
    ``sub`` is the A tuple (rho|_W), ``quot`` the D tuple (rho_{V/W}) and
    ``off`` maps each symbol to the rows of its B.
    """

    basis: Matrix
    inverse: Matrix
    sub: Representation
    off: dict
    quot: Representation

    @cached_property
    def complement(self):
        """A solution X of A X - X D = B for every generator, or None.

        X exists exactly when W has an invariant complement: the span of
        the columns of b [[-X], [I]], a copy of V/W.  Solved once per split.
        """
        field, k, q = self.sub.field, self.sub.n, self.quot.n
        symbols = self.sub.symbols
        pairs = [(self.sub.gens[s].data, self.quot.gens[s].data) for s in symbols]
        rhs = [x for s in symbols for row in self.off[s] for x in row]
        return solve_linear(field, _sylvester_rows(field, pairs, k, q), rhs)


def _canonical_rows(field: Field, rows) -> tuple:
    """Deterministic RREF basis of the row span, zero rows dropped."""
    res = rref(field, rows)
    return res.reduced[:res.rank]


def _entries(x) -> tuple:
    """A vector as it is; a matrix read row by row."""
    return tuple(v for row in x.data for v in row) if isinstance(x, Matrix) else x


def _closure(field: Field, dim: int, seed, letters, act):
    """Breadth-first closure of the span of ``seed`` under ``act(letter, x)``.

    Elements are vectors of length ``dim`` or matrices with ``dim`` entries.
    Each image new to the span is kept and acted on in turn, until the span
    has dimension ``dim`` or nothing is left.  Returns the :class:`Echelon`
    of the span and the elements that entered it, in order, ``seed`` first.
    """
    span = Echelon(field)
    span.insert(_entries(seed))
    found = [seed]
    for x in found:  # grows as it is walked
        for g in letters:
            if span.rank == dim:
                return span, found
            y = act(g, x)
            if span.insert(_entries(y)):
                found.append(y)
    return span, found


def spin(rho: Representation, vec) -> tuple:
    """Canonical basis of the smallest invariant subspace containing ``vec``.

    :func:`_closure` under every generator; it is closed under the inverses
    too (module docstring).
    """
    vec = tuple(rho.field.coerce(x) for x in vec)
    if all(rho.field.is_zero(x) for x in vec):
        raise ValueError("spin needs a nonzero vector")
    span, _ = _closure(rho.field, rho.n, vec, list(rho.gens.values()), Matrix.apply)
    return span.reduced()


def _is_invariant(rho: Representation, rows) -> bool:
    span = Echelon(rho.field)
    for r in rows:
        span.insert(r)
    for m in rho.gens.values():
        for r in rows:
            if not span.contains(m.apply(r)):
                return False
    return True


def _adapted_basis_matrix(field: Field, rows, n: int) -> Matrix:
    """Invertible matrix whose first columns are the given basis rows.

    The completion uses the standard basis vectors at the non-pivot
    coordinates of the RREF basis, which keeps everything exact and
    deterministic.
    """
    pivots = set()
    for row in rows:
        for i, x in enumerate(row):
            if not field.is_zero(x):
                pivots.add(i)
                break
    free = [i for i in range(n) if i not in pivots]
    cols = [tuple(r) for r in rows]
    one, zero = field.one(), field.zero()
    for i in free:
        cols.append(tuple(one if j == i else zero for j in range(n)))
    return Matrix(field, tuple(
        tuple(cols[j][i] for j in range(len(cols))) for i in range(n)
    ))


def split_at(rho: Representation, rows) -> Split:
    """Split ``rho`` at the invariant subspace spanned by the canonical ``rows``.

    One adapted basis b (:func:`_adapted_basis_matrix`), one inverse and one
    conjugation per generator.  Raises :class:`NotInvariantError` when a
    lower-left entry of some b^-1 g b is not zero.
    """
    field, k = rho.field, len(rows)
    blocks = BlockStructure(rho.n, (k, rho.n - k))
    basis = _adapted_basis_matrix(field, rows, rho.n)
    binv = basis.inv()
    sub, off, quot = {}, {}, {}
    for s, m in rho.gens.items():
        t = binv * m * basis
        if not blocks.is_block_triangular(t):
            raise NotInvariantError("subspace is not invariant")
        sub[s] = Matrix(field, (row[:k] for row in t.data[:k]))
        off[s] = tuple(row[k:] for row in t.data[:k])
        quot[s] = Matrix(field, (row[k:] for row in t.data[k:]))
    return Split(basis, binv, Representation(field, sub), off, Representation(field, quot))


# ---------------------------------------------------------------------------
# invariant-subspace search


def _probe_vectors(rho: Representation):
    n = rho.n
    one, zero = rho.field.one(), rho.field.zero()
    probes = [tuple(one if j == i else zero for j in range(n)) for i in range(n)]
    rng = random.Random(PROBE_SEED)
    for _ in range(2 * n):
        raw = [rng.randint(-3, 3) for _ in range(n)]
        vec = tuple(rho.field.coerce(c) for c in raw)
        # entries can collapse to zero after reduction mod p
        if any(not rho.field.is_zero(x) for x in vec):
            probes.append(vec)
    return probes


def _kernel_rows(field: Field, rows) -> tuple:
    """Canonical row basis of the right kernel of ``rows``.

    For functionals, the space they all annihilate.
    """
    return _canonical_rows(field, rref(field, rows).kernel)


def word_algebra_basis(rho: Representation):
    """Echelon basis of the span of all word images inside n x n matrices.

    :func:`_closure` of the identity under left multiplication by the
    generators: I, a, b, a a, b a, ... as they enter the span, which is the
    algebra they generate and holds their inverses (module docstring).
    """
    _, basis = _closure(rho.field, rho.n * rho.n, Matrix.identity(rho.field, rho.n),
                        list(rho.gens.values()), operator.mul)
    return basis


def _is_scalar(m: Matrix) -> bool:
    return m == Matrix.identity(m.field, m.n).scale(m.data[0][0])


def _poly_value(coeffs, x):
    """Horner's rule; ``coeffs`` run from the leading coefficient down."""
    v = 0
    for c in coeffs:
        v = v * x + c
    return v


def _root_floors(coeffs) -> set:
    """Integers m such that every real root lies in [m, m + 1] for one of them.

    ``coeffs`` are integers from the leading one down.  Between the brackets
    of the derivative's roots (found the same way, recursively) the
    polynomial is strictly monotone, so each such stretch holds at most one
    root, found by bisection over the integers; the brackets themselves are
    kept whole.  Cauchy's bound 1 + max |c_i / c_0| closes the outer
    stretches.  The cost is polynomial in the digit count.
    """
    d = len(coeffs) - 1
    if d < 1:
        return set()
    out = _root_floors([c * (d - i) for i, c in enumerate(coeffs[:-1])])
    bound = 2 + max(abs(c) for c in coeffs[1:]) // abs(coeffs[0])
    stretches, lo = [], -bound
    for m in sorted(out) + [bound]:
        if lo <= m:
            stretches.append((lo, m))
        lo = max(lo, m + 1)
    for a, b in stretches:
        va, vb = _poly_value(coeffs, a), _poly_value(coeffs, b)
        if va == 0 or vb == 0:
            out.add(a if va == 0 else b)
            continue
        if (va > 0) == (vb > 0):
            continue
        while b - a > 1:
            mid = (a + b) // 2
            vm = _poly_value(coeffs, mid)
            if vm == 0:
                a = mid
                break
            if (vm > 0) == (va > 0):
                a = mid
            else:
                b = mid
        out.add(a)
    return out


def _rational_eigenvalues(m: Matrix) -> list:
    """The nonzero eigenvalues of a rational matrix that lie in Q (exact).

    Sorted by (|numerator|, denominator), + before -.  The characteristic
    polynomial, cleared to integers c_0 x^d + ... + c_d, becomes monic under
    y = c_0 x, and its rational roots are y / c_0 for the integer roots y of
    the result, which lie at the ends of the brackets of :func:`_root_floors`.
    """
    from math import lcm

    n = m.n
    ident = Matrix.identity(m.field, n)
    # Faddeev-LeVerrier characteristic polynomial (valid in characteristic 0)
    mk = ident
    cs = []
    for k in range(1, n + 1):
        mk = m * mk
        c = -mk.trace() / k
        cs.append(c)
        mk = mk + ident.scale(c)
    poly = [Fraction(1)] + cs  # x^n + c1 x^(n-1) + ... + cn

    denom = lcm(*(co.denominator for co in poly))
    ints = [int(co * denom) for co in poly]
    while ints[-1] == 0:
        ints.pop()
    lead = ints[0]
    monic = [1] + [c * lead ** (i - 1) for i, c in enumerate(ints) if i]
    roots = {Fraction(y, lead) for lo in _root_floors(monic) for y in (lo, lo + 1)
             if _poly_value(monic, y) == 0}
    return sorted(roots, key=lambda r: (abs(r.numerator), r.denominator, r < 0))


def invariant_subspace_candidates(rho: Representation):
    """Yield verified proper nonzero invariant subspaces, cheapest first.

    Layers: spins of standard and seeded probe vectors, the same for the
    transposed generators (annihilators), J(A)V, and kernels of the
    singular elements of :func:`_commutant_stream`, in one pass.  J(A)V is
    the span of the columns of the kernel K of the trace form
    (a, b) -> tr(ab) on the word algebra A; K is an ideal, so K V is
    invariant.  In characteristic 0, K is the
    Jacobson radical J(A) (Dickson), which is nonzero exactly when the tuple
    is not completely reducible; then J(A)V is proper and nonzero, so in
    exact arithmetic this layer certifies every non-cr tuple over Q.  Over
    F_p(T), K can be larger than J(A) and K V can be all of V, so there it
    certifies nothing.  Every candidate is re-verified before being
    yielded, so unsound intermediate heuristics cannot leak wrong answers.
    Nothing is remembered between walks and nothing is deduplicated: a walk
    can yield one subspace more than once.  The decisions read only the
    split at the first candidate (:func:`_split`).
    """
    field = rho.field
    n = rho.n

    def check(rows):
        if not rows or len(rows) >= n or not _is_invariant(rho, rows):
            return None
        return rows

    probes = _probe_vectors(rho)
    for v in probes:
        got = check(spin(rho, v))
        if got:
            yield got
    duals = [m.transpose() for m in rho.gens.values()]
    for v in probes:
        urows = _closure(field, n, v, duals, Matrix.apply)[0].reduced()
        if len(urows) < n:
            got = check(_kernel_rows(field, urows))
            if got:
                yield got

    # structural layer: J(A)V, spanned by the columns of the trace-form kernel
    algebra = rho.word_algebra()
    if len(algebra) < n * n:
        gram = [[a.trace_of_product(b) for b in algebra] for a in algebra]
        cols = []
        for coeffs in rref(field, gram).kernel:
            jmat = Matrix.zeros(field, n)
            for c, a in zip(coeffs, algebra):
                jmat = jmat + a.scale(c)
            cols.extend(jmat.transpose().data)
        got = cols and check(_canonical_rows(field, cols))
        if got:
            yield got

        nonscalar = [c for c in intertwiner_space(rho, rho) if not _is_scalar(c)]
        for c in _commutant_stream(field, n, nonscalar):
            if c.is_singular():
                got = check(_kernel_rows(field, c.data))
                if got:
                    yield got


def _commutant_stream(field: Field, n: int, nonscalar):
    """The commutant elements whose kernels the battery tries, in order.

    The non-scalar basis; over Q, each element shifted by each nonzero
    rational eigenvalue; then the non-scalar combinations of the first four
    with coefficients in {-1, 0, 1}, two or more of them nonzero.  A zero
    shift or a single +-c has the kernel of c, already tried.
    """
    yield from nonscalar
    if field.kind == "padic":
        for c in nonscalar:
            for lam in _rational_eigenvalues(c):
                yield c - Matrix.identity(field, n).scale(lam)
    grid = nonscalar[:4]
    for coeffs in itertools.product((-1, 0, 1), repeat=len(grid)):
        if sum(1 for co in coeffs if co) < 2:
            continue
        cand = Matrix.zeros(field, n)
        for co, c in zip(coeffs, grid):
            cand = cand + c.scale(co)
        if not _is_scalar(cand):
            yield cand


def _split(rho: Representation):
    """The tuple's :class:`Split` at the first candidate of
    :func:`invariant_subspace_candidates`, or None when there is none.

    Built once per tuple, and the only thing the decisions below read.  A
    battery that raises caches nothing, so a failure is never taken for an
    empty battery, which would make a reducible tuple read as irreducible.
    """
    if rho.n == 1:
        return None

    def build():
        rows = next(invariant_subspace_candidates(rho), None)
        return None if rows is None else split_at(rho, rows)

    return rho._derive("split", build)


def is_nonparabolic(rho: Representation):
    """Decide irreducibility of the linear action.

    Returns ``(True, None)`` when no proper nonzero invariant subspace
    exists, otherwise ``(False, flag)`` with a verified single-step invariant
    flag as certificate: the adapted basis of the tuple's split at the
    first certified subspace (:func:`_split`; :func:`split_at` checks
    invariance).  "Irreducible" means that the whole battery came up empty.
    """
    split = _split(rho)
    if split is None:
        return True, None
    return False, InvariantFlag(split.basis, (split.sub.n, split.quot.n))


def _sylvester_rows(field: Field, pairs, p: int, q: int) -> list:
    """Rows of the linear map X -> L X - X R, one block per (L, R) in ``pairs``.

    X is p x q and flattened row by row; the rows run over the pairs, then
    over the entries (i, j) of L X - X R in row-major order.
    """
    rows = []
    for left, right in pairs:
        for i in range(p):
            for j in range(q):
                row = [field.zero()] * (p * q)
                for l in range(p):
                    row[l * q + j] = row[l * q + j] + left[i][l]
                for m in range(q):
                    row[i * q + m] = row[i * q + m] - right[m][j]
                rows.append(row)
    return rows


def _block_conjugator(rho: Representation):
    """c with c^-1 g c = blockdiag(leaves of :func:`_series`) for every
    generator g, or None when rho is not completely reducible.

    Built down the split tree: at a split with adapted basis b, b^-1 g b is
    [[A, B], [0, D]] and the complement X (:attr:`Split.complement`) solves
    A X - X D = B, so c = b [[I, -X], [0, I]] blockdiag(c_W, c_{V/W}); an
    irreducible tuple has c = I.  A complement is isomorphic to V/W, so rho
    is cr exactly when every split of the tree has one.
    """
    field, split = rho.field, _split(rho)
    if split is None:
        return Matrix.identity(field, rho.n)
    x = split.complement
    low = None if x is None else _block_conjugator(split.sub)
    high = None if low is None else _block_conjugator(split.quot)
    if high is None:
        return None
    k, q = split.sub.n, split.quot.n
    rows = [list(r) for r in Matrix.identity(field, rho.n).data]
    for i in range(k):
        rows[i][k:] = [-v for v in x[i * q:(i + 1) * q]]
    return split.basis * Matrix(field, rows) * Matrix.block_diagonal(field, (low, high))


def is_cr(rho: Representation) -> bool:
    """Complete reducibility: the module splits as a direct sum of irreducibles.

    Exactly when the block conjugator of :func:`_block_conjugator` exists:
    some conjugate of rho is block diagonal with the leaves of its split
    tree on the diagonal.  Characteristic-free.
    """
    return _block_conjugator(rho) is not None


def _series(rho: Representation):
    """``(h, h^-1, leaves)``: a composition series of rho and its factors, built once.

    Splits V at the first certified invariant subspace W and refines both
    ends: by Jordan-Hoelder, a composition series of W followed by the lift
    of one of V/W is one of V.  So h = b blockdiag(h_W, h_{V/W}) for the
    split's adapted basis b, and h^-1 = blockdiag(h_W^-1, h_{V/W}^-1) b^-1
    from the inverses the splits already hold.  The leaves, the irreducible
    tuples at the ends of the split tree in the order the splits find them,
    are exactly the diagonal blocks of h^-1 g h.
    """
    def build():
        field, split = rho.field, _split(rho)
        if split is None:
            ident = Matrix.identity(field, rho.n)
            return ident, ident, (rho,)
        low, low_inv, low_leaves = _series(split.sub)
        high, high_inv, high_leaves = _series(split.quot)
        return (split.basis * Matrix.block_diagonal(field, (low, high)),
                Matrix.block_diagonal(field, (low_inv, high_inv)) * split.inverse,
                low_leaves + high_leaves)

    return rho._derive("series", build)


def composition_series(rho: Representation) -> InvariantFlag:
    """A full composition series as an invariant flag, verified once.

    The basis change and block sizes of :func:`_series`.  The one-block
    flag of an irreducible tuple is the identity and needs no check.
    """
    h, _, leaves = _series(rho)
    flag = InvariantFlag(h, tuple(leaf.n for leaf in leaves))
    if len(leaves) > 1 and not flag.verify(rho):
        raise NotInvariantError("composition series failed verification")
    return flag


def semisimplify(rho: Representation) -> Semisimplification:
    """The Levi part of rho in the parabolic of its composition series.

    Each generator g becomes h blockdiag(leaf generators) h^-1, with h, h^-1
    and the leaves from :func:`_series`: the leaves are the diagonal blocks
    of h^-1 g h, so no h^-1 g h is formed and nothing is inverted.  Torus
    contraction toward that Levi part puts the result, a completely
    reducible representative, in the closure of the conjugation orbit.
    """
    flag = composition_series(rho)
    h, hinv, leaves = _series(rho)
    gens = {s: h * Matrix.block_diagonal(rho.field, [leaf.gens[s] for leaf in leaves]) * hinv
            for s in rho.symbols}
    return Semisimplification(flag=flag, rho_ss=Representation(rho.field, gens))


# ---------------------------------------------------------------------------
# words, traces, conjugacy


def iter_reduced_words(symbols, max_len: int):
    """Freely reduced words in shortlex order over s, s^-1 for s in symbols."""
    alphabet = []
    for s in symbols:
        alphabet.append((s, 1))
        alphabet.append((s, -1))
    frontier = [((letter,), letter) for letter in alphabet]
    for word, _ in frontier:
        yield word
    for _ in range(max_len - 1):
        nxt = []
        for word, last in frontier:
            for letter in alphabet:
                if letter[0] == last[0] and letter[1] == -last[1]:
                    continue
                nw = word + (letter,)
                nxt.append((nw, letter))
                yield nw
        frontier = nxt


def _cleared(m: Matrix):
    """``(P, d)`` with ``m = P / d`` and P free of denominators, over F_p(T).

    ``d`` is the lcm of the entries' denominators, as a field element.  The
    other fields have no such split: there ``d`` is None and P is ``m``.
    """
    field = m.field
    if field.kind != "funcfield":
        return m, None
    lcm = FpPoly.const(field.p, 1)
    for row in m.data:
        for x in row:
            lcm = lcm * x.den.divmod(FpPoly.gcd(lcm, x.den))[0]
    d = FpRat(lcm)
    return m.scale(d), d


def trace_fingerprint(rho: Representation, max_len: int) -> tuple:
    """Traces of all freely reduced words up to ``max_len``, shortlex order.

    Over F_p(T) every letter is taken as P / d with P polynomial
    (:func:`_cleared`), so the word products stay on the gcd-free
    polynomial path of :class:`FpRat` and each trace is divided once by the
    product of its letters' d.  The cost then hardly depends on whether the
    generators' inverses happen to be polynomial.
    """
    letters = {}
    for s in rho.symbols:
        letters[(s, 1)] = _cleared(rho.gens[s])
        letters[(s, -1)] = _cleared(rho.inverses()[s])
    products = {}  # word -> (P, d) of its product
    traces = []
    for word in iter_reduced_words(rho.symbols, max_len):
        m, d = letters[word[-1]]
        if len(word) > 1:
            pm, pd = products[word[:-1]]
            m, d = pm * m, None if pd is None else pd * d
        products[word] = m, d
        traces.append(_trace(m, d))
    return tuple(traces)


def _trace(m: Matrix, d):
    return m.trace() if d is None else m.trace() / d


def fingerprints_match(field: Field, fp1, fp2) -> bool:
    if len(fp1) != len(fp2):
        return False
    if field.is_real:
        return all(abs(a - b) <= FINGERPRINT_TOLERANCE * max(1.0, abs(a), abs(b))
                   for a, b in zip(fp1, fp2))
    return all(a == b for a, b in zip(fp1, fp2))


def intertwiner_space(r1: Representation, r2: Representation):
    """Basis of matrices M with M r1(s) = r2(s) M for every generator."""
    field = r1.field
    n = r1.n
    pairs = [(r2.gens[s].data, r1.gens[s].data) for s in r1.symbols]
    res = rref(field, _sylvester_rows(field, pairs, n, n))
    return [
        Matrix(field, tuple(tuple(vec[i * n + j] for j in range(n)) for i in range(n)))
        for vec in res.kernel
    ]


def _intertwiner_draws(field: Field, n: int, basis):
    """The basis, then seeded combinations of it, drawn one at a time.

    Coefficients come from a fixed set S of at least 2n elements: the
    integers 0..2n-1 over Q and R, the polynomials in T of degree < k with
    p^k >= 2n over F_p(T).  When the span holds an invertible element, det
    is a nonzero polynomial of degree at most n in the coefficients, so by
    Schwartz-Zippel each combination is invertible with probability at
    least 1 - n/|S| >= 1/2.  A one-element basis has only its own multiples.
    """
    yield from basis
    if len(basis) < 2:
        return
    k = 1
    while field.kind == "funcfield" and field.p ** k < 2 * n:
        k += 1
    rng = random.Random(PROBE_SEED)
    for _ in range(INTERTWINER_RANDOM_TRIALS):
        m = Matrix.zeros(field, n)
        for b in basis:
            if field.kind == "funcfield":
                c = FpPoly(field.p, [rng.randrange(field.p) for _ in range(k)])
            else:
                c = rng.randrange(2 * n)
            m = m + b.scale(c)
        yield m


def find_invertible_intertwiner(r1: Representation, r2: Representation):
    """``(M, dim Hom)``: an invertible intertwiner M, or None if none was drawn.

    Tests the draws of :func:`_intertwiner_draws` as they come.  When r1 and
    r2 are isomorphic the search fails with probability at most
    2^-INTERTWINER_RANDOM_TRIALS.
    """
    field = r1.field
    basis = intertwiner_space(r1, r2)
    for m in _intertwiner_draws(field, r1.n, basis):
        if not m.is_singular():
            return m, len(basis)
    return None, len(basis)


def same_class(r1: Representation, r2: Representation):
    """``(verdict, evidence)``: are the semisimple tuples r1 and r2 conjugate?

    Semisimple M = (+) S_i^a_i and N = (+) S_i^b_i have dim Hom(M, N) =
    sum a_i b_i d_i with d_i = dim End(S_i), so by Cauchy-Schwarz M and N
    are isomorphic exactly when dim Hom(M, N) = dim End(M) = dim End(N), in
    every characteristic.  An invertible intertwiner X settles the question
    at once: Y -> XY and Y -> YX^-1 carry End(M) onto Hom(M, N) onto End(N),
    so the three dimensions agree, and only a failed witness search pays for
    the two End systems.  Both inputs must be completely reducible; no
    check is made here.
    """
    conj, hom = find_invertible_intertwiner(r1, r2)
    if conj is not None:
        return True, "conjugator found"
    if hom == 0:
        return False, "no intertwiner"
    end1 = len(intertwiner_space(r1, r1))
    end2 = len(intertwiner_space(r2, r2))
    if hom == end1 == end2:
        return True, f"dim Hom = dim End = {hom}"
    return False, f"dim Hom = {hom}, dim End = {end1} and {end2}"


def check_comparable(r1: Representation, r2: Representation):
    """Raise unless r1 and r2 share their field, dimension and symbols."""
    if r1.field != r2.field:
        raise FieldMismatchError(f"{r1.field} vs {r2.field}")
    if r1.n != r2.n:
        raise DimensionMismatchError(f"{r1.n} vs {r2.n}")
    if r1.symbols != r2.symbols:
        raise GeneratorMismatchError("generator symbol sets differ")
