"""Module-theoretic core for tuples of invertible matrices.

A representation of the free group on a finite symbol set S is stored as an
ordered map from symbols to invertible matrices over one field.  This module
decides irreducibility (no proper nonzero invariant subspace), complete
reducibility (the module is a direct sum of irreducibles), computes a full
composition series and the associated semisimplification, and tests
simultaneous conjugacy of semisimple tuples.

All three module-structure decisions read one thing: the tuple's split
(:func:`split_at`) at the first invariant subspace W the search certifies,
read once per tuple (:func:`_split`).  The split conjugates by one
adapted basis b, kept with its inverse, so each generator becomes
[[A, B], [0, D]].  The composition series refines the A
tuple (rho|_W) and the D tuple (rho_{V/W}), and carries h^-1 down the
same tree.  Complete reducibility is the existence of the block
conjugator, built down the same tree from solutions of A X - X D = B, so
each battery runs once.  Spins, dual spins and the word algebra are one
breadth-first closure under the generators alone: in finite dimension
m(U) in U gives m^-1(U) = U, and m^-1 lies in K[m] (Cayley-Hamilton).
The battery's commutant layer tries the kernels of the non-scalar
commutant basis and, in characteristic 0, of each basis element shifted by
each of its rational eigenvalues (Holt-Rees).  The seeded probes and
intertwiner draws all use the one seed ``PROBE_SEED``, so every answer is
a function of the tuple alone.

Every negative verdict rests on one invariance test, :func:`_is_invariant`,
run by :func:`split_at` before it splits and by :meth:`InvariantFlag.verify`
at each block boundary of a flag before the flag is handed out.  An
"irreducible" verdict over Q and F_p(T) mostly rests on the same closure
run mod q (:func:`_words_span_all_mod_residue`): when the reduced words
span all n x n matrices, the battery stops after the standard spins,
since nothing is left for it to find (Burnside; Norton's test without its
null-space half).  Elsewhere it rests on the battery coming up empty.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice
from math import lcm

from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    GeneratorMismatchError,
    NotInvariantError,
    SingularMatrixError,
)
from .fields import Field, FpPoly
from .linalg import Echelon, Matrix, _product, rref, solve_linear
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
        self._set(field, n, mats)

    def _set(self, field: Field, n: int, gens: dict):
        self.field = field
        self.n = n
        self.gens = gens
        # "inverses", "split", "series", "words" -> built value; "words" is
        # the trace stream of trace_fingerprint and grows in place
        self._derived = {}

    @classmethod
    def from_entries(cls, field: Field, gens: dict) -> "Representation":
        return cls(field, {s: Matrix.from_rows(field, rows) for s, rows in gens.items()})

    @classmethod
    def _of_invertible(cls, field: Field, gens: dict) -> "Representation":
        """A tuple of n x n matrices over ``field`` that are invertible by
        construction, taken without the checks of ``__init__``.

        For the tuples built here from invertible ones: the diagonal blocks
        of b^-1 g b in :func:`split_at` and h blockdiag(leaves) h^-1 in
        :func:`semisimplify`.
        """
        rho = object.__new__(cls)
        rho._set(field, next(iter(gens.values())).n, gens)
        return rho

    @property
    def symbols(self) -> tuple:
        return tuple(self.gens)

    def inverses(self) -> dict:
        return self._derive("inverses", lambda: {s: m.inv() for s, m in self.gens.items()})

    def _derive(self, key, build):
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

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
        """h is invertible, and at each block boundary b its first b columns
        pass :func:`_is_invariant`; nothing is inverted or conjugated."""
        h = self.basis_change
        return not h.is_singular() and all(_is_invariant(rho, h.transpose().data[:b])
                                           for b in accumulate(self.block_sizes[:-1]))


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

    @property
    def complement(self):
        """A solution X of A X - X D = B for every generator, or None.

        X exists exactly when W has an invariant complement: the span of
        the columns of b [[-X], [I]], a copy of V/W.  Solved on each read;
        :func:`_block_conjugator`, the only reader, reads it once per split.
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
    """Each generator's image of each row lies in the span of ``rows``."""
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

    Raises :class:`NotInvariantError` unless :func:`_is_invariant` holds; then
    one adapted basis b (:func:`_adapted_basis_matrix`), one inverse and one
    conjugation per generator, whose lower-left block is not read.
    """
    if not _is_invariant(rho, rows):
        raise NotInvariantError("subspace is not invariant")
    field, k = rho.field, len(rows)
    basis = _adapted_basis_matrix(field, rows, rho.n)
    binv = basis.inv()
    sub, off, quot = {}, {}, {}
    for s, m in rho.gens.items():
        t = binv * m * basis
        sub[s] = Matrix(field, (row[:k] for row in t.data[:k]))
        off[s] = tuple(row[k:] for row in t.data[:k])
        quot[s] = Matrix(field, (row[k:] for row in t.data[k:]))
    return Split(basis, binv, Representation._of_invertible(field, sub), off,
                 Representation._of_invertible(field, quot))


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
    """The nonzero rational eigenvalues of m, its entries read exactly as rationals.

    ``Fraction`` reads a float exactly, so over R these are the eigenvalues
    of the matrix the floats spell; over Q nothing is rounded to begin with.
    Sorted by (|numerator|, denominator), + before -.  The characteristic
    polynomial, cleared to integers c_0 x^d + ... + c_d, becomes monic under
    y = c_0 x, and its rational roots are y / c_0 for the integer roots y of
    the result, which lie at the ends of the brackets of :func:`_root_floors`.
    """
    rationals = Field.padic(2)  # Fraction arithmetic; p plays no part here
    m = Matrix(rationals, ((Fraction(x) for x in row) for row in m.data))
    ident = Matrix.identity(rationals, m.n)
    # Faddeev-LeVerrier characteristic polynomial (valid in characteristic 0)
    mk = ident
    cs = []
    for k in range(1, m.n + 1):
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
    """Yield the :class:`Split` at each invariant subspace found, cheapest first.

    Layers: spins of the standard basis vectors, then the Burnside exit,
    spins of the seeded probe vectors, the same for the transposed
    generators (annihilators), J(A)V, and the kernels of the
    elements of :func:`_commutant_stream` (the non-scalar commutant basis,
    then in characteristic 0 its rational eigenvalue shifts), in one pass.
    J(A)V is the span of the columns of the kernel K of the trace form
    (a, b) -> tr(ab) on the word algebra A; K is an ideal, so K V is
    invariant.  The Gram matrix and the matrices of K are one product each
    (:func:`_trace_form`, :func:`_combinations`).  In characteristic 0, K
    is the Jacobson radical J(A) (Dickson), which is nonzero exactly when
    the tuple is not completely reducible; then J(A)V is proper and
    nonzero, so in exact arithmetic this layer certifies every non-cr tuple
    over Q.  Over F_p(T), K can be larger than J(A) and K V can be all of
    V, so there it certifies nothing.  Each candidate of proper nonzero
    size goes to :func:`split_at`; one it refuses is skipped, so unsound
    heuristics cannot leak wrong answers.  Nothing is remembered between
    walks and nothing is deduplicated: a walk can yield one subspace more
    than once.  The decisions read only the first split (:func:`_split`).

    The Burnside exit (Q and F_p(T) only) returns with nothing more yielded
    when :func:`_words_span_all_mod_residue` holds: then the word algebra is
    every n x n matrix over the field, every later candidate would fail
    :func:`split_at`, and the walk yields what the whole battery would,
    nothing.  It comes after the standard spins, which find most splits,
    because on a reducible tuple the closure mod q runs to its end for
    nothing.
    """
    field = rho.field
    n = rho.n

    def check(rows):
        if not rows or len(rows) >= n:
            return None
        try:
            return split_at(rho, rows)
        except NotInvariantError:
            return None

    def spins(vectors):
        for v in vectors:
            got = check(spin(rho, v))
            if got:
                yield got

    probes = _probe_vectors(rho)
    yield from spins(probes[:n])
    if _words_span_all_mod_residue(rho):
        return
    yield from spins(probes[n:])
    duals = [m.transpose() for m in rho.gens.values()]
    for v in probes:
        urows = _closure(field, n, v, duals, Matrix.apply)[0].reduced()
        if len(urows) < n:
            got = check(_kernel_rows(field, urows))
            if got:
                yield got

    # structural layer: J(A)V, spanned by the columns of the trace-form kernel
    algebra = word_algebra_basis(rho)
    if len(algebra) < n * n:
        kernel = rref(field, _trace_form(field, algebra)).kernel
        cols = [c for m in _combinations(field, kernel, algebra) for c in m.transpose().data]
        got = cols and check(_canonical_rows(field, cols))
        if got:
            yield got

        nonscalar = [c for c in intertwiner_space(rho, rho) if not _is_scalar(c)]
        for c in _commutant_stream(field, n, nonscalar):
            got = check(_kernel_rows(field, c.data))
            if got:
                yield got


#: the residue fields GF(q) that Q tuples are reduced into: the first whose q
#: divides no denominator of the tuple
RESIDUE_FIELDS = tuple(map(Field.residue, (1073741789, 1073741783, 1073741741)))

#: the most points t of F_p that an F_p(T) tuple is reduced at, so that the
#: closures run do not grow with p
RESIDUE_POINTS = 3


def _reductions(rho: Representation):
    """Yield ``(GF(q), residue_of)`` for each residue field a tuple is reduced into.

    Over Q: mod the first q of ``RESIDUE_FIELDS`` that divides no
    denominator of an entry.  Over F_p(T): T -> t for the first
    ``RESIDUE_POINTS`` t = 0, 1, ... in F_p at which no denominator
    vanishes, so q = p; the points passed over are roots of a denominator,
    at most their total degree.  ``residue_of`` maps an entry to its
    residue in [0, q).  R has none.
    """
    field = rho.field
    entries = [x for m in rho.gens.values() for row in m.data for x in row]
    if field.kind == "padic":
        dens = lcm(*(x.denominator for x in entries))
        for residue in RESIDUE_FIELDS:
            if dens % residue.p:
                q = residue.p
                yield residue, lambda x: x.numerator * pow(x.denominator, -1, q) % q
                return
    elif field.kind == "funcfield":
        p = field.p
        residue = Field.residue(p)

        def at(poly, t):
            return _poly_value(reversed(poly.coeffs), t) % p

        points = (t for t in range(p) if all(at(x.den, t) for x in entries))
        for t in islice(points, RESIDUE_POINTS):
            yield residue, lambda x, t=t: at(x.num, t) * pow(at(x.den, t), -1, p) % p


def _words_span_all_mod_residue(rho: Representation) -> bool:
    """True when the words in the generators, reduced into one of the residue
    fields of :func:`_reductions`, span all n x n matrices there.

    The span is :func:`_closure` of I under left multiplication by the
    reduced generators, run on :class:`Matrix` over GF(q).  Each entry lies
    in the local ring O at the reduction (Z localised at q, or F_p[T]
    localised at T - t), and reduction O -> GF(q) is a ring homomorphism, so
    the residue of a word is the word in the residues.  If n^2 words have
    independent residues, some n^2 x n^2 minor of their entries has a
    nonzero residue, so it is nonzero and the words are independent over
    the tuple's field K: the algebra A they span is M_n(K) (Burnside; the
    generators' inverses lie in A by Cayley-Hamilton), and K^n has no proper
    nonzero invariant subspace.  So True only where the battery would find
    nothing; False says nothing.
    """
    n = rho.n
    for residue, residue_of in _reductions(rho):
        gens = [Matrix(residue, ((residue_of(x) for x in row) for row in m.data))
                for m in rho.gens.values()]
        span, _ = _closure(residue, n * n, Matrix.identity(residue, n), gens, operator.mul)
        if span.rank == n * n:
            return True
    return False


def _trace_form(field: Field, algebra) -> tuple:
    """Gram matrix of (a, b) -> tr(ab): a read by rows dotted with b read by columns."""
    return _product(field, [_entries(a) for a in algebra],
                    [_entries(b.transpose()) for b in algebra])


def _combinations(field: Field, coeff_rows, mats) -> list:
    """The matrices sum_j c_j mats[j], one for each row c of ``coeff_rows``."""
    n = mats[0].n
    sums = _product(field, coeff_rows, tuple(zip(*map(_entries, mats))))
    return [Matrix(field, (s[i:i + n] for i in range(0, n * n, n))) for s in sums]


def _commutant_stream(field: Field, n: int, nonscalar):
    """The commutant elements whose kernels the battery tries, in order.

    The non-scalar basis, then in characteristic 0 each element shifted by
    each of its nonzero rational eigenvalues (:func:`_rational_eigenvalues`).
    A zero shift has the kernel of the element, already tried.
    """
    yield from nonscalar
    if field.kind != "funcfield":
        for c in nonscalar:
            for lam in _rational_eigenvalues(c):
                yield c - Matrix.identity(field, n).scale(lam)


def _split(rho: Representation):
    """The first :class:`Split` :func:`invariant_subspace_candidates` yields,
    or None when it yields none.

    Read once per tuple, and the only thing the decisions below read.  A
    battery that raises caches nothing, so a failure is never taken for an
    empty battery, which would make a reducible tuple read as irreducible.
    """
    if rho.n == 1:
        return None
    return rho._derive("split", lambda: next(invariant_subspace_candidates(rho), None))


def is_nonparabolic(rho: Representation):
    """Decide irreducibility of the linear action.

    Returns ``(True, None)`` when no proper nonzero invariant subspace
    exists, otherwise ``(False, flag)`` with a verified single-step invariant
    flag as certificate: the adapted basis of the tuple's split at the
    first certified subspace (:func:`_split`; :func:`split_at` checks
    invariance).  "Irreducible" means that the words span all n x n
    matrices mod q (:func:`_words_span_all_mod_residue`), or else that the
    whole battery came up empty.
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
    return Semisimplification(flag=flag, rho_ss=Representation._of_invertible(rho.field, gens))


# ---------------------------------------------------------------------------
# words, traces, conjugacy


def trace_fingerprint(rho: Representation, max_len: int) -> tuple:
    """Traces of all freely reduced words up to ``max_len``, shortlex order.

    The letters are s, s^-1 for s in ``rho.symbols``, in that order.  The
    traces come from the tuple's one word stream, ``rho._derived["words"]``:
    the traces so far, the index where each length ends in them, and the
    words of the last length as (last letter, product).  Each length's words
    are the last length's followed by every letter that does not cancel, so
    each word's product is its prefix's times one letter, built once per
    tuple.  The stream grows only when ``max_len`` passes every length asked
    for before; shorter requests read a prefix of it.
    """
    letters = [((s, e), m) for s in rho.symbols
               for e, m in ((1, rho.gens[s]), (-1, rho.inverses()[s]))]
    traces, ends, last = rho._derive("words", lambda: ([], [0], []))
    while len(ends) <= max_len:
        last[:] = ([(b, m * g) for a, m in last for b, g in letters if b != (a[0], -a[1])]
                   if last else letters)
        traces.extend(m.trace() for _, m in last)
        ends.append(len(traces))
    return tuple(traces[:ends[max_len]])


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
        coeffs = [field.coerce(FpPoly(field.p, [rng.randrange(field.p) for _ in range(k)]))
                  if field.kind == "funcfield" else rng.randrange(2 * n) for _ in basis]
        yield _combinations(field, [coeffs], basis)[0]


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
