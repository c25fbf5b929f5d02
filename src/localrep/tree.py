"""Lattice-class tree for 2x2 matrices over the p-adic rationals.

Vertices are homothety classes of rank-2 lattices, encoded by an invertible
basis matrix; two classes agree exactly when the transition matrix between
the bases has both elementary divisors of the same valuation.  The graph
metric is the spread of the elementary divisors, the valence is p + 1, and
invertible matrices act by left multiplication of the basis.

Includes the product-of-two-trees counterexample: a pair (diagonal,
unipotent-with-large-entry) whose displacement minimum is attained on a
stable convex subspace even though the pair is not completely reducible,
with the closure degeneration onto (diagonal, identity) certified by exact
valuation growth.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadParameterError, PrimeMismatchError
from .fields import Field
from .linalg import Matrix
from .parabolic import VALUATION_THRESHOLD, BlockStructure, FundamentalSequence, contract_limit
from .reptheory import Representation, is_cr


class TreeVertex:
    """Homothety class of a rank-2 lattice, given by a basis matrix."""

    __slots__ = ("basis", "_key")

    def __init__(self, basis: Matrix):
        if basis.field.kind != "padic":
            raise PrimeMismatchError("tree vertices need the p-adic model")
        if basis.is_singular():
            raise ValueError("basis must be invertible")
        self.basis = basis
        self._key = None

    @classmethod
    def standard(cls, p: int) -> "TreeVertex":
        return cls(Matrix.identity(Field.padic(p), 2))

    @property
    def p(self) -> int:
        return self.basis.field.p

    def canonical_key(self) -> tuple:
        """Unique (a, r, c) with lattice basis [[p^a, r], [0, p^c]], r in [0, p^a).

        Canonical column form over the local ring at p, homothety-normalised
        so that not every entry is divisible by p.
        """
        if self._key is not None:
            return self._key
        field = self.basis.field
        p = field.p
        m = [list(row) for row in self.basis.data]
        # clear the bottom-left entry with a unimodular column operation
        v21 = field.valuation(m[1][0])
        v22 = field.valuation(m[1][1])
        if v21 < v22:
            m[0][0], m[0][1] = m[0][1], m[0][0]
            m[1][0], m[1][1] = m[1][1], m[1][0]
        if m[1][0] != 0:
            q = m[1][0] / m[1][1]
            m[0][0] = m[0][0] - q * m[0][1]
            m[1][0] = Fraction(0)
        # scale each column by a unit so the corner entries are powers of p
        alpha = field.valuation(m[0][0])
        delta = field.valuation(m[1][1])
        b = m[0][1] * (Fraction(p) ** delta / m[1][1])
        # homothety normalisation
        shift = min(alpha, delta, field.valuation(b) if b != 0 else alpha)
        alpha -= shift
        delta -= shift
        b = b / Fraction(p) ** shift
        # residue of b modulo p^alpha inside the local ring
        mod = p ** alpha
        if mod == 1 or b == 0:
            r = 0
        else:
            num, den = b.numerator, b.denominator
            r = (num * pow(den, -1, mod)) % mod
        self._key = (alpha, r, delta)
        return self._key

    def __eq__(self, other) -> bool:
        if not isinstance(other, TreeVertex):
            return NotImplemented
        if self.p != other.p:
            raise PrimeMismatchError(f"p={self.p} vs p={other.p}")
        return self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash((self.p, self.canonical_key()))

    def __repr__(self) -> str:
        a, r, c = self.canonical_key()
        return f"TreeVertex(p={self.p}, [[{self.p}^{a}, {r}], [0, {self.p}^{c}]])"


def elementary_spread(m: Matrix) -> int:
    """e_max - e_min for the elementary divisors of an invertible 2x2 matrix.

    For 2x2 the first elementary divisor is the gcd of the entries, so the
    spread is v(det) - 2 * min entry valuation: the valuations of the
    determinantal divisors d_1 (gcd of the 1x1 minors) and d_2 = det give
    e_1 = v(d_1) and e_2 = v(d_2) - v(d_1).
    """
    field = m.field
    v_det = field.valuation(m.det())
    v_min = m.min_valuation()
    return int(v_det - 2 * v_min)


def tree_dist(u: TreeVertex, v: TreeVertex) -> int:
    """Graph distance between two lattice classes."""
    if u.p != v.p:
        raise PrimeMismatchError(f"p={u.p} vs p={v.p}")
    return elementary_spread(u.basis.inv() * v.basis)


def neighbors(v: TreeVertex) -> list:
    """The p + 1 classes at distance one (index-p sublattices).

    The moves list the index-p sublattices of the standard lattice in
    column convention: <p e1, j e1 + e2> for 0 <= j < p, and <e1, p e2>.
    """
    field = v.basis.field
    p = field.p
    moves = [Matrix.from_rows(field, [[1, 0], [0, p]])]
    for j in range(p):
        moves.append(Matrix.from_rows(field, [[p, j], [0, 1]]))
    return [TreeVertex(v.basis * mv) for mv in moves]


def ball(center: TreeVertex, radius: int):
    """Vertices within the given radius, in BFS order, with their distances."""
    seen = {center: 0}
    order = [center]
    frontier = [center]
    for d in range(1, radius + 1):
        nxt = []
        for v in frontier:
            for w in neighbors(v):
                if w not in seen:
                    seen[w] = d
                    order.append(w)
                    nxt.append(w)
        frontier = nxt
    return order, seen


def vertex_displacement(g: Matrix, v: TreeVertex) -> int:
    """Distance from a vertex to its image under g: the spread of B^-1 g B
    for the basis B of v."""
    if g.field.kind != "padic":
        raise PrimeMismatchError("the acting matrix must be p-adic")
    if g.field.p != v.p:
        raise PrimeMismatchError(f"p={g.field.p} vs p={v.p}")
    return elementary_spread(v.basis.inv() * g * v.basis)


def _primitive(m: Matrix) -> Matrix:
    """m scaled by p^(-min valuation): integral, with an entry that is a unit."""
    return m.scale(Fraction(m.field.p) ** -m.min_valuation())


def _descent_move(m: Matrix) -> Matrix:
    """The move from a vertex v to the first vertex of the geodesic [v, gv].

    ``m`` is B^-1 g B for the basis B of v, made primitive, with v(det m) > 0.
    Then m mod p has rank one, and the first vertex is the lattice mL + pL:
    the index-p sublattice (a move of :func:`neighbors`) whose line mod p is
    the image of m mod p, spanned by any column of m that is not zero mod p.
    """
    field = m.field
    p = field.p
    (a, b), (c, d) = m.data
    c1, c2 = (a, c) if min(field.valuation(a), field.valuation(c)) == 0 else (b, d)
    if field.valuation(c2) > 0:
        return Matrix.from_rows(field, [[1, 0], [0, p]])
    j = c1 / c2
    return Matrix.from_rows(field, [[p, j.numerator * pow(j.denominator, -1, p) % p],
                                    [0, 1]])


def translation_length(g: Matrix, radius: int):
    """Minimum vertex displacement over the ball around the standard vertex.

    Returns ``(minimum, witness vertex)``, the witness being the first
    minimiser of ``ball(standard, radius)`` in BFS order, found without
    scanning the ball.  The displacement d(v, gv) = l(g) + 2 d(v, Min g) is
    convex, and the geodesic from v to gv passes through Min g (Serre,
    *Trees*, I.6).  So the walk starts at the standard vertex and steps to
    the first vertex of [v, gv] (:func:`_descent_move`) while that lowers
    d(v, gv), at most ``radius`` times; each step is O(1) matrix work, for
    any p.  It ends at the projection of the standard vertex onto Min g,
    with minimum l(g).  When the radius is too small to reach Min g, it ends
    at the vertex ``radius`` steps along the geodesic toward it, with
    minimum d(standard, g standard) - 2 * radius.  Either way the witness is
    the unique minimiser in the ball.  At each vertex v of basis B, with m
    the primitive B^-1 g B, d(v, gv) = v(det m): the elementary divisors of
    m are 1 and p^v(det m).
    """
    if g.field.kind != "padic":
        raise PrimeMismatchError("tree vertices need the p-adic model")
    basis = Matrix.identity(g.field, 2)
    m = _primitive(g)
    d = g.field.valuation(m.det())
    for _ in range(radius):
        if d == 0:
            break
        move = _descent_move(m)
        stepped = _primitive(move.inv() * m * move)
        d_next = g.field.valuation(stepped.det())
        if d_next >= d:
            break
        basis, m, d = basis * move, stepped, d_next
    return d, TreeVertex(basis)


@dataclass(frozen=True)
class CounterexampleReport:
    """Product-of-trees pair: minimum attained on a stable subspace, not cr.

    The pair is g = (diag(t, 1/t), [[1, t], [0, 1]]) with |t| > 1.  Part (a)
    finds a vertex fixed by the unipotent factor and checks the displacement
    minimum over the stable line times that vertex; part (b) checks that the
    unipotent factor is not completely reducible as a linear action; part
    (c) conjugates both factors by diag(t^-i, t^i) and certifies the
    degeneration onto (diag(t, 1/t), identity) by exact valuation growth,
    read off :func:`localrep.parabolic.contract_limit`'s closed form.
    """

    p: int
    t: str
    v_t: int
    fixed_vertex_key: tuple
    fixed_vertex_distance: int
    translation_length_g1: int
    stabilized: bool
    min_displacement_on_y: int
    expected_length: int
    verdict_a: bool
    cr_second_factor: bool
    verdict_b: bool
    valuation_sequence: tuple
    increments: tuple
    exceeds_threshold: bool
    diagonal_factor_fixed: bool
    verdict_c: bool

    @property
    def verified(self) -> bool:
        return self.verdict_a and self.verdict_b and self.verdict_c

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "t": self.t,
            "valuation_of_t": self.v_t,
            "fixed_vertex": list(self.fixed_vertex_key),
            "fixed_vertex_distance": self.fixed_vertex_distance,
            "translation_length": self.translation_length_g1,
            "stabilized": self.stabilized,
            "min_displacement_on_Y": self.min_displacement_on_y,
            "expected_length": self.expected_length,
            "verdict_a": self.verdict_a,
            "cr_second_factor": self.cr_second_factor,
            "verdict_b": self.verdict_b,
            "valuation_sequence": list(self.valuation_sequence),
            "increments": list(self.increments),
            "exceeds_threshold": self.exceeds_threshold,
            "verdict_c": self.verdict_c,
            "verdict": self.verified,
        }


def product_counterexample(p: int, t, imax: int = 12, radius: int = 4) -> CounterexampleReport:
    """Run all three checks of the product-of-trees counterexample."""
    field = Field.padic(p)
    t = field.coerce(t)
    v_t = field.valuation(t)
    if v_t >= 0:
        raise BadParameterError(f"need |t| > 1, got valuation {v_t}")
    v_abs = -v_t

    g1 = Matrix.from_rows(field, [[t, 0], [0, 1 / t]])
    g2 = Matrix.from_rows(field, [[1, t], [0, 1]])

    # (a) the lattice diag(t, 1) is fixed by g2, |v(t)| from the base vertex
    # and the nearest such vertex to it; the displacement over Y = (axis of
    # g1) x (fixed vertex) is the translation length of g1
    fixed = TreeVertex(Matrix.from_rows(field, [[t, 0], [0, 1]]))
    if vertex_displacement(g2, fixed) != 0:
        fixed = None
    ell, _witness = translation_length(g1, radius)
    ell_next, _ = translation_length(g1, radius + 1)
    stabilized = ell == ell_next
    expected = 2 * v_abs
    verdict_a = fixed is not None and ell == expected and stabilized

    # (b) the unipotent factor is not completely reducible
    rep2 = Representation(field, {"a": g2})
    cr2 = is_cr(rep2)
    verdict_b = cr2 is False

    # (c) base = diag(t, 1/t): base^-i g2 base^i has corner t^(1-2i), whose
    # valuation (2i - 1)|v(t)| is read off the closed form; g1 is diagonal,
    # so it is stationary
    seq = FundamentalSequence(BlockStructure(2, (1, 1)), Matrix.diagonal(field, [t, 1 / t]))
    corner = contract_limit(g2, seq, imax).entries[0]
    vals, increments = corner.values, corner.increments
    diag_fixed = contract_limit(g1, seq, imax).stationary
    exceeds = vals[-1] > VALUATION_THRESHOLD
    verdict_c = (
        all(inc == 2 * v_abs for inc in increments) and exceeds and diag_fixed
    )

    return CounterexampleReport(
        p=p,
        t=field.format(t),
        v_t=v_t,
        fixed_vertex_key=fixed.canonical_key() if fixed is not None else (),
        fixed_vertex_distance=elementary_spread(fixed.basis) if fixed is not None else -1,
        translation_length_g1=ell,
        stabilized=stabilized,
        min_displacement_on_y=ell,
        expected_length=expected,
        verdict_a=verdict_a,
        cr_second_factor=bool(cr2),
        verdict_b=verdict_b,
        valuation_sequence=tuple(vals),
        increments=increments,
        exceeds_threshold=exceeds,
        diagonal_factor_fixed=diag_fixed,
        verdict_c=verdict_c,
    )
