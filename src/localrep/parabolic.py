"""Standard block parabolics and contraction by torus conjugation.

A ``BlockStructure`` is an ordered composition of n.  It determines the
standard parabolic pair: block upper (resp. lower) triangular matrices, with
the block diagonal as their common Levi part.  Conjugating by powers of a
suitable diagonal matrix contracts the unipotent off-diagonal part, which is
how block triangular tuples degenerate onto their block diagonal and how
pairs of opposite-parabolic tuples are joined by an explicit path of
conjugates.

The path is read in closed form.  With base = diag(c_1 I, ..., c_k I), a
tuple g- = u r in the lower and g+ = r n in the upper parabolic (u, n
unitriangular, r the shared Levi part) are joined by rho_i = g- N_i,
N_i = base^-i n base^i, and

    rho_i - g-                  = sum_{p<q} (c_q/c_p)^i g-[:, P] n[P, Q],
    base^i rho_i base^-i - g+   = sum_{p<q} (c_q/c_p)^i u[Q, P] g+[P, :].

So every entry of either difference is a sum of at most k - 1 terms m x^i
with distinct ratios x.  Over Q_p and F_p(T) its valuation at step i is
min_t (v(m_t) + i v(x_t)) wherever one term attains that minimum; only the
ties are evaluated exactly.  Over R the magnitude |sum m_t x_t^i| is taken
directly, with no cancellation against the limit.  By block LDU the leading
block minors of u r N_i are those of r, so the path stays in the big cell
for every i as soon as r is invertible, which inverting r checks.  Both
limits always hold: every ratio c_q/c_p (p < q) has |x| < 1 on R and
v(x) >= 1 on exact fields, since |c_1| > ... > |c_k|.  So every trace
:func:`build_neighbors` returns has a true verdict.

The same closed form, with the identity as left factor, gives
base^-i g base^i - L(g) = sum_{p<q} (c_q/c_p)^i g[P, Q] for block upper
triangular g with block diagonal part L(g).  :func:`_closed_form_terms` and
:func:`_difference_table` are the only code that values these sums, for
three users: :func:`build_neighbors`, :func:`contract_limit` and step (c)
of :func:`localrep.tree.product_counterexample`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import (
    DimensionMismatchError,
    LeviMismatchError,
    NotParabolicError,
)
from .fields import Field, INFINITY
from .linalg import Matrix, _product

if TYPE_CHECKING:
    from .reptheory import Representation

#: valuation threshold certifying non-archimedean convergence at finite index
VALUATION_THRESHOLD = 20
#: magnitude threshold for the real case
REAL_LIMIT_TOLERANCE = 1e-8


@dataclass(frozen=True)
class BlockStructure:
    """Ordered composition (n_1, ..., n_k) of n."""

    n: int
    sizes: tuple

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if any(s < 1 for s in sizes) or sum(sizes) != self.n:
            raise DimensionMismatchError(f"{sizes} is not a composition of {self.n}")

    @property
    def k(self) -> int:
        return len(self.sizes)

    @property
    def boundaries(self) -> tuple:
        out = [0]
        for s in self.sizes:
            out.append(out[-1] + s)
        return tuple(out)

    def is_block_triangular(self, m: Matrix, side: str = "upper") -> bool:
        sc = m.entry_scale()
        b = self.boundaries
        for bi in range(self.k):
            for bj in range(self.k):
                if (side == "upper" and bi <= bj) or (side == "lower" and bi >= bj):
                    continue
                for i in range(b[bi], b[bi + 1]):
                    for j in range(b[bj], b[bj + 1]):
                        if not m.field.is_zero(m.data[i][j], sc):
                            return False
        return True

    def diagonal_part(self, m: Matrix) -> Matrix:
        zero = m.field.zero()
        b = self.boundaries
        rows = [[zero] * self.n for _ in range(self.n)]
        for bi in range(self.k):
            for i in range(b[bi], b[bi + 1]):
                for j in range(b[bi], b[bi + 1]):
                    rows[i][j] = m.data[i][j]
        return Matrix(m.field, tuple(tuple(r) for r in rows))


@dataclass(frozen=True)
class FundamentalSequence:
    """Powers of a block-constant diagonal matrix with strictly dropping |c|.

    ``base`` is diag(c_1 I_{n_1}, ..., c_k I_{n_k}) with
    |c_1| > |c_2| > ... > |c_k|; conjugation g -> base^-1 g base then shrinks
    every strictly upper block, and the powers base^i realise the contraction
    onto the block diagonal.
    """

    blocks: BlockStructure
    base: Matrix

    def __post_init__(self):
        m = self.base
        f = m.field
        if m.n != self.blocks.n:
            raise DimensionMismatchError("base size does not match the block structure")
        cs = [m.data[lo][lo] for lo in self.blocks.boundaries[:-1]]
        if m != Matrix.diagonal(f, [c for c, size in zip(cs, self.blocks.sizes)
                                    for _ in range(size)]):
            raise NotParabolicError("base must be diagonal and constant within blocks")
        # -v(c) orders |c| on the exact fields with no float to overflow
        mags = [abs(c) if f.is_real else -f.valuation(c) for c in cs]
        if any(x <= y for x, y in zip(mags, mags[1:])):
            raise NotParabolicError("block magnitudes must strictly decrease")

    @classmethod
    def default(cls, blocks: BlockStructure, field: Field) -> "FundamentalSequence":
        """Unit-increment base: |c_j| drops by a factor p (resp. 2) per block."""
        if field.is_real:
            cs = [2.0 ** (-j) for j in range(blocks.k)]
        else:
            pi = field.uniformizer()
            cs = [pi ** j for j in range(blocks.k)]
        entries = []
        for size, c in zip(blocks.sizes, cs):
            entries.extend([c] * size)
        return cls(blocks, Matrix.diagonal(field, entries))

    def conjugate_power(self, m: Matrix, i: int) -> Matrix:
        """base^-i * m * base^i, computed entrywise (base is diagonal)."""
        f = m.field
        cs = [self.base.data[r][r] for r in range(m.n)]
        rows = []
        for r in range(m.n):
            row = []
            for s in range(m.n):
                ratio = (cs[s] / cs[r]) ** i if i >= 0 else (cs[r] / cs[s]) ** (-i)
                row.append(m.data[r][s] * ratio)
            rows.append(tuple(row))
        return Matrix(f, tuple(rows))


# ---------------------------------------------------------------------------
# contraction reports


@dataclass(frozen=True)
class EntryTrace:
    """Per-entry decay data for one strictly-upper entry of a conjugate orbit."""

    row: int
    col: int
    values: tuple        # valuations (exact fields) or magnitudes (real)
    increments: tuple    # per step: v(x) (exact) or |x| (real) of the entry's ratio x


@dataclass(frozen=True)
class ContractReport:
    verdict: str                      # "CONVERGES_TO_LEVI" or "NO_CONVERGENCE"
    stationary: bool
    limit: Matrix
    entries: tuple                    # EntryTrace per tracked entry
    imax: int
    threshold_reached: bool


def contract_limit(g: Matrix, seq: FundamentalSequence, imax: int) -> ContractReport:
    """Track base^-i g base^i for i = 0..imax on a block upper triangular g.

    Each tracked entry, a nonzero entry of g above the diagonal blocks, is
    one term m x^i of the closed form (module docstring), in row-major order,
    with x from the blocks of its row and column.  So its increment per step
    is read off x alone: v(x) on exact fields, which must be positive, and
    |x| on R, which must be below 1.  The limit is the block diagonal (Levi)
    part.
    """
    blocks = seq.blocks
    if not blocks.is_block_triangular(g, "upper"):
        raise NotParabolicError("matrix is not block upper triangular")
    f = g.field
    terms = _closed_form_terms(Matrix.identity(f, g.n), g, seq, by_row=False)
    ratios = {(row, col): ts[0][1] for row, col, ts in terms if ts}
    entries = []
    converged = True
    threshold = True
    for e in _difference_table(f, terms, imax, g.entry_scale()):
        vals, x = e.values, ratios[(e.row, e.col)]
        if f.is_real:
            incs = (abs(x),) * imax
            converged = converged and all(r < 1.0 - 1e-12 for r in incs)
            threshold = threshold and vals[-1] <= REAL_LIMIT_TOLERANCE
        else:
            incs = (f.valuation(x),) * imax
            converged = converged and all(d >= 1 for d in incs)
            threshold = threshold and vals[-1] >= VALUATION_THRESHOLD
        entries.append(EntryTrace(row=e.row, col=e.col, values=vals, increments=incs))

    return ContractReport(
        verdict="CONVERGES_TO_LEVI" if converged else "NO_CONVERGENCE",
        stationary=not entries,
        limit=blocks.diagonal_part(g),
        entries=tuple(entries),
        imax=imax,
        threshold_reached=threshold,
    )


# ---------------------------------------------------------------------------
# explicit degenerations joining opposite parabolic tuples


@dataclass(frozen=True)
class DegenerationTrace:
    """Record of the conjugation path rho_i joining two tuples.

    ``rho_i(s) = u(s) r(s) (base^-i n(s) base^i)`` converges to the lower
    tuple while its conjugate by base^i converges to the upper one.  The
    tables hold, per generator, the valuations (or magnitudes) of the
    entries of rho_i - rho_minus and base^i rho_i base^-i - rho_plus for
    i = 0..imax; see :func:`build_neighbors`.
    """

    blocks: BlockStructure
    imax: int
    table_minus: dict               # symbol -> tuple of EntryTrace
    table_plus: dict
    initial: dict                   # symbol -> Matrix, rho_0
    #: inverting the Levi parts has shown every leading block minor nonzero
    big_cell_ok = True

    def to_json_dict(self) -> dict:
        def table(t):
            return {
                sym: [
                    {
                        "row": e.row,
                        "col": e.col,
                        "values": ["inf" if v == INFINITY else v for v in e.values],
                    }
                    for e in traces
                ]
                for sym, traces in t.items()
            }

        return {
            "blocks": list(self.blocks.sizes),
            "imax": self.imax,
            "verdict": self.big_cell_ok,
            "toward_lower": table(self.table_minus),
            "toward_upper": table(self.table_plus),
            "big_cell_ok": self.big_cell_ok,
        }


def _closed_form_terms(left: Matrix, right: Matrix, seq: FundamentalSequence,
                       by_row: bool) -> list:
    """Terms of D_i = sum_{p<q} (c_q/c_p)^i left[:, P] right[P, Q], entry by entry.

    Q is the entry's column block (``by_row`` false) or its row block
    (``by_row`` true), and P runs over the blocks before it.  Returns
    ``(row, col, terms)`` in row-major order, where ``terms`` lists the pairs
    (m, x) with m = left[row, P] right[P, col] nonzero and x = c_q/c_p, so
    that D_i[row, col] = sum m x^i.
    """
    f = left.field
    zero = f.zero()
    b = seq.blocks.boundaries
    owner = [bi for bi, size in enumerate(seq.blocks.sizes) for _ in range(size)]
    cs = [seq.base.data[lo][lo] for lo in b[:-1]]
    cols = tuple(zip(*right.data))
    # left[:, P] right[P, :] for each block P but the last
    partial = [_product(f, [r[lo:hi] for r in left.data], [c[lo:hi] for c in cols])
               for lo, hi in zip(b, b[1:-1])]
    out = []
    for row in range(left.n):
        for col in range(left.n):
            q = owner[row] if by_row else owner[col]
            terms = [(m[row][col], cs[q] / cs[p])
                     for p, m in enumerate(partial[:q]) if m[row][col] != zero]
            out.append((row, col, terms))
    return out


def _valuations(field: Field, terms, imax: int) -> list:
    """v(sum_t m_t x_t^i) for i = 0..imax, over an exact field.

    Term t has valuation v(m_t) + i v(x_t).  Where one term alone attains the
    minimum, that minimum is the valuation of the sum; only where several
    tie is the sum evaluated exactly.
    """
    lines = [(field.valuation(m), field.valuation(x)) for m, x in terms]
    vals = []
    for i in range(imax + 1):
        lows = [a + i * s for a, s in lines]
        low = min(lows)
        if lows.count(low) == 1:
            vals.append(low)
        else:
            vals.append(field.valuation(
                sum((m * x ** i for m, x in terms), start=field.zero())))
    return vals


def _difference_table(field: Field, terms, imax: int, scale: float):
    """EntryTrace of every entry whose difference is not zero along the path.

    Values are valuations (exact fields) or magnitudes |sum_t m_t x_t^i|
    (real), which carry no cancellation against the limit.  Over R an entry
    counts as zero when every magnitude is at most 1e-15 max(1, scale).
    """
    traces = []
    for row, col, ts in terms:
        if not ts:
            continue
        if field.is_real:
            vals = [abs(sum(m * x ** i for m, x in ts)) for i in range(imax + 1)]
            keep = any(v > 1e-15 * max(1.0, scale) for v in vals)
        else:
            vals = _valuations(field, ts, imax)
            keep = any(v != INFINITY for v in vals)
        if keep:
            traces.append(EntryTrace(row=row, col=col, values=tuple(vals), increments=()))
    return tuple(traces)


def build_neighbors(rho_minus: Representation, rho_plus: Representation,
                    blocks: BlockStructure, seq: FundamentalSequence,
                    imax: int) -> DegenerationTrace:
    """Join a lower and an upper block triangular tuple with equal Levi parts.

    For each generator, g- = u r and g+ = r n with u block lower and n block
    upper unitriangular and r the shared block diagonal.  The path is
    rho_i = u r N_i = g- N_i with N_i = base^-i n base^i; it tends to g-,
    while base^i rho_i base^-i = U_i g+ with U_i = base^i u base^-i tends to
    g+.  Both differences are finite sums over block pairs p < q, with
    x = c_q/c_p:

        rho_i - g-                  = sum x^i g-[:, P] n[P, Q]   (columns in Q)
        base^i rho_i base^-i - g+   = sum x^i u[Q, P] g+[P, :]   (rows in Q)

    The tables hold, for i = 0..imax, the valuation (exact fields) or the
    magnitude (R) of each entry of these sums, read off the closed form.  In
    one entry the ratios x are distinct, since |c| strictly decreases.

    Both limits hold for every such pair: :class:`FundamentalSequence`
    enforces |c_1| > ... > |c_k|, so every ratio has |x| < 1 on R and
    valuation at least one on exact fields.  By block LDU the leading block
    minors of u r N_i are those of r for every i, and ``r.inv()`` raises
    :class:`SingularMatrixError` before any of them could be zero: its
    elimination runs over the rows of the block diagonal r first, with the
    zero test of every other singularity check, over R too.  So a returned
    trace has ``big_cell_ok`` and its verdict true.
    """
    f = rho_minus.field
    if rho_plus.field != f or rho_plus.n != rho_minus.n:
        raise LeviMismatchError("tuples live in different spaces")
    if rho_minus.symbols != rho_plus.symbols:
        raise LeviMismatchError("generator symbol sets differ")
    initial = {}
    table_minus, table_plus = {}, {}
    for s in rho_minus.symbols:
        gm, gp = rho_minus.gens[s], rho_plus.gens[s]
        if not blocks.is_block_triangular(gm, "lower"):
            raise NotParabolicError(f"generator {s!r} of the first tuple is not block lower triangular")
        if not blocks.is_block_triangular(gp, "upper"):
            raise NotParabolicError(f"generator {s!r} of the second tuple is not block upper triangular")
        r = blocks.diagonal_part(gm)
        if r != blocks.diagonal_part(gp):
            raise LeviMismatchError(f"Levi projections differ on generator {s!r}")
        rinv = r.inv()
        n = rinv * gp
        initial[s] = gm * n
        lower = _closed_form_terms(gm, n, seq, by_row=False)
        upper = _closed_form_terms(gm * rinv, gp, seq, by_row=True)
        sc = initial[s].entry_scale()
        table_minus[s] = _difference_table(f, lower, imax, max(sc, gm.entry_scale()))
        table_plus[s] = _difference_table(f, upper, imax, max(sc, gp.entry_scale()))
    return DegenerationTrace(
        blocks=blocks,
        imax=imax,
        table_minus=table_minus,
        table_plus=table_plus,
        initial=initial,
    )
