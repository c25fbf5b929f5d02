"""Shared labeled corpora and independent oracles.

The exact corpus holds 60 instances (30 each over the 5-adic rationals and
over F_3(T)), n <= 3 and at most two generators, each labeled completely
reducible or not *by construction*: the non-split cases are assembled from
block data whose splitting system is checked infeasible at build time, so
the labels never depend on the code paths under test.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import pytest

from localrep import Field, Matrix, Representation, rref
from localrep.linalg import Echelon, solve_linear


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    rep: Representation
    cr: bool


def mk(field, gens):
    return Representation.from_entries(field, gens)


def conj(rep, h_rows):
    return rep.conjugate_by(Matrix.from_rows(rep.field, h_rows))


def cocycle_splits(field, tops, bots, cocycles) -> bool:
    """Feasibility of A_s X - X D_s = C_s over the field (exact build check)."""
    k = len(tops[0])
    m = len(bots[0])
    rows, rhs = [], []
    for a, d, c in zip(tops, bots, cocycles):
        a = [[field.coerce(x) for x in r] for r in a]
        d = [[field.coerce(x) for x in r] for r in d]
        c = [[field.coerce(x) for x in r] for r in c]
        for i in range(k):
            for j in range(m):
                row = [field.zero()] * (k * m)
                for l in range(k):
                    row[l * m + j] = row[l * m + j] + a[i][l]
                for q in range(m):
                    row[i * m + q] = row[i * m + q] - d[q][j]
                rows.append(row)
                rhs.append(c[i][j])
    return solve_linear(field, rows, rhs) is not None


def stack_triangular(tops, bots, cocycles):
    """Assemble [[A, C], [0, D]] generator arrays."""
    k, m = len(tops[0]), len(bots[0])
    out = []
    for a, d, c in zip(tops, bots, cocycles):
        rows = []
        for i in range(k):
            rows.append(list(a[i]) + list(c[i]))
        for i in range(m):
            rows.append([0] * k + list(d[i]))
        out.append(rows)
    return out


H2A = [[1, 1], [0, 1]]
H2B = [[1, 0], [1, 1]]
H2C = [[1, 1], [1, 2]]
H3A = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
H3B = [[1, 0, 0], [1, 1, 0], [0, 1, 1]]
H3C = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]

SWAP = [[0, 1], [1, 0]]
UNI = [[1, 1], [0, 1]]


def _field_units(field):
    """Five pairwise distinct invertible scalars, as strings."""
    if field.kind == "padic":
        return ["2", "3", "1/5", "5", "7"]
    return ["T", "T+1", "1/T", "2", "T^2+1"]


def _corpus_for_field(field) -> list:
    c1, c2, c3, c4, c5 = _field_units(field)
    tag = "Q5" if field.kind == "padic" else "F3T"
    entries = []

    def add(name, rep, cr):
        entries.append(CorpusEntry(f"{tag}:{name}", rep, cr))

    def add_nonsplit(name, tops, bots, cocycles, symbols=("a", "b")):
        assert not cocycle_splits(field, tops, bots, cocycles), name
        gens = dict(zip(symbols, stack_triangular(tops, bots, cocycles)))
        add(name, mk(field, gens), cr=False)
        return gens

    # completely reducible half
    add("scalar", mk(field, {"a": [[c1]]}), True)
    add("scalar-pair", mk(field, {"a": [[c1]], "b": [[c2]]}), True)
    add("diag2", mk(field, {"a": [[c1, 0], [0, c2]]}), True)
    diag2pair = mk(field, {"a": [[c1, 0], [0, c2]], "b": [[c2, 0], [0, c4]]})
    add("diag2-pair", diag2pair, True)
    add("diag2-pair-conj", conj(diag2pair, H2A), True)
    irr2 = mk(field, {"a": SWAP, "b": UNI})
    add("irr2", irr2, True)
    add("irr2-conj", conj(irr2, H2B), True)
    add("isotypic-scalar", mk(field, {"a": [[c1, 0], [0, c1]]}), True)
    add("diag3", mk(field, {"a": [[c1, 0, 0], [0, c2, 0], [0, 0, c4]]}), True)
    diag3pair = mk(field, {
        "a": [[c1, 0, 0], [0, c2, 0], [0, 0, c4]],
        "b": [[c2, 0, 0], [0, c1, 0], [0, 0, c1]],
    })
    add("diag3-pair", diag3pair, True)
    add("diag3-pair-conj", conj(diag3pair, H3A), True)
    irr2_plus = mk(field, {
        "a": [[0, 1, 0], [1, 0, 0], [0, 0, c1]],
        "b": [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
    })
    add("irr2-plus-scalar", irr2_plus, True)
    add("irr2-plus-scalar-conj", conj(irr2_plus, H3B), True)
    add("diag2-conj", conj(mk(field, {"a": [[c1, 0], [0, c2]]}), H2C), True)
    add("swap-single", mk(field, {"a": SWAP}), True)

    # non completely reducible half (non-splitness verified at build time)
    add("unipotent", mk(field, {"a": UNI}), False)
    add("jordan2", mk(field, {"a": [[c1, 1], [0, c1]]}), False)
    ns_pair = add_nonsplit(
        "nonsplit-pair",
        tops=[[[c1]], [[1]]], bots=[[[c2]], [[1]]],
        cocycles=[[[1]], [[1]]],
    )
    add("nonsplit-pair-conj", conj(mk(field, ns_pair), H2A), False)
    ns2 = add_nonsplit(
        "nonsplit-diag-uni",
        tops=[[[c1]], [[1]]], bots=[[[c2]], [[1]]],
        cocycles=[[[0]], [[1]]],
    )
    add("nonsplit-diag-uni-conj", conj(mk(field, ns2), H2B), False)
    add("jordan3", mk(field, {"a": [[1, 1, 0], [0, 1, 1], [0, 0, 1]]}), False)
    j2s = mk(field, {"a": [[c1, 1, 0], [0, c1, 0], [0, 0, c2]]})
    add("jordan2-plus-scalar", j2s, False)
    add("jordan2-plus-scalar-conj", conj(j2s, H3A), False)
    irr_over = add_nonsplit(
        "irr2-over-scalar",
        tops=[SWAP, UNI], bots=[[[1]], [[1]]],
        cocycles=[[[1], [0]], [[0], [0]]],
    )
    add("irr2-over-scalar-conj", conj(mk(field, irr_over), H3B), False)
    ns3 = add_nonsplit(
        "nonsplit-3dim",
        tops=[[[c1]], [[1]]],
        bots=[[[c2, 0], [0, c4]], [[1, 0], [0, 1]]],
        cocycles=[[[1, 0]], [[1, 0]]],
    )
    add("nonsplit-3dim-conj", conj(mk(field, ns3), H3C), False)
    add("unipotent-conj", conj(mk(field, {"a": UNI}), H2C), False)
    add_nonsplit(
        "scalar-under-uni",
        tops=[[[c1]], [[1]]], bots=[[[c1]], [[1]]],
        cocycles=[[[0]], [[1]]],
    )

    assert len(entries) == 30, len(entries)
    return entries


def build_exact_corpus() -> list:
    return _corpus_for_field(Field.padic(5)) + _corpus_for_field(Field.funcfield(3))


def build_real_corpus() -> list:
    """10 completely reducible + 10 not, real field, n <= 3."""
    R = Field.real()
    e = math.e
    th = 1.0
    c, s = math.cos(th), math.sin(th)
    entries = []

    def add(name, gens, cr):
        entries.append(CorpusEntry(f"R:{name}", mk(R, gens), cr))

    def conj_gens(gens, h):
        rep = conj(mk(R, gens), h)
        return {sym: [[float(x) for x in row] for row in m.data]
                for sym, m in rep.gens.items()}

    G2 = [[2.0, 1.0], [1.0, 1.0]]
    G3 = [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]]

    add("identity", {"a": [[1, 0], [0, 1]]}, True)
    add("diag", {"a": [[2, 0], [0, 0.5]]}, True)
    add("diag-pair", {"a": [[2, 0], [0, 0.5]], "b": [[3, 0], [0, 1 / 3]]}, True)
    add("diag-pair-conj", conj_gens({"a": [[2, 0], [0, 0.5]], "b": [[3, 0], [0, 1 / 3]]}, G2), True)
    add("rotation", {"a": [[c, -s], [s, c]]}, True)
    add("rot-scaled", {"a": [[2 * c, -2 * s], [2 * s, 2 * c]]}, True)
    add("reflection", {"a": [[0, 1], [1, 0]]}, True)
    add("diag3", {"a": [[2, 0, 0], [0, 0.5, 0], [0, 0, 1]]}, True)
    add("rot-plus-scalar", {"a": [[2 * c, -2 * s, 0], [2 * s, 2 * c, 0], [0, 0, 0.25]]}, True)
    add("diag-conj", conj_gens({"a": [[2, 0], [0, 0.5]]}, [[1, 1], [0, 1]]), True)

    add("unipotent", {"a": [[1, 1], [0, 1]]}, False)
    add("unipotent-conj", conj_gens({"a": [[1, 1], [0, 1]]}, G2), False)
    add("nonsplit-pair", {"a": [[2, 0], [0, 0.5]], "b": [[1, 1], [0, 1]]}, False)
    add("nonsplit-pair-conj",
        conj_gens({"a": [[2, 0], [0, 0.5]], "b": [[1, 1], [0, 1]]}, G2), False)
    add("jordan3", {"a": [[1, 1, 0], [0, 1, 1], [0, 0, 1]]}, False)
    add("mixed3", {"a": [[2, 1, 0], [0, 2, 0], [0, 0, 0.25]],
                   "b": [[1, 0, 1], [0, 1, 0], [0, 0, 1]]}, False)
    add("mixed3-conj", conj_gens({"a": [[2, 1, 0], [0, 2, 0], [0, 0, 0.25]],
                                  "b": [[1, 0, 1], [0, 1, 0], [0, 0, 1]]}, G3), False)
    add("nonsplit-lower", {"a": [[2, 0], [0, 0.5]], "b": [[1, 0], [1, 1]]}, False)
    add("unipotent-wide", {"a": [[1, 2], [0, 1]]}, False)
    add("jordan2-plus-scalar", {"a": [[2, 1, 0], [0, 2, 0], [0, 0, 1]]}, False)

    assert len(entries) == 20
    assert sum(1 for en in entries if en.cr) == 10
    return entries


# ---------------------------------------------------------------------------
# independent oracles


def box_vectors(field, n, bound=2):
    """All nonzero coordinate vectors with integer entries in [-bound, bound]."""
    rng = range(-bound, bound + 1)
    for raw in itertools.product(rng, repeat=n):
        if any(raw):
            yield tuple(field.coerce(v) for v in raw)


def _spin_closure(rep, vec):
    """Independent spin: a first-in first-out queue under the generators and
    their inverses, membership by one growing :class:`Echelon`."""
    span = Echelon(rep.field)
    span.insert(vec)
    queue = [vec]
    mats = list(rep.gens.values()) + [m.inv() for m in rep.gens.values()]
    while queue and span.rank < rep.n:
        u = queue.pop(0)
        for m in mats:
            w = m.apply(u)
            if span.insert(w):
                queue.append(w)
    return span.reduced()


def _oracle_splits(rep, rows) -> bool:
    """Independent splitting feasibility for an invariant subspace."""
    field = rep.field
    n = rep.n
    k = len(rows)
    ann = rref(field, list(rows)).kernel  # functionals annihilating the rows
    sys_rows, rhs = [], []
    # unknown projector pi, n^2 variables
    for m in rep.gens.values():
        for i in range(n):
            for j in range(n):
                row = [field.zero()] * (n * n)
                for l in range(n):
                    row[i * n + l] = row[i * n + l] + m.data[l][j]
                    row[l * n + j] = row[l * n + j] - m.data[i][l]
                sys_rows.append(row)
                rhs.append(field.zero())
    for w in rows:
        for i in range(n):
            row = [field.zero()] * (n * n)
            for l in range(n):
                row[i * n + l] = w[l]
            sys_rows.append(row)
            rhs.append(w[i])
    for f in ann:
        for j in range(n):
            row = [field.zero()] * (n * n)
            for i in range(n):
                row[i * n + j] = f[i]
            sys_rows.append(row)
            rhs.append(field.zero())
    return solve_linear(field, sys_rows, rhs) is not None


def oracle_is_cr(rep, bound=2) -> bool:
    """Exhaustive splitting oracle: every spin-found subspace must split."""
    seen = set()
    for vec in box_vectors(rep.field, rep.n, bound):
        rows = _spin_closure(rep, vec)
        if not (0 < len(rows) < rep.n):
            continue
        key = tuple(tuple(rep.field.format(x) for x in r) for r in rows)
        if key in seen:
            continue
        seen.add(key)
        if not _oracle_splits(rep, rows):
            return False
    return True


def word_span_basis(rep) -> list:
    """Words in the generators and their inverses spanning their linear span."""
    field = rep.field
    n = rep.n
    basis = []
    span = Echelon(field)

    def try_add(m):
        if span.insert([x for row in m.data for x in row]):
            basis.append(m)
            return True
        return False

    seeds = [Matrix.identity(field, n)] + list(rep.gens.values()) \
        + [m.inv() for m in rep.gens.values()]
    queue = []
    for m in seeds:
        if try_add(m):
            queue.append(m)
    letters = list(rep.gens.values()) + [m.inv() for m in rep.gens.values()]
    while queue and len(basis) < n * n:
        m = queue.pop(0)
        for g in letters:
            prod = g * m
            if try_add(prod):
                queue.append(prod)
    return basis


def trace_form_is_cr(rep) -> bool:
    """Characteristic-zero oracle: trace form on the word span is nondegenerate."""
    basis = word_span_basis(rep)
    gram = [[(a * b).trace() for b in basis] for a in basis]
    return rref(rep.field, gram).rank == len(basis)


def gcd_minor_valuations(field, m: Matrix) -> tuple:
    """Oracle: elementary divisor valuations from the determinantal divisors.

    The k-th determinantal divisor d_k is the gcd of the k x k minors, so
    v(d_k) is their least valuation, and e_k = v(d_k) - v(d_{k-1}).
    """
    n = m.n

    def least(k):
        out = []
        for ri in itertools.combinations(range(n), k):
            for ci in itertools.combinations(range(n), k):
                sub = Matrix(field, tuple(tuple(m.data[i][j] for j in ci) for i in ri))
                if not field.is_zero(sub.det()):
                    out.append(field.valuation(sub.det()))
        return min(out)

    gk = [0] + [least(k) for k in range(1, n + 1)]
    return tuple(gk[k] - gk[k - 1] for k in range(1, n + 1))


# ---------------------------------------------------------------------------
# seeded block tuples of split and non-split shapes (the "floor" corpus; its
# name and seeds are kept from the dimension floor it once tested, so its
# tuples stay the same)

# (name, block sizes, split, keep e1 in the first block).  Non-split means
# non-split above the first block.  With e1 kept in the first block (names
# ending "-e1"), the battery's first probe spins the first block, so the
# first candidate is the first summand, the larger one of (2, 1) and (3, 1),
# and the composition series lists it first.
FLOOR_SHAPES = (
    ("split-2-1-e1", (2, 1), True, True),
    ("split-3-1-e1", (3, 1), True, True),
    ("split-2-1", (2, 1), True, False),
    ("split-1-3", (1, 3), True, False),
    ("nonsplit-2-1", (2, 1), False, False),
    ("nonsplit-2-1-e1", (2, 1), False, True),
    ("nonsplit-2-2", (2, 2), False, False),
    ("nonsplit-2-2-e1", (2, 2), False, True),
    ("split-1-1-2", (1, 1, 2), True, False),
    ("nonsplit-1-1-2", (1, 1, 2), False, False),
)

# the benchmark's decide/fault tuple: blockdiag(C(x^2 - 2), C(x^2 - 3)) over
# Q5, irreducible summands that are not absolutely irreducible, and the
# conjugator it is seen through
FAULT_COMPANIONS = [[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 3], [0, 0, 1, 0]]
FAULT_CONJUGATOR = [[-1, 2, -2, 1], [-2, -1, 0, -1], [-1, 1, 1, 1], [-2, -1, 1, 1]]

# the benchmark's geometry/fault tuple: a non-split real 3x3 upper triangular
# pair (semisimplification +-diag(1, 1, 1) after rescaling, so lambda = 0) and
# the conjugator it is seen through
GEOMETRY_FAULT_UPPER = {"a": [[-3, 1, 0], [0, -3, 0], [0, 0, 3]],
                        "b": [[-1, 3, 0], [0, -1, 0], [0, 0, 1]]}
GEOMETRY_FAULT_CONJUGATOR = [[0, 1, 0], [0, -1, 1], [1, -1, 0]]


def _draw_scalar(field, rng, nonzero=False):
    while True:
        if field.kind == "funcfield":
            x = field.coerce(rng.choice(["0", "1", "2", "T", "T+1", "2*T+1"]))
        else:
            x = field.coerce(rng.randint(-3, 3))
        if not (nonzero and field.is_zero(x)):
            return x


def _draw_matrix(field, rng, rows, cols, nonzero=False):
    return [[_draw_scalar(field, rng, nonzero) for _ in range(cols)] for _ in range(rows)]


def _abs_irreducible_block(field, rng, k, symbols) -> list:
    """k x k generators whose words span all k x k matrices (Burnside)."""
    while True:
        mats = [Matrix.from_rows(field, _draw_matrix(field, rng, k, k, k == 1))
                for _ in symbols]
        if any(field.is_zero(m.det(), m.entry_scale()) for m in mats):
            continue
        block = Representation(field, dict(zip(symbols, mats)))
        if len(word_span_basis(block)) == k * k:
            return [[list(r) for r in m.data] for m in mats]


def _unitriangular(field, rng, n, upper):
    return [[field.one() if i == j else
             (field.coerce(rng.choice((-1, 1, 2))) if (j > i) == upper else field.zero())
             for j in range(n)] for i in range(n)]


def block_tuple(field, rng, sizes, split, keep_e1=False, symbols=("a", "b")):
    """A seeded conjugate of a block upper triangular tuple.

    The diagonal blocks are absolutely irreducible; unless ``split``, the
    block above the first one is a cocycle checked non-split.  The
    conjugator is upper unitriangular when ``keep_e1`` (so e1 stays in the
    first block), else a lower times an upper unitriangular matrix.
    """
    blocks = [_abs_irreducible_block(field, rng, k, symbols) for k in sizes]
    zero = field.zero()
    cocycles = [[[zero] * sizes[1] for _ in range(sizes[0])] for _ in symbols]
    if not split:
        while True:
            cocycles = [_draw_matrix(field, rng, sizes[0], sizes[1]) for _ in symbols]
            if not cocycle_splits(field, blocks[0], blocks[1], cocycles):
                break
    n = sum(sizes)
    starts = [sum(sizes[:b]) for b in range(len(sizes))]
    gens = {}
    for s, sym in enumerate(symbols):
        m = [[zero] * n for _ in range(n)]
        for b, block in enumerate(blocks):
            for i, row in enumerate(block[s]):
                m[starts[b] + i][starts[b]:starts[b] + sizes[b]] = row
        for i, row in enumerate(cocycles[s]):
            m[i][starts[1]:starts[1] + sizes[1]] = row
        gens[sym] = m
    h = Matrix.from_rows(field, _unitriangular(field, rng, n, upper=True))
    if not keep_e1:
        h = Matrix.from_rows(field, _unitriangular(field, rng, n, upper=False)) * h
    return mk(field, gens).conjugate_by(h)


def conjugated_diagonal(field, rng, n, symbols=("a", "b")):
    """A seeded conjugate of a diagonal tuple, with its diagonals.

    The conjugator is a lower times an upper unitriangular matrix, as in
    :func:`block_tuple`.
    """
    zero = field.zero()
    diags = [[_draw_scalar(field, rng, nonzero=True) for _ in range(n)] for _ in symbols]
    gens = {sym: [[d[i] if i == j else zero for j in range(n)] for i in range(n)]
            for sym, d in zip(symbols, diags)}
    h = (Matrix.from_rows(field, _unitriangular(field, rng, n, upper=False))
         * Matrix.from_rows(field, _unitriangular(field, rng, n, upper=True)))
    return mk(field, gens).conjugate_by(h), diags


def build_floor_corpus(seed: int = 8) -> list:
    """``(name, rep)`` pairs: every floor shape over Q5, F3(T) and R, and the fault tuple."""
    out = []
    for tag, field in (("Q5", Field.padic(5)), ("F3T", Field.funcfield(3)),
                       ("R", Field.real())):
        rng = random.Random(f"floor:{tag}:{seed}")
        for name, sizes, split, keep_e1 in FLOOR_SHAPES:
            out.append((f"{tag}:{name}", block_tuple(field, rng, sizes, split, keep_e1)))
    fault = mk(Field.padic(5), {"a": FAULT_COMPANIONS})
    out.append(("Q5:fault-unconjugated", fault))
    out.append(("Q5:fault", conj(fault, FAULT_CONJUGATOR)))
    return out


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture(scope="session")
def exact_corpus():
    return build_exact_corpus()


@pytest.fixture(scope="session")
def real_corpus():
    return build_real_corpus()


@pytest.fixture(scope="session")
def floor_corpus():
    return build_floor_corpus()
