"""Seeded inputs for the three workloads, each labelled by its construction.

A workload is a fixed list of *slots*; the slot fixes the command, the
field, the size and the block shape of a job, and the seed only draws its
entries.  So every seed gives the same job mix and nearly the same work,
which keeps the run-to-run spread of the end-to-end metrics small.

Every label (cr or not, block sizes, class of a family member, attained
or diverged, closed-form lengths) follows from the construction and is
confirmed with :mod:`exact`, never with the program under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from exact import (
    Field,
    charpoly,
    class_invariant,
    conjugate,
    identity,
    inverse,
    matmul,
    solvable,
    splitting_system,
    word_span_rank,
)

R = Field("real")
Q5 = Field("padic", 5)
F3T = Field("funcfield", 3)
FIELD_TAGS = {"real": "R", "padic": "Q5", "funcfield": "F3T"}
SYMBOLS = ("a", "b")


@dataclass
class Job:
    """One operation: a CLI command on generated input files."""

    id: str
    kind: str                      # command, field, size and shape; seed-free
    command: str
    inputs: dict                   # JobSpec field ("input", "input2") -> JSON object
    options: dict = dc_field(default_factory=dict)   # other JobSpec fields
    expect: dict = dc_field(default_factory=dict)    # construction labels
    fault: str | None = None       # the known program fault this job reproduces
    fails_with: tuple = ()         # the exact problems that fault gives; any other is wrong


# ---------------------------------------------------------------------------
# random scalars and matrices


def scalar(f: Field, rng: random.Random, nonzero=True):
    """A small scalar: an int in [-3, 3], or a polynomial of degree <= 1 over F_p."""
    while True:
        if f.kind == "funcfield":
            x = f.of((rng.randrange(f.p), rng.randrange(f.p)))
        else:
            x = f.of(rng.randint(-3, 3))
        if x or not nonzero:
            return x


def expand(slots):
    """Slots repeated by their copy count (their last field), copy by copy."""
    return [slot for copy in range(max(s[-1] for s in slots)) for slot in slots if copy < slot[-1]]


def random_matrix(f: Field, rng, rows, cols):
    return [[scalar(f, rng, nonzero=False) for _ in range(cols)] for _ in range(rows)]


def abs_irreducible_block(f: Field, rng, k, symbols=SYMBOLS):
    """k x k generators whose words span all k x k matrices (Burnside)."""
    if k == 1:
        return [[[scalar(f, rng)]] for _ in symbols]
    while True:
        mats = [random_matrix(f, rng, k, k) for _ in symbols]
        if all(charpoly(f, m)[-1] for m in mats) and word_span_rank(f, mats) == k * k:
            return mats


def unimodular(f: Field, rng, n, steps=None):
    """A permutation times elementary matrices with integer entries: det = +-1.

    Integer (constant) entries keep conjugated entries of low degree over
    F_p(T), so the cost of a job depends on its slot more than on its seed.
    """
    h = identity(f, n)
    perm = list(range(n))
    rng.shuffle(perm)
    h = [h[i] for i in perm]
    for _ in range(n if steps is None else steps):
        i, j = rng.sample(range(n), 2)
        c = f.of(rng.choice((-2, -1, 1, 2)))
        h = [list(r) for r in h]
        h[i] = [x + c * y for x, y in zip(h[i], h[j])]
    return h


def assemble(f: Field, blocks, cocycles, symbols=SYMBOLS):
    """Block upper triangular generators from diagonal blocks and above-diagonal data.

    ``blocks[b][s]`` is generator s of block b; ``cocycles[(b, c)][s]`` the
    block in row b, column c > b (zero when missing).
    """
    sizes = [len(bl[0]) for bl in blocks]
    n = sum(sizes)
    starts = [sum(sizes[:b]) for b in range(len(sizes))]
    gens = []
    for s in range(len(symbols)):
        m = [[f.zero()] * n for _ in range(n)]
        for b, bl in enumerate(blocks):
            for i in range(sizes[b]):
                for j in range(sizes[b]):
                    m[starts[b] + i][starts[b] + j] = bl[s][i][j]
        for (b, c), data in cocycles.items():
            for i in range(sizes[b]):
                for j in range(sizes[c]):
                    m[starts[b] + i][starts[c] + j] = data[s][i][j]
        gens.append(m)
    return gens


def nonsplit_cocycle(f: Field, rng, top, bot, symbols=SYMBOLS):
    """Off-diagonal data for which A_s X - X D_s = C_s has no solution."""
    while True:
        cocycle = [random_matrix(f, rng, len(top[0]), len(bot[0])) for _ in symbols]
        if not solvable(f, *splitting_system(f, top, bot, cocycle)):
            return cocycle


def rep_json(f: Field, gens, symbols=SYMBOLS) -> dict:
    return {
        "field": f.to_json(),
        "n": len(gens[0]),
        "generators": {s: [[f.format(x) for x in row] for row in m]
                       for s, m in zip(symbols, gens)},
    }


def conjugated(f: Field, rng, gens):
    h = unimodular(f, rng, len(gens[0]))
    h_inv = inverse(f, h)
    return [conjugate(f, m, h, h_inv) for m in gens]


# ---------------------------------------------------------------------------
# decide: analyze and semisimplify


def block_tuple(f, rng, sizes, split):
    """Block upper triangular pair with irreducible blocks; non-split above block 0."""
    blocks = [abs_irreducible_block(f, rng, k) for k in sizes]
    cocycles = {}
    if not split:
        cocycles[(0, 1)] = nonsplit_cocycle(f, rng, blocks[0], blocks[1])
    return assemble(f, blocks, cocycles)


# (command, field, block sizes, split, copies per pass).  Non-split slots
# have two blocks.  The copies weight the mix: irreducible F3(T) 2x2 jobs,
# whose cost hardly depends on the seed, sit in the middle of the per-job
# distribution, and heavy jobs are few.  Shapes the
# program misjudges on some seeds are left out (see CHANGES.md, FOUND):
# every real split shape ((1, 1), (2, 2) and (1, 1, 2) all failed on some
# seeds), real non-split (2, 1) and Q5 non-split (3, 2).
DECIDE_SLOTS = (
    ("analyze", R, (2,), True, 2),
    ("analyze", R, (1, 2), False, 4),
    ("semisimplify", R, (1, 2), False, 6),
    ("analyze", R, (2, 2), False, 4),
    ("analyze", Q5, (1, 1), False, 4),
    ("analyze", Q5, (2,), True, 4),
    ("semisimplify", Q5, (1, 2), False, 4),
    ("analyze", Q5, (2, 1), True, 4),
    ("analyze", Q5, (2, 2), False, 4),
    ("semisimplify", Q5, (1, 3), True, 4),
    ("analyze", Q5, (2, 3), True, 2),
    ("analyze", F3T, (1, 1), False, 6),
    ("semisimplify", F3T, (2,), True, 12),
    ("analyze", F3T, (1, 2), True, 4),
    ("analyze", F3T, (2, 1), False, 6),
    ("semisimplify", F3T, (2, 2), True, 2),
)


def decide_fault_job() -> Job:
    """A fixed conjugate of blockdiag(C(x^2-2), C(x^2-3)) over Q5, one generator.

    The summands are irreducible but not absolutely irreducible, and the
    program's invariant-subspace battery has no complete test for that case:
    it reports the tuple irreducible and a single composition block.
    """
    f = Q5
    comp = [[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 3], [0, 0, 1, 0]]
    h = [[-1, 2, -2, 1], [-2, -1, 0, -1], [-1, 1, 1, 1], [-2, -1, 1, 1]]
    a = conjugate(f, [[f.of(x) for x in r] for r in comp], [[f.of(x) for x in r] for r in h])
    return Job(
        id="decide/fault", kind="analyze Q5 n4 split (2, 2) 1-gen", command="analyze",
        inputs={"input": rep_json(f, [a], ("a",))},
        expect={"blocks": [2, 2], "split": True},
        fault="reptheory.invariant_subspace_candidates misses summands that are "
              "not absolutely irreducible",
        fails_with=("nonparabolic=True for blocks [2, 2]",
                    "composition blocks [4], construction [2, 2]"),
    )


def decide(seed: int) -> list:
    rng = random.Random(f"decide:{seed}")
    jobs = []
    for idx, (command, f, sizes, split, _) in enumerate(expand(DECIDE_SLOTS)):
        gens = conjugated(f, rng, block_tuple(f, rng, sizes, split))
        shape = "irreducible" if len(sizes) == 1 else ("split" if split else "nonsplit")
        jobs.append(Job(
            id=f"decide/{idx:02d}",
            kind=f"{command} {FIELD_TAGS[f.kind]} n{sum(sizes)} {shape} {sizes}",
            command=command,
            inputs={"input": rep_json(f, gens)},
            expect={"blocks": list(sizes), "split": split},
        ))
    jobs.append(decide_fault_job())
    return jobs


# ---------------------------------------------------------------------------
# classify: separate on families


def _summands(f, rng, recipe, symbols):
    """Diagonal blocks of a semisimple class; equal names give equal summands."""
    drawn = {}
    for name, k in recipe:
        if name not in drawn:
            drawn[name] = abs_irreducible_block(f, rng, k, symbols)
    return [drawn[name] for name, _ in recipe]


def _member(f, rng, summands, nonsplit, symbols):
    """A conjugate of the direct sum, or of a non-split extension of its first two summands."""
    cocycles = {}
    if nonsplit:
        cocycles[(0, 1)] = nonsplit_cocycle(f, rng, summands[0], summands[1], symbols)
    return conjugated(f, rng, assemble(f, summands, cocycles, symbols))


S, U, X, Y = ("S", 2), ("U", 2), ("x", 1), ("y", 1)

# (field, generator count, class recipes, members as (class, non-split?)).
# Classes: S, U irreducible of dimension 2; x, y of dimension 1.  Isotypic
# classes (x+x, x+x+x) have dim Hom > 1; over F3(T) the class x+x+x has
# every word trace 3 * x(w) = 0, so only an intertwiner separates it.
# Seven cheap Q5 families put the median job among alike jobs; the two
# F3(T) families carry most of the time.
CLASSIFY_SLOTS = (
    (Q5, 2, ((S,), (X, Y), (X, X)), ((0, False), (1, False), (1, True), (2, True))),
    (Q5, 2, ((X, X), (X, Y)), ((0, True), (1, False), (0, False), (1, True))),
    (Q5, 2, ((S,), (U,)), ((0, False), (1, False), (0, False), (1, False))),
    (Q5, 2, ((X, Y), (X, X)), ((0, True), (1, True), (0, False), (1, False))),
    (Q5, 2, ((S,), (X, X)), ((0, False), (1, True), (1, False), (0, False))),
    (Q5, 2, ((S,), (X, Y)), ((0, False), (1, True), (0, False), (1, False))),
    (Q5, 2, ((X, X), (Y, Y), (S,)), ((0, True), (1, True), (2, False), (0, False))),
    (F3T, 1, ((X, X, X), (X, X, X)), ((0, False), (0, True), (1, True), (1, False), (0, True))),
    (F3T, 2, ((S,), (X, Y)), ((0, False), (1, False), (1, True), (0, False))),
)


def family_job(job_id, rng, f, ngens, recipes, members) -> Job:
    """``separate`` on conjugates and non-split extensions of distinct semisimple classes."""
    symbols = SYMBOLS[:ngens]
    while True:
        classes = [_summands(f, rng, r, symbols) for r in recipes]
        invariants = [class_invariant(f, assemble(f, c, {}, symbols)) for c in classes]
        if len(set(invariants)) == len(invariants):
            break
    family = [rep_json(f, _member(f, rng, classes[c], nonsplit, symbols), symbols)
              for c, nonsplit in members]
    return Job(
        id=job_id,
        kind=f"separate {FIELD_TAGS[f.kind]} n{family[0]['n']} x{len(members)} {ngens}-gen",
        command="separate",
        inputs={"input": {"family": family}},
        expect={"labels": [c for c, _ in members]},
    )


def classify(seed: int) -> list:
    rng = random.Random(f"classify:{seed}")
    return [family_job(f"classify/{idx:02d}", rng, *slot) for idx, slot in enumerate(CLASSIFY_SLOTS)]


# ---------------------------------------------------------------------------
# geometry: minimize, tree, counterexample, degenerate


def _minimize_diag(rng, n):
    """Conjugated diagonal pair: cr, with a closed-form minimum displacement."""
    diags = [[rng.choice((-3, -2, 2, 3)) * rng.choice((1, 1, 2)) for _ in range(n)]
             for _ in SYMBOLS]
    gens = [[[R.of(d[i] if i == j else 0) for j in range(n)] for i in range(n)] for d in diags]
    return conjugated(R, rng, gens), {"status": "ATTAINED", "diagonals": diags}


def _minimize_nonsplit(rng, n):
    """Non-split upper triangular pair of lines, left unconjugated: not cr.

    Conjugated non-split inputs are left out: the minimiser raises on about
    a quarter of them (see :func:`geometry_fault_job`).
    """
    return block_tuple(R, rng, (1,) * n, False), {"status": "DIVERGED"}


# Geometry slots, each with its copies per pass.  Minimisation time moves
# most with the seed, so it gets few heavy jobs; the counterexample jobs,
# whose cost hardly depends on the seed, sit in the middle of the per-job
# distribution.  Each of symspace (minimize), tree (tree, counterexample)
# and parabolic (degenerate) takes at least a fifth of the time.
# Conjugated diagonal 3x3 pairs are left out (the minimiser called one of
# them DIVERGED), and so are conjugated irreducible-plus-line pairs, whose
# minimisation took up to 6 s on some seeds against 0.1 s on most.
MINIMIZE_SLOTS = ((_minimize_diag, 2, 8), (_minimize_nonsplit, 2, 4), (_minimize_nonsplit, 3, 4))
TREE_SLOTS = ((2, 6, 2), (3, 4, 4), (5, 3, 2), (2, 5, 2))                 # (p, radius)
COUNTEREXAMPLE_SLOTS = ((2, 5, 4), (3, 3, 8), (5, 2, 8), (2, 4, 4))       # (p, radius)
DEGENERATE_SLOTS = ((Q5, (1, 1), 4), (Q5, (2, 1), 4), (Q5, (1, 2), 4),
                    (F3T, (1, 1), 4), (F3T, (1, 2), 2), (F3T, (2, 1), 2))


def geometry_fault_job() -> Job:
    """A fixed conjugate of a non-split real 3x3 pair; the minimiser raises on it.

    ``symspace._escape_probe`` reaches a singular conjugator and
    ``np.linalg.inv`` raises ``LinAlgError`` inside ``_objective``.
    """
    upper = [[[-3, 1, 0], [0, -3, 0], [0, 0, 3]], [[-1, 3, 0], [0, -1, 0], [0, 0, 1]]]
    h = [[0, 1, 0], [0, -1, 1], [1, -1, 0]]
    h = [[R.of(x) for x in r] for r in h]
    gens = [conjugate(R, [[R.of(x) for x in r] for r in m], h) for m in upper]
    return Job(
        id="geometry/fault", kind="minimize R n3 nonsplit conjugated", command="minimize",
        inputs={"input": rep_json(R, gens)}, expect={"status": "DIVERGED"},
        fault="symspace._escape_probe -> _objective -> np.linalg.inv raises "
              "LinAlgError on a singular conjugator",
        fails_with=("LinAlgError: Singular matrix",),
    )


def _tree_matrix(f, rng):
    """k diag(p^e1 u1, p^e2 u2) k^-1 with det k = +-1 or +-p.

    The axis (or fixed set) of the diagonal matrix passes through the
    standard vertex and k moves it by at most one edge, so the minimum
    displacement lies inside every ball radius the workload uses.
    """
    p = f.p
    units = [u for u in range(-4, 5) if u and u % p]
    d = [[f.of(p) ** rng.randint(-2, 2) * rng.choice(units), f.zero()],
         [f.zero(), f.of(p) ** rng.randint(-2, 2) * rng.choice(units)]]
    k = [[f.of(p ** rng.randint(0, 1)), f.of(rng.randint(0, p - 1))], [f.zero(), f.one()]]
    k = matmul(unimodular(f, rng, 2), k)
    return conjugate(f, d, inverse(f, k), k)


def geometry(seed: int) -> list:
    rng = random.Random(f"geometry:{seed}")
    jobs = []

    def add(kind, command, inputs, options=None, expect=None):
        jobs.append(Job(id=f"geometry/{len(jobs):02d}", kind=kind, command=command,
                        inputs=inputs, options=options or {}, expect=expect or {}))

    for make, n, _ in expand(MINIMIZE_SLOTS):
        gens, expect = make(rng, n)
        shape = make.__name__.split("_")[-1]
        add(f"minimize R n{n} {shape}", "minimize", {"input": rep_json(R, gens)}, expect=expect)
    for p, radius, _ in expand(TREE_SLOTS):
        f = Field("padic", p)
        gens = [_tree_matrix(f, rng) for _ in SYMBOLS]
        add(f"tree Q{p} r{radius}", "tree", {"input": rep_json(f, gens)},
            options={"radius": radius})
    for p, radius, _ in expand(COUNTEREXAMPLE_SLOTS):
        e = rng.randint(1, 2)
        u = rng.choice([u for u in range(1, 8) if u % p])
        add(f"counterexample p{p} r{radius}", "counterexample", {},
            options={"p": p, "t": str(Fraction(u, p ** e)), "radius": radius},
            expect={"v_abs": e})
    for f, sizes, _ in expand(DEGENERATE_SLOTS):
        blocks = [abs_irreducible_block(f, rng, k) for k in sizes]
        levi = assemble(f, blocks, {})
        lower_data = [random_matrix(f, rng, sizes[1], sizes[0]) for _ in SYMBOLS]
        upper_data = [random_matrix(f, rng, sizes[0], sizes[1]) for _ in SYMBOLS]
        upper = assemble(f, blocks, {(0, 1): upper_data})
        lower = [[list(r) for r in m] for m in levi]
        for s in range(len(SYMBOLS)):
            for i in range(sizes[1]):
                for j in range(sizes[0]):
                    lower[s][sizes[0] + i][j] = lower_data[s][i][j]
        add(f"degenerate {FIELD_TAGS[f.kind]} n{sum(sizes)}", "degenerate",
            {"input": rep_json(f, lower), "input2": rep_json(f, upper)},
            options={"imax": 24, "blocks": ",".join(map(str, sizes))})
    jobs.append(geometry_fault_job())
    return jobs


WORKLOADS = {"decide": decide, "classify": classify, "geometry": geometry}


def setup_job(workload: str) -> Job:
    """The smallest input of the workload's main command, the same for every seed.

    Cold CLI runs on it give ``setup_s``: ``analyze`` on an irreducible real
    pair, ``separate`` on a Q5 family of three 2x2 members (two classes, one
    member a non-split extension), ``minimize`` on a conjugated diagonal
    real pair.  Its report is checked like any job's.
    """
    rng = random.Random(f"{workload}:setup")
    if workload == "decide":
        gens = conjugated(R, rng, block_tuple(R, rng, (2,), True))
        return Job(id="decide/setup", kind="analyze R n2 irreducible (2,)", command="analyze",
                   inputs={"input": rep_json(R, gens)}, expect={"blocks": [2], "split": True})
    if workload == "classify":
        return family_job("classify/setup", rng, Q5, 2, ((S,), (X, Y)),
                          ((0, False), (1, True), (0, False)))
    gens, expect = _minimize_diag(rng, 2)
    return Job(id="geometry/setup", kind="minimize R n2 diag", command="minimize",
               inputs={"input": rep_json(R, gens)}, expect=expect)
