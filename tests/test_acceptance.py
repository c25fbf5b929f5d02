"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.
"""

import math
import random
import time

import numpy as np

from localrep import (
    ATTAINED,
    BlockStructure,
    DIVERGED,
    Field,
    FundamentalSequence,
    Matrix,
    Representation,
    build_neighbors,
    contract_limit,
    grad_objective,
    is_cr,
    minimize_displacement,
    product_counterexample,
    same_point_in_Xcr,
    semisimplify,
    separation_experiment,
    translation_length,
)
from localrep.quotient import project
from localrep.reptheory import fingerprints_match
from localrep.symspace import _action_matrices, _objective, _sym_exp
from localrep.tree import TreeVertex, ball, neighbors

from conftest import oracle_is_cr, trace_form_is_cr

Q5 = Field.padic(5)
R = Field.real()


def report(number: int, description: str, ok: bool, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {number}: {status} - {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_cr_oracle_equivalence(exact_corpus):
    """is_cr agrees with the exhaustive splitting oracle on all 60 instances,
    and with the trace-form radical oracle over characteristic zero."""
    t0 = time.time()
    ok = True
    for entry in exact_corpus:
        verdict = is_cr(entry.rep)
        if verdict != entry.cr or oracle_is_cr(entry.rep) != verdict:
            ok = False
            break
        if entry.rep.field.kind == "padic" and trace_form_is_cr(entry.rep) != verdict:
            ok = False
            break
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    report(1, "cr-oracle equivalence on the 60-instance corpus", ok,
           f"{elapsed:.1f}s")


def test_criterion_2_semisimplification_closure_witness(exact_corpus):
    """Conjugation by torus powers contracts every corpus instance onto its
    block-diagonal reduction with exact per-step valuation increment >= 1."""
    ok = True
    for entry in exact_corpus:
        rho = entry.rep
        ss = semisimplify(rho)
        flag = ss.flag
        blocks = BlockStructure(rho.n, flag.block_sizes)
        seq = FundamentalSequence.default(blocks, rho.field)
        h = flag.basis_change
        hinv = h.inv()
        for s, m in rho.gens.items():
            rpt = contract_limit(hinv * m * h, seq, 8)
            if rpt.verdict != "CONVERGES_TO_LEVI":
                ok = False
            if not rpt.stationary:
                if any(any(inc < 1 for inc in e.increments) for e in rpt.entries):
                    ok = False
            if rpt.limit != hinv * ss.rho_ss.gens[s] * h:
                ok = False
        if not ok:
            print("  failing instance:", entry.name)
            break
    report(2, "contraction onto the Levi part with unit valuation increments", ok)


def _degeneration_pairs(count: int = 20):
    """Constructed opposite-parabolic pairs with equal block diagonal parts."""
    rng = random.Random(0xA15)
    pairs = []
    units2 = [2, 3, 7, "1/5", 4]
    while len(pairs) < count:
        kind = len(pairs) % 3
        if kind == 0:
            blocks = BlockStructure(2, (1, 1))
            c1, c2 = rng.sample(units2, 2)
            r = {"a": Matrix.diagonal(Q5, [c1, c2]),
                 "b": Matrix.diagonal(Q5, [rng.choice(units2), rng.choice(units2)])}
        elif kind == 1:
            blocks = BlockStructure(3, (2, 1))
            c = rng.choice(units2)
            r = {"a": Matrix.from_rows(Q5, [[0, 1, 0], [1, 0, 0], [0, 0, c]]),
                 "b": Matrix.from_rows(Q5, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])}
        else:
            blocks = BlockStructure(3, (1, 1, 1))
            cs = rng.sample(units2, 3)
            r = {"a": Matrix.diagonal(Q5, cs),
                 "b": Matrix.diagonal(Q5, [rng.choice(units2) for _ in range(3)])}
        n = blocks.n
        b = blocks.boundaries

        def random_unitriangular(lower: bool) -> Matrix:
            rows = [[Q5.coerce(1 if i == j else 0) for j in range(n)] for i in range(n)]
            for bi in range(blocks.k):
                for bj in range(blocks.k):
                    if (lower and bi <= bj) or (not lower and bi >= bj):
                        continue
                    for i in range(b[bi], b[bi + 1]):
                        for j in range(b[bj], b[bj + 1]):
                            rows[i][j] = Q5.coerce(rng.randint(-2, 2))
            return Matrix(Q5, tuple(tuple(row) for row in rows))

        gens_minus, gens_plus = {}, {}
        for s in r:
            u = random_unitriangular(lower=True)
            npart = random_unitriangular(lower=False)
            gens_minus[s] = u * r[s]
            gens_plus[s] = r[s] * npart
        pairs.append((
            Representation(Q5, gens_minus),
            Representation(Q5, gens_plus),
            blocks,
        ))
    return pairs


def test_criterion_3_degeneration_round_trip():
    """Both limits of each constructed pair verify, and the pair lands on the
    same point of the separated quotient."""
    ok = True
    for rho_minus, rho_plus, blocks in _degeneration_pairs(20):
        seq = FundamentalSequence.default(blocks, Q5)
        trace = build_neighbors(rho_minus, rho_plus, blocks, seq, 8)
        if not trace.big_cell_ok:
            ok = False
            break
        if same_point_in_Xcr(rho_minus, rho_plus) is not True:
            ok = False
            break
    report(3, "degeneration round trip on 20 constructed pairs", ok)


def test_criterion_4_gradient_correctness():
    """Analytic directional derivative matches central finite differences."""
    rng = np.random.default_rng(0x5EED)
    worst = 0.0
    checked = 0
    while checked < 50:
        n = int(rng.integers(2, 4))
        gens = {}
        for sym in ("a", "b"):
            m = rng.normal(size=(n, n))
            while abs(np.linalg.det(m)) < 0.3:
                m = rng.normal(size=(n, n))
            gens[sym] = m.tolist()
        rho = Representation.from_entries(R, gens)
        h = np.eye(n) + 0.1 * rng.normal(size=(n, n))
        if abs(np.linalg.det(h)) < 0.1:
            continue
        H = rng.normal(size=(n, n))
        H = 0.5 * (H + H.T)
        H -= np.trace(H) / n * np.eye(n)
        analytic = grad_objective(rho, h, H)
        mats = list(_action_matrices(rho).values())
        eps = 1e-5
        numeric = (_objective(mats, h @ _sym_exp(eps * H))
                   - _objective(mats, h @ _sym_exp(-eps * H))) / (2 * eps)
        if abs(numeric) < 1e-3:
            continue
        worst = max(worst, abs(analytic - numeric) / abs(numeric))
        checked += 1
    ok = worst <= 1e-5
    report(4, "gradient matches finite differences on 50 random triples", ok,
           f"worst rel err {worst:.2e}")


def test_criterion_5_dichotomy_on_labeled_corpus(real_corpus):
    """ATTAINED exactly on the cr half, DIVERGED on the rest, and the class
    invariant equals that of the reduction within 1e-3."""
    t0 = time.time()
    ok = True
    for entry in real_corpus:
        rpt = minimize_displacement(entry.rep)
        expected = ATTAINED if entry.cr else DIVERGED
        if rpt.attained != expected:
            print("  status mismatch:", entry.name, rpt.attained)
            ok = False
            continue
        ss = semisimplify(entry.rep).rho_ss
        rpt_ss = minimize_displacement(ss)
        if abs(rpt.lambda_est - rpt_ss.lambda_est) > 1e-3:
            print("  lambda mismatch:", entry.name, rpt.lambda_est, rpt_ss.lambda_est)
            ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 300.0
    report(5, "attainment dichotomy and lambda agreement on 20 labeled instances",
           ok, f"{elapsed:.1f}s")


def test_criterion_6_closed_form_lambda():
    rho = Representation.from_entries(R, {"a": [[math.e, 0], [0, 1 / math.e]]})
    rpt = minimize_displacement(rho)
    ok = rpt.attained == ATTAINED and abs(rpt.lambda_est - 2 * math.sqrt(2)) <= 1e-4
    report(6, "closed-form minimum displacement 2*sqrt(2)", ok,
           f"got {rpt.lambda_est:.6f}")


def test_criterion_7_tree_metrics():
    """Lattice-class distance equals BFS distance on radius-4 balls, and the
    translation length of diag(1/p, p) is 2 with stabilisation."""
    ok = True
    for p in (2, 3, 5):
        center = TreeVertex.standard(p)
        order, dists = ball(center, 4)
        # BFS all-pairs oracle from the neighbour relation
        index = {v: i for i, v in enumerate(order)}
        adj = [[] for _ in order]
        for v in order:
            for w in neighbors(v):
                if w in index:
                    adj[index[v]].append(index[w])
        inverses = [v.basis.inv() for v in order]
        for i, u in enumerate(order):
            # BFS from u
            oracle = {i: 0}
            frontier = [i]
            while frontier:
                nxt = []
                for a in frontier:
                    for bdx in adj[a]:
                        if bdx not in oracle:
                            oracle[bdx] = oracle[a] + 1
                            nxt.append(bdx)
                frontier = nxt
            for j in range(i + 1, len(order)):
                got = (inverses[i] * order[j].basis)
                spread = got.field.valuation(got.det()) - 2 * got.min_valuation()
                if j in oracle and spread != oracle[j]:
                    ok = False
        field = Field.padic(p)
        g = Matrix.from_rows(field, [[f"1/{p}", 0], [0, p]])
        ell4, _ = translation_length(g, 4)
        ell5, _ = translation_length(g, 5)
        if not (ell4 == ell5 == 2):
            ok = False
    report(7, "tree metric equals BFS distance; translation length stabilises", ok)


def test_criterion_8_counterexample_reproduced():
    ok = True
    for p, t in ((5, "1/5"), (3, "1/9")):
        rpt = product_counterexample(p, t, imax=12, radius=4)
        v_abs = -rpt.v_t
        ok = ok and rpt.verdict_a and rpt.min_displacement_on_y == 2 * v_abs
        ok = ok and rpt.verdict_b
        ok = ok and all(inc == 2 * v_abs for inc in rpt.increments)
        ok = ok and rpt.valuation_sequence[-1] > 20
        ok = ok and rpt.verdict_c
    report(8, "product-of-trees counterexample for (5, 1/5) and (3, 1/9)", ok)


def _mixed_family():
    members = [
        Representation.from_entries(Q5, {"a": [[2, 0], [0, 3]], "b": [[7, 0], [0, 4]]}),
        Representation.from_entries(Q5, {"a": [[2, 1], [0, 3]], "b": [[7, 1], [0, 4]]}),
        Representation.from_entries(Q5, {"a": [[2, 0], [0, 3]], "b": [[7, 0], [0, 4]]}).conjugate_by(
            Matrix.from_rows(Q5, [[1, 1], [1, 2]])),
        Representation.from_entries(Q5, {"a": [[3, 0], [0, 2]], "b": [[4, 0], [0, 7]]}),
        Representation.from_entries(Q5, {"a": [[2, 0], [0, 5]], "b": [[7, 0], [0, 4]]}),
        Representation.from_entries(Q5, {"a": [[0, 1], [1, 0]], "b": [[1, 1], [0, 1]]}),
    ]
    labels = [0, 0, 0, 0, 1, 2]
    return members, labels


def test_criterion_9_quotient_consistency():
    """Separation matrix matches construction labels; the projection is
    invariant under random conjugations."""
    members, labels = _mixed_family()
    result = separation_experiment(members)
    ok = result.symmetric and result.transitive
    for i in range(len(members)):
        for j in range(len(members)):
            expected = labels[i] == labels[j]
            ok = ok and (result.matrix[i][j] is expected)

    rng = random.Random(0x5EED)
    for rho in members:
        count = 0
        while count < 20:
            rows = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
            h = Matrix.from_rows(Q5, rows)
            if Q5.is_zero(h.det()):
                continue
            if same_point_in_Xcr(rho, rho.conjugate_by(h)) is not True:
                ok = False
            count += 1

    # real-field clause: fingerprints of the projected class stay within 1e-6
    real_member = Representation.from_entries(
        R, {"a": [[2, 0], [0, 0.5]], "b": [[3, 0], [0, 1 / 3]]})
    base_fp = project(real_member).fingerprint
    for rows in ([[1, 1], [0, 1]], [[2, 1], [1, 1]], [[1, 0], [1, 1]]):
        h = Matrix.from_rows(R, rows)
        fp = project(real_member.conjugate_by(h)).fingerprint
        ok = ok and fingerprints_match(R, base_fp, fp)

    report(9, "separation matrix matches labels; projection is conjugation-invariant", ok)
