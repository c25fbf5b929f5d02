import math
import random

import numpy as np
import pytest

from localrep import (
    ATTAINED,
    DIVERGED,
    MAXITER,
    Field,
    Matrix,
    Representation,
    SPDPoint,
    composition_series,
    displacement,
    dist,
    grad_objective,
    is_cr,
    minimize_displacement,
    semisimplify,
)
from localrep.errors import NotRealFieldError, SingularMatrixError
from localrep.reptheory import _block_conjugator, _series
from localrep.symspace import (
    _action_matrices,
    _block_diagonal,
    _descend,
    _floats,
    _objective,
    _sqrt_inv_sqrt,
    _sym_exp,
)

from conftest import (
    GEOMETRY_FAULT_CONJUGATOR,
    GEOMETRY_FAULT_UPPER,
    _abs_irreducible_block,
    block_tuple,
    conj,
    conjugated_diagonal,
)

R = Field.real()
E = math.e


def rep(gens):
    return Representation.from_entries(R, gens)


def random_spd(rng, n):
    a = rng.normal(size=(n, n))
    m = a @ a.T + 0.5 * np.eye(n)
    return SPDPoint.normalized(m)


def act(g, x):
    return SPDPoint.normalized(g @ x.m @ g.T)


class TestSPDPoint:
    def test_refuses_determinant_other_than_one(self):
        with pytest.raises(ValueError, match="determinant"):
            SPDPoint(2 * np.eye(2))

    def test_accepts_an_ill_conditioned_unit_determinant(self):
        # condition 1e8: the rounding of its log det is above 1e-9
        q, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(4, 4)))
        m = (q * np.array([1e4, 1e-4, 3.0, 1 / 3])) @ q.T
        assert SPDPoint.normalized(m).n == 4


class TestDist:
    def test_zero_on_diagonal(self):
        x = SPDPoint.identity(3)
        assert dist(x, x) == 0.0

    def test_closed_form(self):
        y = SPDPoint(np.diag([E ** 2, E ** -2]))
        assert abs(dist(SPDPoint.identity(2), y) - 2 * math.sqrt(2)) < 1e-12

    def test_action_is_isometric(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            g = rng.normal(size=(2, 2))
            if abs(np.linalg.det(g)) < 0.2:
                continue
            g /= abs(np.linalg.det(g)) ** 0.5
            x, y = random_spd(rng, 2), random_spd(rng, 2)
            assert abs(dist(act(g, x), act(g, y)) - dist(x, y)) < 1e-9

    def test_triangle_inequality_thousand(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            x, y, z = (random_spd(rng, 2) for _ in range(3))
            assert dist(x, z) <= dist(x, y) + dist(y, z) + 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            x, y = random_spd(rng, 3), random_spd(rng, 3)
            assert abs(dist(x, y) - dist(y, x)) < 1e-10


class TestDisplacement:
    def test_identity_rep_is_zero(self):
        rho = rep({"a": [[1, 0], [0, 1]]})
        rng = np.random.default_rng(2)
        for _ in range(5):
            assert displacement(rho, random_spd(rng, 2)) < 1e-7

    def test_closed_form(self):
        rho = rep({"a": [[E, 0], [0, 1 / E]]})
        assert abs(displacement(rho, SPDPoint.identity(2)) - 2 * math.sqrt(2)) < 1e-12

    def test_convex_along_geodesics(self):
        rho = rep({"a": [[2, 1], [0, 0.5]], "b": [[0, 1], [1, 0]]})
        rng = np.random.default_rng(9)
        for _ in range(100):
            x, y = random_spd(rng, 2), random_spd(rng, 2)
            xw, xv = np.linalg.eigh(x.m)
            x_half = (xv * np.sqrt(xw)) @ xv.T
            x_inv_half = (xv / np.sqrt(xw)) @ xv.T
            inner = x_inv_half @ y.m @ x_inv_half
            w, v = np.linalg.eigh(inner)
            mid_inner = (v * np.sqrt(w)) @ v.T
            mid = SPDPoint.normalized(x_half @ mid_inner @ x_half)
            lhs = displacement(rho, mid)
            rhs = 0.5 * (displacement(rho, x) + displacement(rho, y))
            assert lhs <= rhs + 1e-9

    def test_rejects_exact_fields(self):
        with pytest.raises(NotRealFieldError):
            displacement(
                Representation.from_entries(Field.padic(5), {"a": [[1, 0], [0, 1]]}),
                SPDPoint.identity(2))


class TestGradient:
    def test_zero_for_identity_rep(self):
        rho = rep({"a": [[1, 0], [0, 1]]})
        h = np.eye(2) + 0.1
        H = np.array([[1.0, 0.3], [0.3, -1.0]])
        assert abs(grad_objective(rho, h, H)) < 1e-12

    def test_zero_direction(self):
        rho = rep({"a": [[2, 1], [0, 0.5]]})
        assert grad_objective(rho, np.eye(2), np.zeros((2, 2))) == 0.0

    def test_invariant_under_scaling_the_conjugator(self):
        rho = rep({"a": [[2, 1, 0], [0, 0.5, 1], [1, 0, 1]],
                   "b": [[0, 1, 0], [0, 0, 1], [1, 0, 0]]})
        H = np.diag([1.0, -0.5, -0.5])
        at_identity = grad_objective(rho, np.eye(3), H)
        for c in (1e-5, 1e5):
            assert abs(grad_objective(rho, c * np.eye(3), H) - at_identity) <= 1e-12
        with pytest.raises(SingularMatrixError):
            grad_objective(rho, np.diag([1.0, 1.0, 0.0]), H)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(2, 4))
            gens = {}
            for sym in ("a", "b"):
                m = rng.normal(size=(n, n))
                while abs(np.linalg.det(m)) < 0.3:
                    m = rng.normal(size=(n, n))
                gens[sym] = m.tolist()
            rho = rep(gens)
            h = np.eye(n) + 0.1 * rng.normal(size=(n, n))
            H = rng.normal(size=(n, n))
            H = 0.5 * (H + H.T)
            H -= np.trace(H) / n * np.eye(n)
            analytic = grad_objective(rho, h, H)
            mats = list(_action_matrices(rho).values())
            eps = 1e-5
            numeric = (_objective(mats, h @ _sym_exp(eps * H))
                       - _objective(mats, h @ _sym_exp(-eps * H))) / (2 * eps)
            assert abs(analytic - numeric) <= 1e-5 * max(1.0, abs(numeric))


class TestMinimize:
    def test_diagonal_attained_closed_form(self):
        report = minimize_displacement(rep({"a": [[E, 0], [0, 1 / E]]}))
        assert report.attained == ATTAINED
        assert abs(report.lambda_est - 2 * math.sqrt(2)) < 1e-4
        # the identity lies on the minimising axis
        assert dist(report.minimizer, SPDPoint.identity(2)) < 1e-6

    def test_unipotent_diverges_to_zero(self):
        report = minimize_displacement(rep({"a": [[1, 1], [0, 1]]}))
        assert report.attained == DIVERGED
        assert report.lambda_est < 1e-3

    def test_irreducible_attained(self):
        th = 1.0
        c, s = math.cos(th), math.sin(th)
        report = minimize_displacement(
            rep({"a": [[c, -s], [s, c]], "b": [[E, 0], [0, 1 / E]]}))
        assert report.attained == ATTAINED

    def test_report_invariant_gradient(self, real_corpus):
        for entry in real_corpus:
            report = minimize_displacement(entry.rep)
            if report.attained == ATTAINED:
                assert report.grad_norm <= 1e-6, entry.name

    def test_lambda_is_class_function(self):
        rng = np.random.default_rng(31)
        base = {"a": [[2.0, 0.0], [0.0, 0.5]], "b": [[0.0, 1.0], [1.0, 0.0]]}
        lam0 = minimize_displacement(rep(base)).lambda_est
        count = 0
        while count < 20:
            g = rng.integers(-2, 3, size=(2, 2)).astype(float)
            if abs(np.linalg.det(g)) < 0.5:
                continue
            gi = np.linalg.inv(g)
            gens = {s: (g @ np.array(m) @ gi).tolist() for s, m in base.items()}
            lam = minimize_displacement(rep(gens)).lambda_est
            assert abs(lam - lam0) <= 1e-6
            count += 1

    def test_rejects_exact_fields(self):
        with pytest.raises(NotRealFieldError):
            minimize_displacement(
                Representation.from_entries(Field.padic(5), {"a": [[2, 0], [0, 3]]}))

    def test_semicontinuity_along_degeneration(self):
        # along an explicit conjugation path rho_i -> rho the minimum
        # displacement cannot jump up in the limit
        from localrep import BlockStructure, FundamentalSequence
        blocks = BlockStructure(2, (1, 1))
        seq = FundamentalSequence.default(blocks, R)
        rho_minus = rep({"a": [[2, 0], [1, 0.5]]})
        rho_plus = rep({"a": [[2, 1], [0, 0.5]]})
        lam_limit = minimize_displacement(rho_minus).lambda_est
        lev = blocks.diagonal_part(rho_minus.gens["a"])
        u = rho_minus.gens["a"] * lev.inv()
        npart = lev.inv() * rho_plus.gens["a"]
        for i in (20, 40):
            rho_i = Representation(R, {"a": u * lev * seq.conjugate_power(npart, i)})
            lam_i = minimize_displacement(rho_i).lambda_est
            assert lam_i <= lam_limit + 1e-3


def closed_form_lambda(diagonals):
    """lambda of a diagonal tuple: each generator rescaled to |det| = 1."""
    total = 0.0
    for d in diagonals:
        mean = sum(math.log(abs(x)) for x in d) / len(d)
        total += sum((2.0 * (math.log(abs(x)) - mean)) ** 2 for x in d)
    return math.sqrt(total)


# a conjugate of the diagonal pair (diag(-2, 6, 2), diag(3, -6, -6)), cr; a
# minimiser that guessed its verdict from the descent called it DIVERGED
DIAG_ONCE_DIVERGED = (
    {"a": [[2, 0, -8], [0, -2, -16], [0, 0, 6]], "b": [[-6, 0, 0], [0, 3, 18], [0, 0, -6]]},
    [[-2, 6, 2], [3, -6, -6]],
)


class TestVerdictCorpus:
    """Verdicts on seeded constructions, each labelled cr or not by construction."""

    def test_geometry_fault_diverges_to_zero(self):
        rho = conj(rep(GEOMETRY_FAULT_UPPER), GEOMETRY_FAULT_CONJUGATOR)
        report = minimize_displacement(rho)
        assert report.attained == DIVERGED
        assert report.minimizer is None
        assert report.lambda_est < 1e-9

    @pytest.mark.parametrize("sizes", [(1, 1), (1, 1, 1), (1, 2)])
    def test_conjugated_nonsplit_diverges_at_lambda_ss(self, sizes):
        tag = "".join(map(str, sizes))
        for seed in range(30):
            rho = block_tuple(R, random.Random(f"verdict:{tag}:{seed}"), sizes, split=False)
            report = minimize_displacement(rho)
            assert report.attained == DIVERGED, seed
            assert report.minimizer is None
            ss = minimize_displacement(semisimplify(rho).rho_ss)
            assert report.lambda_est == ss.lambda_est, seed

    @staticmethod
    def diagonal_cases():
        gens, diags = DIAG_ONCE_DIVERGED
        cases = [("once-diverged", rep(gens), diags)]
        for seed in range(30):
            rho, diags = conjugated_diagonal(R, random.Random(f"verdict:diag3:{seed}"), 3)
            cases.append((seed, rho, diags))
        return cases

    def test_conjugated_diagonal_attained_at_closed_form(self):
        for name, rho, diags in self.diagonal_cases():
            report = minimize_displacement(rho)
            assert report.attained == ATTAINED, name
            want = closed_form_lambda(diags)
            assert abs(report.lambda_est - want) <= 1e-6 * max(1.0, want), name

    def test_conjugated_diagonal_displacement_at_minimizer(self):
        for name, rho, _ in self.diagonal_cases():
            report = minimize_displacement(rho)
            lam = report.lambda_est
            assert abs(displacement(rho, report.minimizer) - lam) <= 1e-9 * max(1.0, lam), name

    def test_conjugated_nonsplit_2_1_never_attained(self):
        for seed in range(30):
            rho = block_tuple(R, random.Random(f"verdict:21:{seed}"), (2, 1), split=False)
            report = minimize_displacement(rho)
            assert report.attained == DIVERGED, seed


def whole_tuple_lambda(rho):
    """lambda by one descent on the whole tuple, or on rho_ss when rho is not cr."""
    target = rho if is_cr(rho) else semisimplify(rho).rho_ss
    _, j, _, _, _, done = _descend(list(_action_matrices(target).values()), target.n, 5000)
    assert done
    return math.sqrt(j)


class TestLeafBranch:
    """lambda off the split tree on tuples with a leaf of dimension 2 or 3,
    which gets a descent of its own; no benchmark job has such a leaf."""

    SHAPES = [(2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (2, 1, 1)]

    @pytest.mark.parametrize("split", [True, False])
    def test_matches_one_descent_on_the_whole_tuple(self, split):
        for sizes in self.SHAPES:
            tag = "".join(map(str, sizes))
            kept = 0
            for seed in range(8):
                rho = block_tuple(R, random.Random(f"leaves:{tag}:{split}:{seed}"), sizes, split)
                target = rho if is_cr(rho) else semisimplify(rho).rho_ss
                if len(_series(target)[2]) != len(sizes):
                    continue  # the battery missed the split (ROADMAP item 11)
                kept += 1
                report = minimize_displacement(rho)
                assert report.attained == (ATTAINED if split else DIVERGED), (sizes, seed)
                assert report.iterations > 0
                want = whole_tuple_lambda(rho)
                assert abs(report.lambda_est - want) <= 1e-9 * max(1.0, want), (sizes, seed)
            assert kept >= 4, sizes

    def test_budget_is_per_leaf(self):
        rho = block_tuple(R, random.Random("leaves:21:True:0"), (2, 1), True)
        report = minimize_displacement(rho, budget=0)
        assert report.attained == MAXITER
        assert report.minimizer is None
        # lines need no descent, so no budget
        lines, _ = conjugated_diagonal(R, random.Random("verdict:diag3:0"), 3)
        assert minimize_displacement(lines, budget=0).attained == ATTAINED


class TestBlockConjugator:
    """c^-1 g c is block diagonal with the leaves of the split tree on the diagonal."""

    def test_leaves_on_the_diagonal(self):
        cases = [rho for _, rho, _ in TestVerdictCorpus.diagonal_cases()]
        cases += [block_tuple(R, random.Random(f"leaves:21:True:{seed}"), (2, 1), True)
                  for seed in range(8)]
        for rho in cases:
            c = _floats(_block_conjugator(rho))
            _, _, leaves = _series(rho)
            for s, g in rho.gens.items():
                want = _block_diagonal([_floats(leaf.gens[s]) for leaf in leaves])
                got = np.linalg.solve(c, _floats(g) @ c)
                assert np.allclose(got, want, rtol=0, atol=1e-9 * np.abs(want).max()), s


def irreducible_pair(rng):
    return rep(dict(zip("ab", _abs_irreducible_block(R, rng, 2, ("a", "b")))))


def unit_det(rho):
    """Each generator rescaled to |det| = 1."""
    return Representation(R, {s: m.scale(abs(float(m.det())) ** (-1.0 / m.n))
                              for s, m in rho.gens.items()})


def direct_sum(r1, r2):
    return Representation(R, {s: Matrix.block_diagonal(R, (r1.gens[s], r2.gens[s]))
                              for s in r1.symbols})


class TestLambdaAdditivity:
    """lambda(rho1 + rho2)^2 = lambda(rho1)^2 + lambda(rho2)^2 for summands
    at |det| = 1, the sum also seen through a conjugator."""

    CONJUGATOR = [[1, 1, 0, 0], [0, 1, -1, 0], [1, 0, 1, 2], [0, 0, 1, 1]]

    def test_direct_sums(self):
        for seed in range(8):
            rng = random.Random(f"additivity:{seed}")
            r1 = unit_det(irreducible_pair(rng))
            if seed % 2:
                r2 = unit_det(irreducible_pair(rng))
            else:
                r2 = unit_det(conjugated_diagonal(R, rng, 2)[0])
            want = math.hypot(minimize_displacement(r1).lambda_est,
                              minimize_displacement(r2).lambda_est)
            total = direct_sum(r1, r2)
            for rho in (total, conj(total, self.CONJUGATOR)):
                report = minimize_displacement(rho)
                assert report.attained == ATTAINED, seed
                assert abs(report.lambda_est - want) <= 1e-9 * max(1.0, want), seed


def displacement_along_line(rho, x, s_mat, ts):
    """Per-generator displacement at x^1/2 exp(t S) x^1/2 for each t."""
    x_half, _ = _sqrt_inv_sqrt(x.m)
    points = [SPDPoint.normalized(x_half @ _sym_exp(t * s_mat) @ x_half) for t in ts]
    return {s: [dist(p, act(g, p)) for p in points]
            for s, g in _action_matrices(rho).items()}


def flag_profiles(n, sizes):
    """Unit traceless diagonal two-level profiles, one per flag boundary."""
    out, k = [], 0
    for size in sizes[:-1]:
        k += size
        s_mat = np.diag([float(n - k)] * k + [float(-k)] * (n - k))
        out.append(s_mat / np.linalg.norm(s_mat))
    return out


class TestSymmetryAtMin:
    """At the minimiser of a diagonal tuple the displacement of every
    generator is constant along each line toward an invariant flag point:
    the minimiser lies on the flat that all the axes share."""

    TS = [float(t) for t in range(-5, 6)]

    def assert_constant_along_flags(self, rho, report):
        sizes = composition_series(rho).block_sizes
        for s_mat in flag_profiles(rho.n, sizes):
            for s, vals in displacement_along_line(rho, report.minimizer, s_mat,
                                                   self.TS).items():
                assert max(vals) - min(vals) <= 1e-6 * max(1.0, max(vals)), s

    def test_diagonal_axis_constant(self):
        rho = rep({"a": [[4, 0], [0, 0.25]]})
        report = minimize_displacement(rho)
        assert report.attained == ATTAINED
        self.assert_constant_along_flags(rho, report)

    def test_vacuous_without_flags(self):
        th = 1.0
        c, s = math.cos(th), math.sin(th)
        rho = rep({"a": [[c, -s], [s, c]], "b": [[E, 0], [0, 1 / E]]})
        report = minimize_displacement(rho)
        assert report.attained == ATTAINED
        assert composition_series(rho).block_sizes == (2,)

    def test_block_diagonal_probes(self):
        rho = rep({"a": [[2, 0, 0], [0, 0.5, 0], [0, 0, 1]]})
        report = minimize_displacement(rho)
        assert report.attained == ATTAINED
        assert composition_series(rho).block_sizes == (1, 1, 1)
        self.assert_constant_along_flags(rho, report)

    def test_requires_attained(self):
        rho = rep({"a": [[1, 1], [0, 1]]})
        report = minimize_displacement(rho)
        assert report.attained != ATTAINED
        assert report.minimizer is None
