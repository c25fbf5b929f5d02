import random
from fractions import Fraction

import pytest

from localrep import (
    Field,
    Matrix,
    TreeVertex,
    neighbors,
    product_counterexample,
    translation_length,
    tree_dist,
    vertex_displacement,
)
from localrep.errors import BadParameterError, PrimeMismatchError
from localrep.tree import _descent_move, _primitive, ball, elementary_spread

from conftest import gcd_minor_valuations

F5 = Field.padic(5)


def vertex(p, rows):
    return TreeVertex(Matrix.from_rows(Field.padic(p), rows))


def bfs_all_distances(center, radius):
    """Graph-distance oracle via neighbour enumeration only."""
    dist = {center: 0}
    frontier = [center]
    d = 0
    while frontier:
        d += 1
        if d > radius:
            break
        nxt = []
        for v in frontier:
            for w in neighbors(v):
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


class TestMetric:
    def test_examples(self):
        x0 = TreeVertex.standard(5)
        assert tree_dist(x0, x0) == 0
        assert tree_dist(x0, vertex(5, [[5, 0], [0, 1]])) == 1
        assert tree_dist(x0, vertex(5, [[25, 0], [0, 1]])) == 2

    def test_prime_mismatch(self):
        with pytest.raises(PrimeMismatchError):
            tree_dist(TreeVertex.standard(2), TreeVertex.standard(3))

    def test_spread_agrees_with_smith(self):
        """e_2 - e_1 of the Smith form, read off the determinantal divisors."""
        rng = random.Random(6)
        for _ in range(60):
            p = rng.choice([2, 3, 5])
            Fp = Field.padic(p)
            while True:
                m = Matrix.from_rows(Fp, [
                    [Fraction(rng.randint(-20, 20), rng.choice([1, p]))
                     for _ in range(2)] for _ in range(2)])
                if not Fp.is_zero(m.det()):
                    break
            e = gcd_minor_valuations(Fp, m)
            assert elementary_spread(m) == e[1] - e[0]

    @pytest.mark.parametrize("p", [2, 3])
    def test_agrees_with_bfs_radius_three(self, p):
        center = TreeVertex.standard(p)
        order, _ = ball(center, 3)
        oracle = bfs_all_distances(center, 3)
        for v in order:
            assert tree_dist(center, v) == oracle[v]

    def test_metric_axioms_on_tree(self):
        order, _ = ball(TreeVertex.standard(3), 2)
        for u in order[:6]:
            for v in order[:6]:
                assert tree_dist(u, v) == tree_dist(v, u)
                assert (tree_dist(u, v) == 0) == (u == v)


class TestNeighbors:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_valence_and_distance(self, p):
        base = TreeVertex.standard(p)
        nb = neighbors(base)
        assert len(nb) == p + 1
        assert len({w.canonical_key() for w in nb}) == p + 1
        for w in nb:
            assert tree_dist(base, w) == 1
            assert any(u == base for u in neighbors(w))

    def test_ball_sizes_p2(self):
        for r, expect in [(0, 1), (1, 4), (2, 10)]:
            order, _ = ball(TreeVertex.standard(2), r)
            assert len(order) == expect


class TestCanonicalKey:
    def test_homothety_invariance(self):
        rng = random.Random(13)
        for _ in range(100):
            p = rng.choice([2, 3, 5])
            Fp = Field.padic(p)
            while True:
                m = Matrix.from_rows(Fp, [
                    [Fraction(rng.randint(-9, 9), rng.choice([1, 1, p]))
                     for _ in range(2)] for _ in range(2)])
                if not Fp.is_zero(m.det()):
                    break
            a = TreeVertex(m)
            scaled = TreeVertex(m.scale(Fraction(p ** rng.randint(-2, 2) * rng.choice([1, 2, 3]))))
            assert a == scaled
            assert a.canonical_key() == scaled.canonical_key()

    def test_key_matches_divisor_equality(self):
        rng = random.Random(14)
        for _ in range(150):
            p = rng.choice([2, 3, 5])
            Fp = Field.padic(p)
            def rnd():
                while True:
                    m = Matrix.from_rows(Fp, [
                        [Fraction(rng.randint(-9, 9), rng.choice([1, 1, p]))
                         for _ in range(2)] for _ in range(2)])
                    if not Fp.is_zero(m.det()):
                        return TreeVertex(m)
            a, b = rnd(), rnd()
            assert (a == b) == (a.canonical_key() == b.canonical_key())


class TestDisplacement:
    def test_identity_fixes_everything(self):
        ident = Matrix.identity(F5, 2)
        for v in ball(TreeVertex.standard(5), 2)[0]:
            assert vertex_displacement(ident, v) == 0

    def test_hyperbolic_example(self):
        g = Matrix.from_rows(F5, [["1/5", 0], [0, 5]])
        assert vertex_displacement(g, TreeVertex.standard(5)) == 2

    def test_integral_unit_det_fixes_base(self):
        g = Matrix.from_rows(F5, [[1, 1], [0, 1]])
        assert vertex_displacement(g, TreeVertex.standard(5)) == 0

    def test_action_by_isometries(self):
        rng = random.Random(15)
        F3p = Field.padic(3)
        order, _ = ball(TreeVertex.standard(3), 2)
        count = 0
        while count < 100:
            g = Matrix.from_rows(F3p, [
                [Fraction(rng.randint(-6, 6), rng.choice([1, 3]))
                 for _ in range(2)] for _ in range(2)])
            if F3p.is_zero(g.det()):
                continue
            u = order[rng.randrange(len(order))]
            v = order[rng.randrange(len(order))]
            gu = TreeVertex(g * u.basis)
            gv = TreeVertex(g * v.basis)
            assert tree_dist(gu, gv) == tree_dist(u, v)
            count += 1

    def test_weak_convexity_along_geodesics(self):
        # midpoint displacement never exceeds the endpoint maximum
        g = Matrix.from_rows(F5, [["1/5", 0], [0, 5]])
        center = TreeVertex.standard(5)
        order, dists = ball(center, 2)
        # BFS parents give geodesics through the centre; test centre midpoints
        for u in order:
            for w in order:
                if tree_dist(u, center) == tree_dist(center, w) == tree_dist(u, w) // 2 \
                        and tree_dist(u, w) == 2 * tree_dist(u, center):
                    mid = center
                    assert vertex_displacement(g, mid) <= max(
                        vertex_displacement(g, u), vertex_displacement(g, w))


class TestTranslationLength:
    def test_hyperbolic_through_base(self):
        g = Matrix.from_rows(F5, [["1/5", 0], [0, 5]])
        ell, witness = translation_length(g, 4)
        assert ell == 2 and witness == TreeVertex.standard(5)
        assert translation_length(g, 5)[0] == 2  # stabilised

    def test_elliptic(self):
        g = Matrix.from_rows(F5, [[1, 1], [0, 1]])
        assert translation_length(g, 3)[0] == 0

    def test_trace_valuation_rule(self):
        # tr g = 1/5 has valuation -1, so the length is 2 = -2 v(tr g)
        g = Matrix.from_rows(F5, [[0, -1], [1, "1/5"]])
        assert F5.valuation(g.det()) == 0
        ell_small = translation_length(g, 2)[0]
        ell, _ = translation_length(g, 3)
        assert ell == 2
        assert translation_length(g, 4)[0] == 2


class TestCounterexample:
    def test_p5(self):
        report = product_counterexample(5, "1/5", imax=12, radius=4)
        assert report.valuation_sequence[:5] == (-1, 1, 3, 5, 7)
        assert report.verdict_a and report.verdict_b and report.verdict_c
        assert report.min_displacement_on_y == 2
        assert report.cr_second_factor is False

    def test_p3_t_ninth(self):
        report = product_counterexample(3, "1/9", imax=12, radius=4)
        assert report.expected_length == 4
        assert all(inc == 4 for inc in report.increments)
        assert report.verified

    def test_bad_t(self):
        with pytest.raises(BadParameterError):
            product_counterexample(5, 5)
        with pytest.raises(BadParameterError):
            product_counterexample(5, 1)


def _oracle_minimiser(displacements, order, dists, radius):
    """BFS-first minimiser of the vertex displacements over a ball prefix."""
    best, witness = None, None
    for d, v in zip(displacements, order):
        if dists[v] > radius:
            break
        if best is None or d < best:
            best, witness = d, v
    return best, witness


def _closed_form_length(g):
    """max(v(det g) - 2 v(tr g), v(det g) mod 2)."""
    f = g.field
    v_det = f.valuation(g.det())
    tr = g.trace()
    parity = v_det % 2
    return parity if tr == 0 else max(v_det - 2 * f.valuation(tr), parity)


def _random_unit(rng, p):
    return rng.choice([u for u in range(-6, 7) if u % p])


def _tree_case(rng, p, shape):
    """A conjugate k^-1 h k of a matrix h of the given shape.

    k has entries with denominators up to p^2, so Min g is often several
    edges from the standard vertex and small radii cannot reach it.
    """
    F = Field.padic(p)
    u, w = _random_unit(rng, p), _random_unit(rng, p)
    if shape == "hyperbolic":
        a = rng.randint(-2, 2)
        b = a + rng.choice([-2, -1, 1, 2])
        h = [[Fraction(p) ** a * u, 0], [0, Fraction(p) ** b * w]]
    elif shape == "unipotent":
        h = [[u, Fraction(rng.randint(1, 9), p ** rng.randint(0, 2))], [0, u]]
    elif shape == "rotation":  # x^2 - c x + 1 with c integral: elliptic
        h = [[0, -1], [1, rng.randint(-4, 4) * p]]
    else:  # "inversion": odd v(det), an edge swapped
        h = [[0, u], [p * w, 0]]
    h = Matrix.from_rows(F, h)
    while True:
        k = Matrix.from_rows(F, [[Fraction(rng.randint(-9, 9), p ** rng.randint(0, 2))
                                  for _ in range(2)] for _ in range(2)])
        if not F.is_zero(k.det()):
            return k.inv() * h * k


class TestDescentAgainstBall:
    """``translation_length`` walks to Min g; the ball scan is the oracle."""

    @pytest.mark.parametrize("p, count", [(2, 24), (3, 20), (5, 12), (7, 4)])
    def test_matches_bfs_first_minimiser(self, p, count):
        rng = random.Random(900 + p)
        order, dists = ball(TreeVertex.standard(p), 4)
        short = 0
        shapes = ["hyperbolic", "unipotent", "rotation", "inversion"]
        for i in range(count):
            g = _tree_case(rng, p, shapes[i % len(shapes)])
            ell = _closed_form_length(g)
            displacements = [vertex_displacement(g, v) for v in order]
            for radius in range(1, 5):
                want, want_witness = _oracle_minimiser(displacements, order, dists, radius)
                got, witness = translation_length(g, radius)
                assert got == want
                assert witness.canonical_key() == want_witness.canonical_key()
                assert got >= ell
                short += got > ell
        assert short > 0  # some radius was too small to reach Min g

    def test_descent_step_is_first_geodesic_vertex(self):
        rng = random.Random(31)
        checked = 0
        for p in (2, 3, 5, 7):
            order, _ = ball(TreeVertex.standard(p), 2)
            for i in range(12):
                g = _tree_case(rng, p, ["hyperbolic", "unipotent", "rotation", "inversion"][i % 4])
                v = order[rng.randrange(len(order))]
                d = vertex_displacement(g, v)
                if d == 0:
                    continue
                m = _primitive(v.basis.inv() * g * v.basis)
                w = TreeVertex(v.basis * _descent_move(m))
                assert tree_dist(v, w) == 1
                assert tree_dist(w, TreeVertex(g * v.basis)) == d - 1
                checked += 1
        assert checked > 30

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("e", [1, 2, 3])
    def test_counterexample_fixed_vertex_matches_ball_search(self, p, e):
        t = Fraction(_random_unit(random.Random(p * e), p), p ** e)
        g2 = Matrix.from_rows(Field.padic(p), [[1, t], [0, 1]])
        order, dists = ball(TreeVertex.standard(p), e)
        fixed = next(v for v in order if vertex_displacement(g2, v) == 0)
        report = product_counterexample(p, t, imax=4, radius=1)
        assert report.fixed_vertex_key == fixed.canonical_key()
        assert report.fixed_vertex_distance == dists[fixed] == e
