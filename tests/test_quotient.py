import math
from collections import defaultdict

import pytest

from localrep import (
    BlockStructure,
    Field,
    FundamentalSequence,
    Matrix,
    Representation,
    minimize_displacement,
    project,
    same_point_in_Xcr,
    semisimplify,
    separation_experiment,
    trace_fingerprint,
)
from localrep import quotient, reptheory
from localrep.errors import (
    DimensionMismatchError,
    FieldMismatchError,
    GeneratorMismatchError,
    NotRealFieldError,
)
from localrep.parabolic import build_neighbors
from localrep.quotient import FINGERPRINT_LENGTH
from localrep.reptheory import same_class

Q5 = Field.padic(5)
Q11 = Field.padic(11)
F3 = Field.funcfield(3)
R = Field.real()


def rep(field, gens):
    return Representation.from_entries(field, gens)


class TestProject:
    def test_unipotent_projects_to_identity(self):
        cls = project(rep(Q5, {"a": [[1, 1], [0, 1]]}))
        assert cls.canonical == rep(Q5, {"a": [[1, 0], [0, 1]]})
        # every word maps to the identity, so every trace is the dimension
        assert all(t == 2 for t in cls.fingerprint)

    def test_cr_input_keeps_fingerprint(self):
        rho = rep(Q5, {"a": [[2, 0], [0, 3]]})
        cls = project(rho)
        assert cls.fingerprint == project(rho.conjugate_by(
            Matrix.from_rows(Q5, [[1, 1], [0, 1]]))).fingerprint

    def test_levi_projection_preserves_traces(self):
        tri = rep(Q11, {"a": [[2, 7], [0, 3]]})
        diag = rep(Q11, {"a": [[2, 0], [0, 3]]})
        assert project(tri).fingerprint == project(diag).fingerprint

    def test_real_class_carries_lambda(self):
        cls = project(rep(R, {"a": [[math.e, 0], [0, 1 / math.e]]}))
        assert cls.lam is not None
        assert abs(cls.lam - 2 * math.sqrt(2)) < 1e-3


class TestOneComparabilityCheck:
    """Every comparison of the quotient layer refuses a mismatched pair alike."""

    @pytest.mark.parametrize("other, error", [
        (rep(F3, {"a": [[1, 0], [0, 1]]}), FieldMismatchError),
        (rep(Q5, {"a": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}), DimensionMismatchError),
        (rep(Q5, {"b": [[1, 0], [0, 1]]}), GeneratorMismatchError),
    ], ids=["field", "dimension", "symbols"])
    def test_same_errors_and_messages(self, other, error):
        rho = rep(Q5, {"a": [[2, 0], [0, 3]]})
        messages = set()
        for compare in (same_point_in_Xcr, lambda r1, r2: separation_experiment([r1, r2])):
            with pytest.raises(error) as info:
                compare(rho, other)
            messages.add(str(info.value))
        assert len(messages) == 1

    def test_one_helper(self):
        assert quotient.check_comparable is reptheory.check_comparable


class TestSamePoint:
    def test_triangular_meets_its_diagonal(self):
        tri = rep(Q5, {"a": [[1, 1], [0, 1]]})
        ident = rep(Q5, {"a": [[1, 0], [0, 1]]})
        assert same_point_in_Xcr(tri, ident) is True

    def test_distinct_traces_separate(self):
        assert same_point_in_Xcr(
            rep(Q5, {"a": [[2, 0], [0, 3]]}),
            rep(Q5, {"a": [[2, 0], [0, 5]]})) is False

    def test_degeneration_partners_meet(self):
        blocks = BlockStructure(2, (1, 1))
        seq = FundamentalSequence.default(blocks, Q5)
        rho_minus = rep(Q5, {"a": [[2, 0], [1, 3]]})
        rho_plus = rep(Q5, {"a": [[2, 1], [0, 3]]})
        trace = build_neighbors(rho_minus, rho_plus, blocks, seq, 6)
        assert trace.big_cell_ok
        assert same_point_in_Xcr(rho_minus, rho_plus) is True

    def test_projection_is_conjugation_invariant(self):
        rho = rep(Q5, {"a": [[2, 1], [0, 3]], "b": [[1, 1], [0, 1]]})
        h = Matrix.from_rows(Q5, [[2, 1], [1, 1]])
        assert same_point_in_Xcr(rho, rho.conjugate_by(h)) is True

    def test_meets_its_semisimplification(self, exact_corpus):
        for entry in exact_corpus[:6] + exact_corpus[30:36]:
            ss = semisimplify(entry.rep).rho_ss
            assert same_point_in_Xcr(entry.rep, ss) is True, entry.name


class TestTraceBlindPair:
    """Over F3(T), diag(T, T, T, T+1) and diag(T+2, T+2, T+2, T+1) have equal
    word traces (3 x(w) = 0), dim Hom = 1 and dim End = 10: not conjugate."""

    a = rep(F3, {"a": [["T", 0, 0, 0], [0, "T", 0, 0], [0, 0, "T", 0], [0, 0, 0, "T+1"]]})
    b = rep(F3, {"a": [["T+2", 0, 0, 0], [0, "T+2", 0, 0], [0, 0, "T+2", 0],
                       [0, 0, 0, "T+1"]]})

    def test_traces_agree(self):
        assert trace_fingerprint(self.a, 4) == trace_fingerprint(self.b, 4)

    def test_not_conjugate(self):
        assert same_class(self.a, self.b)[0] is False

    def test_different_points(self):
        assert same_point_in_Xcr(self.a, self.b) is False

    def test_separation_names_dimensions(self):
        result = separation_experiment([self.a, self.b])
        assert result.matrix == ((True, False), (False, True))
        assert result.evidence[(0, 1)] == "dim Hom = 1, dim End = 10 and 10"


class TestSeparationExperiment:
    def test_pairwise_distinct_diagonals(self):
        family = [
            rep(Q5, {"a": [[2, 0], [0, 3]]}),
            rep(Q5, {"a": [[2, 0], [0, 7]]}),
            rep(Q5, {"a": [[3, 0], [0, 7]]}),
        ]
        result = separation_experiment(family)
        for i in range(3):
            for j in range(3):
                assert result.matrix[i][j] is (True if i == j else False)
        assert result.transitive

    def test_same_class_family(self):
        rho = rep(Q5, {"a": [[2, 1], [0, 3]]})
        family = [
            rho,
            semisimplify(rho).rho_ss,
            rho.conjugate_by(Matrix.from_rows(Q5, [[1, 1], [1, 2]])),
        ]
        result = separation_experiment(family)
        assert all(all(v is True for v in row) for row in result.matrix)
        assert result.transitive

    def test_evidence_recorded(self):
        family = [
            rep(Q5, {"a": [[2, 0], [0, 3]]}),
            rep(Q5, {"a": [[2, 0], [0, 5]]}),
        ]
        result = separation_experiment(family)
        assert "fingerprint mismatch" in result.evidence[(0, 1)]

    def test_real_family_same_class_decides(self):
        # two classes over R, each with its conjugate by [[1, 1], [0, 1]]:
        # an irreducible pair, and diag(2, 1/2) with the identity
        family = [
            rep(R, {"a": [[2, 1], [1, 1]], "b": [[1, 1], [0, 1]]}),
            rep(R, {"a": [[3, -1], [1, 0]], "b": [[1, 1], [0, 1]]}),
            rep(R, {"a": [[2, 0], [0, 0.5]], "b": [[1, 0], [0, 1]]}),
            rep(R, {"a": [[2, -1.5], [0, 0.5]], "b": [[1, 0], [0, 1]]}),
        ]
        result = separation_experiment(family)
        assert result.matrix == ((True, True, False, False), (True, True, False, False),
                                 (False, False, True, True), (False, False, True, True))
        assert result.evidence == {
            (0, 1): "conjugator found",
            (0, 2): "fingerprint mismatch at word index 0",
            (0, 3): "fingerprint mismatch at word index 0",
            (1, 2): "fingerprint mismatch at word index 0",
            (1, 3): "fingerprint mismatch at word index 0",
            (2, 3): "conjugator found",
        }
        assert result.transitive
        assert abs(result.lambdas[2] - 2 * math.sqrt(2) * math.log(2)) < 1e-3


def _fingerprint_first(family):
    """Verdicts and evidence of the fingerprint-first order: the first index
    where the full fingerprints differ, else :func:`same_class`."""
    canonical = [semisimplify(rho).rho_ss for rho in family]
    prints = [trace_fingerprint(c, FINGERPRINT_LENGTH) for c in canonical]
    table = {}
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            k = next((k for k, (a, b) in enumerate(zip(prints[i], prints[j])) if a != b), None)
            table[(i, j)] = (same_class(canonical[i], canonical[j]) if k is None
                             else (False, f"fingerprint mismatch at word index {k}"))
    return table


class TestSameClassFirst:
    """`separation_experiment` decides by `same_class` and looks for trace
    evidence only on pairs found apart; over Q and F_p(T) it must agree
    with the fingerprint-first order pair for pair."""

    def test_agrees_with_fingerprint_first(self, exact_corpus):
        # the corpus grouped into families by field, size and generators
        groups = defaultdict(list)
        for entry in exact_corpus:
            groups[(str(entry.rep.field), entry.rep.n, entry.rep.symbols)].append(entry.rep)
        families = [members for members in groups.values() if len(members) > 1] + [
            # the traces of a, a^-1, b, b^-1 and a^2 agree; ab is word index 5
            [rep(Q5, {"a": [[2, 0], [0, 3]], "b": [[1, 1], [1, 2]]}),
             rep(Q5, {"a": [[2, 0], [0, 3]], "b": [[2, 1], [1, 1]]}),
             rep(Q5, {"a": [[1, -1], [2, 4]], "b": [[-1, -1], [5, 4]]})],
            [TestTraceBlindPair.a, TestTraceBlindPair.b, TestTraceBlindPair.a.conjugate_by(
                Matrix.from_rows(F3, [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))],
        ]
        assert len(families) >= 8
        for family in families:
            result = separation_experiment(family)
            for (i, j), (verdict, evidence) in _fingerprint_first(family).items():
                assert result.matrix[i][j] is verdict, (family, i, j)
                assert result.evidence[(i, j)] == evidence, (family, i, j)


class TestLambdaInvariant:
    """``project(rho).lam``: the minimum displacement of the projected class."""

    def test_identity_is_zero(self):
        assert project(rep(R, {"a": [[1, 0], [0, 1]]})).lam == 0.0

    def test_unipotent_class_is_zero(self):
        # the projected class is trivial, where the infimum is attained at 0
        assert project(rep(R, {"a": [[1, 1], [0, 1]]})).lam < 1e-6

    def test_diagonal_closed_form(self):
        lam = project(rep(R, {"a": [[math.e, 0], [0, 1 / math.e]]})).lam
        assert abs(lam - 2 * math.sqrt(2)) < 1e-3

    def test_rejects_exact_fields(self):
        # the minimiser refuses exact fields, so their classes carry no lambda
        rho = rep(Q5, {"a": [[2, 0], [0, 3]]})
        assert project(rho).lam is None
        with pytest.raises(NotRealFieldError):
            minimize_displacement(rho)

    def test_properness_proxy_distinct_values_separate(self):
        # members with clearly different lambda lie in different classes
        family = [rep(R, {"a": [[math.e ** k, 0], [0, math.e ** -k]]})
                  for k in range(4)]
        lams = [project(m).lam for m in family]
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(lams[i] - lams[j]) > 1e-2
                assert same_point_in_Xcr(family[i], family[j]) is False

    def test_continuity_proxy_along_degeneration(self):
        blocks = BlockStructure(2, (1, 1))
        seq = FundamentalSequence.default(blocks, R)
        rho_minus = rep(R, {"a": [[2, 0], [1, 0.5]]})
        rho_plus = rep(R, {"a": [[2, 1], [0, 0.5]]})
        imax = 40
        lam_limit = project(rho_minus).lam
        # the path rho_i converges to rho_minus; its class invariant follows
        us = rho_minus.gens["a"] * blocks.diagonal_part(rho_minus.gens["a"]).inv()
        rs = blocks.diagonal_part(rho_minus.gens["a"])
        ns = rs.inv() * rho_plus.gens["a"]
        rho_i = Representation(R, {"a": us * rs * seq.conjugate_power(ns, imax)})
        assert abs(project(rho_i).lam - lam_limit) <= 1e-3

