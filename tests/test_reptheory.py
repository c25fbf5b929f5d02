import itertools
import json
import random
from fractions import Fraction

import pytest

from localrep import (
    Field,
    Matrix,
    Representation,
    composition_series,
    is_cr,
    is_nonparabolic,
    rref,
    semisimplify,
    spin,
    trace_fingerprint,
)
from localrep.cli import JobSpec, run
from localrep.errors import NotInvariantError
from localrep.fields import REAL_TOLERANCE
from localrep.linalg import solve_linear
from localrep import jsonio, reptheory
from localrep.reptheory import (
    find_invertible_intertwiner,
    intertwiner_space,
    invariant_subspace_candidates,
    same_class,
    split_at,
)

from conftest import (
    _abs_irreducible_block,
    _unitriangular,
    block_tuple,
    conjugated_diagonal,
    oracle_is_cr,
    trace_form_is_cr,
    word_span_basis,
)

Q5 = Field.padic(5)
Q7 = Field.padic(7)
F3 = Field.funcfield(3)
R = Field.real()


def rep(field, gens):
    return Representation.from_entries(field, gens)


class TestSpin:
    def test_fixed_line(self):
        rho = rep(Q5, {"a": [[1, 1], [0, 1]]})
        assert spin(rho, (1, 0)) == ((Fraction(1), Fraction(0)),)

    def test_full_space(self):
        rho = rep(Q5, {"a": [[1, 1], [0, 1]]})
        assert len(spin(rho, (0, 1))) == 2

    def test_eigenvector(self):
        rho = rep(Q5, {"a": [[0, 1], [1, 0]]})
        rows = spin(rho, (1, 1))
        assert len(rows) == 1 and rows[0][0] == rows[0][1]


class TestCandidatesArriveCanonical:
    """The battery takes its layers' rows as they come, without reducing them
    again, so every layer must hand over canonical rows."""

    @staticmethod
    def _corpus(exact_corpus, real_corpus, floor_corpus):
        yield from ((e.name, e.rep) for e in exact_corpus + real_corpus)
        yield from floor_corpus

    def test_spins_and_candidates(self, exact_corpus, real_corpus, floor_corpus):
        fields = set()
        for name, rho in self._corpus(exact_corpus, real_corpus, floor_corpus):
            field = rho.field
            fields.add(field.kind)
            for bits in itertools.product((0, 1), repeat=rho.n):
                if not any(bits):
                    continue
                rows = spin(rho, tuple(field.coerce(b) for b in bits))
                assert rows == reptheory._canonical_rows(field, rows), name
            for split in invariant_subspace_candidates(rho):
                rows = _split_rows(split)
                assert 0 < len(rows) < rho.n, name
                assert rows == reptheory._canonical_rows(field, rows), name
                for m in rho.gens.values():
                    images = [m.apply(r) for r in rows]
                    assert rref(field, list(rows) + images).rank == len(rows), name
        assert fields == {"real", "padic", "funcfield"}


class TestNonparabolic:
    def test_irreducible_pair(self):
        rho = rep(Q5, {"a": [[0, 1], [1, 0]], "b": [[1, 1], [0, 1]]})
        ok, flag = is_nonparabolic(rho)
        assert ok and flag is None

    def test_unipotent_certificate(self):
        rho = rep(Q5, {"a": [[1, 1], [0, 1]]})
        ok, flag = is_nonparabolic(rho)
        assert not ok
        assert flag.block_sizes == (1, 1)
        assert flag.basis_change.column(0) == (Fraction(1), Fraction(0))
        assert flag.verify(rho)

    def test_identity_reducible(self):
        rho = rep(Q5, {"a": [[1, 0], [0, 1]]})
        ok, flag = is_nonparabolic(rho)
        assert not ok and flag.verify(rho)

    def test_certificates_verify_on_corpus(self, exact_corpus):
        for entry in exact_corpus:
            ok, flag = is_nonparabolic(entry.rep)
            if not ok:
                assert flag.verify(entry.rep), entry.name

    def test_companion_matrix_irreducible_small_algebra(self):
        # x^2 - 2 has no rational roots; the word algebra has dimension 2 < 4,
        # so the verdict exercises the full battery rather than the dimension
        # shortcut
        rho = rep(Q5, {"a": [[0, 2], [1, 0]]})
        ok, flag = is_nonparabolic(rho)
        assert ok and flag is None
        assert is_cr(rho)


def _complement_projector(rho, rows):
    """The equivariant projector b [[I, X], [0, 0]] b^-1 onto the invariant span
    of ``rows``, with X from ``split_at(rho, rows).complement``, or None when
    the span has no invariant complement.  Its kernel is the complement."""
    field, n = rho.field, rho.n
    rows = reptheory._canonical_rows(field, rows)
    split = split_at(rho, rows)
    sol = split.complement
    if sol is None:
        return None
    k = len(rows)
    q = n - k
    ident = Matrix.identity(field, k).data
    proj = [ident[i] + sol[i * q:(i + 1) * q] for i in range(k)] + [(field.zero(),) * n] * q
    return split.basis * Matrix(field, proj) * split.basis.inv()


class TestInvariantComplement:
    """``Split.complement`` solves A X - X D = B exactly when W splits off."""

    def test_diagonal_splits(self):
        rho = rep(Q5, {"a": [[2, 0], [0, 3]]})
        proj = _complement_projector(rho, [(1, 0)])
        assert proj == Matrix.from_rows(Q5, [[1, 0], [0, 0]])

    def test_unipotent_does_not_split(self):
        rho = rep(Q5, {"a": [[1, 1], [0, 1]]})
        assert _complement_projector(rho, [(1, 0)]) is None

    def test_identity_splits(self):
        rho = rep(Q5, {"a": [[1, 0], [0, 1]]})
        assert _complement_projector(rho, [(1, 0)]) is not None

    def test_projector_is_equivariant(self):
        rho = rep(Q5, {"a": [[2, 5], [0, 3]]})
        proj = _complement_projector(rho, [(1, 0)])
        assert proj is not None
        for m in rho.gens.values():
            assert proj * m == m * proj
        assert proj * proj == proj

    def test_not_invariant_raises(self):
        rho = rep(Q5, {"a": [[0, 1], [1, 0]]})
        with pytest.raises(NotInvariantError):
            _complement_projector(rho, [(1, 0)])


class TestIsCr:
    def test_triangular_not_cr_any_field(self):
        for field in (Q5, F3, Field.real()):
            assert not is_cr(rep(field, {"a": [[1, 1], [0, 1]]}))

    def test_diagonal_cr(self):
        assert is_cr(rep(Q5, {"a": [["1/5", 0], [0, 5]]}))

    def test_block_mixed_cr(self):
        rho = rep(Q5, {
            "a": [[0, 1, 0], [1, 0, 0], [0, 0, 2]],
            "b": [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
        })
        assert is_cr(rho)

    def test_corpus_labels(self, exact_corpus):
        for entry in exact_corpus:
            assert is_cr(entry.rep) == entry.cr, entry.name

    def test_nonparabolic_implies_cr(self, exact_corpus):
        for entry in exact_corpus:
            ok, _ = is_nonparabolic(entry.rep)
            if ok:
                assert is_cr(entry.rep), entry.name

    def test_agrees_with_trace_form_char_zero(self, exact_corpus):
        for entry in exact_corpus:
            if entry.rep.field.kind == "padic":
                assert trace_form_is_cr(entry.rep) == entry.cr, entry.name


class TestCompositionSeries:
    def test_irreducible_single_block(self):
        rho = rep(Q5, {"a": [[0, 1], [1, 0]], "b": [[1, 1], [0, 1]]})
        flag = composition_series(rho)
        assert flag.block_sizes == (2,)

    def test_unipotent_two_lines(self):
        rho = rep(Q5, {"a": [[1, 1], [0, 1]]})
        flag = composition_series(rho)
        assert flag.block_sizes == (1, 1)
        assert flag.basis_change == Matrix.identity(Q5, 2)

    def test_eigenspace_example(self):
        # diagonal entries 2, 2, 3; eigenvector oracle fixes the outcome
        rho = rep(Q7, {"a": [[2, 0, 1], [0, 2, 0], [0, 0, 3]]})
        flag = composition_series(rho)
        assert flag.block_sizes == (1, 1, 1)
        assert flag.verify(rho)
        t = flag.basis_change.inv() * rho.gens["a"] * flag.basis_change
        diag = sorted(t.data[i][i] for i in range(3))
        assert diag == [Fraction(2), Fraction(2), Fraction(3)]
        # oracle: the one-dimensional eigenspace for 3 is spanned by (1, 0, 1)
        vec = rho.gens["a"].apply((1, 0, 1))
        assert vec == (Fraction(3), Fraction(0), Fraction(3))

    def test_flag_verifies_on_corpus(self, exact_corpus):
        for entry in exact_corpus:
            flag = composition_series(entry.rep)
            assert flag.verify(entry.rep), entry.name
            assert sum(flag.block_sizes) == entry.rep.n


class TestSemisimplify:
    def test_unipotent_to_identity(self):
        rho = rep(Q5, {"a": [[1, 1], [0, 1]]})
        ss = semisimplify(rho)
        assert ss.rho_ss == rep(Q5, {"a": [[1, 0], [0, 1]]})

    def test_already_blockdiag_fixed(self):
        rho = rep(Q5, {"a": [[2, 0], [0, 3]]})
        ss = semisimplify(rho)
        assert ss.rho_ss == rho

    def test_exact_eigendecomposition_example(self):
        rho = rep(Q7, {"a": [[2, 5], [0, 3]]})
        ss = semisimplify(rho)
        target = rep(Q7, {"a": [[2, 0], [0, 3]]})
        assert same_class(ss.rho_ss, target)[0] is True
        # oracle: h = [[1, 5], [0, 1]] diagonalises exactly
        h = Matrix.from_rows(Q7, [[1, 5], [0, 1]])
        assert rho.conjugate_by(h) == target

    def test_result_is_cr_on_corpus(self, exact_corpus):
        for entry in exact_corpus:
            assert is_cr(semisimplify(entry.rep).rho_ss), entry.name

    @pytest.mark.parametrize("field", [Q5, F3, R], ids=["Q5", "F3T", "R"])
    def test_built_tuples_are_not_checked_again(self, field, monkeypatch):
        # split_at's blocks and rho_ss are invertible by construction; only
        # verify's basis change is tested for singularity
        rho = _fresh(block_tuple(field, random.Random("unchecked"), (2, 1, 1), False))
        checked, original = [], Matrix.is_singular
        monkeypatch.setattr(Matrix, "is_singular", lambda m: checked.append(m.n) or original(m))
        ss = semisimplify(rho)
        assert checked == [4]
        assert sorted(leaf.n for leaf in reptheory._series(rho)[2]) == [1, 1, 2]
        assert ss.rho_ss.symbols == rho.symbols and ss.rho_ss.n == 4

    def test_idempotent_up_to_conjugacy(self, exact_corpus):
        for entry in exact_corpus[:12] + exact_corpus[30:42]:
            once = semisimplify(entry.rep).rho_ss
            twice = semisimplify(once).rho_ss
            assert same_class(once, twice)[0] is True, entry.name

    def test_is_the_levi_part_of_the_flag(self, exact_corpus, floor_corpus):
        """rho_ss is h L(h^-1 g h) h^-1, L the flag's block diagonal part, exactly."""
        corpus = ([(e.name, e.rep) for e in exact_corpus] + list(floor_corpus)
                  + [(name, rho) for name, _, rho in _three_block_corpus(range(10))])
        for name, rho in corpus:
            if rho.field.is_real:
                continue
            ss = semisimplify(rho)
            h = ss.flag.basis_change
            hinv = h.inv()
            for s, m in rho.gens.items():
                levi = h * ss.flag.blocks.diagonal_part(hinv * m * h) * hinv
                assert ss.rho_ss.gens[s].data == levi.data, name

    def test_carried_inverse_is_exact(self, exact_corpus, floor_corpus):
        """The h^-1 composed down the split tree times h is the identity, exactly."""
        corpus = ([(e.name, e.rep) for e in exact_corpus] + list(floor_corpus)
                  + [(name, rho) for name, _, rho in _three_block_corpus(range(10))])
        for name, rho in corpus:
            if rho.field.is_real:
                continue
            h, hinv, _ = reptheory._series(_fresh(rho))
            assert (hinv * h).data == Matrix.identity(rho.field, rho.n).data, name

    def test_inverts_nothing(self, monkeypatch):
        """Once the series is built, rho_ss inverts nothing: the flag check
        reads spans, not h^-1 g h."""
        inverted = []
        original = Matrix.inv

        def counted(m):
            inverted.append(m.n)
            return original(m)

        for field, sizes in THREE_BLOCK_SHAPES:
            rho = _three_block(field, sizes, 0)
            composition_series(rho)
            inverted.clear()
            monkeypatch.setattr(Matrix, "inv", counted)
            ss = semisimplify(rho)
            monkeypatch.undo()
            assert len(ss.flag.block_sizes) == 3
            assert inverted == []

    def test_word_traces_preserved(self, exact_corpus):
        for entry in exact_corpus[:10] + exact_corpus[30:40]:
            rho = entry.rep
            ss = semisimplify(rho).rho_ss
            assert trace_fingerprint(rho, 6) == trace_fingerprint(ss, 6), entry.name


class TestConjugacy:
    def test_conjugation_by_construction(self):
        rho = rep(Q5, {"a": [[0, 1], [1, 0]], "b": [[1, 1], [0, 1]]})
        assert is_cr(rho)
        h = Matrix.from_rows(Q5, [[1, 2], [1, 3]])
        assert same_class(rho, rho.conjugate_by(h))[0] is True

    def test_permutation_conjugacy(self):
        r1 = rep(Q5, {"a": [[2, 0], [0, 3]]})
        r2 = rep(Q5, {"a": [[3, 0], [0, 2]]})
        assert same_class(r1, r2)[0] is True

    def test_trace_mismatch(self):
        r1 = rep(Q5, {"a": [[2, 0], [0, 3]]})
        r2 = rep(Q5, {"a": [[2, 0], [0, 5]]})
        assert same_class(r1, r2)[0] is False

    def test_funcfield_conjugacy(self):
        r1 = rep(F3, {"a": [["T", 0], [0, "T+1"]]})
        h = Matrix.from_rows(F3, [[1, 1], [1, 2]])
        assert same_class(r1, r1.conjugate_by(h))[0] is True


def _fresh(rho):
    """The same tuple as a new object, with nothing remembered."""
    return Representation(rho.field, dict(rho.gens))


def _split_rows(split):
    """The invariant subspace of a split: the first ``sub.n`` columns of its basis."""
    return tuple(split.basis.column(i) for i in range(split.sub.n))


def _first(rho):
    """The rows of the first candidate of a walk on a fresh copy of ``rho``."""
    split = next(invariant_subspace_candidates(_fresh(rho)), None)
    return None if split is None else _split_rows(split)


def _oracle_series(rho):
    """``(basis change, block sizes)``: split at the first candidate of a fresh
    walk, both ends refined through splits of fresh copies."""
    field, n = rho.field, rho.n
    rows = _first(rho) if n > 1 else None
    if rows is None:
        return Matrix.identity(field, n), (n,)
    k = len(rows)
    split = split_at(_fresh(rho), rows)
    low, low_sizes = _oracle_series(split.sub)
    high, high_sizes = _oracle_series(split.quot)
    blk = [[field.zero()] * n for _ in range(n)]
    for i in range(k):
        blk[i][:k] = low.data[i]
    for i in range(n - k):
        blk[k + i][k:] = high.data[i]
    return split.basis * Matrix(field, tuple(tuple(r) for r in blk)), low_sizes + high_sizes


# diag(1, 2, 3) seen through a conjugator: three invariant lines, and the
# first candidate is one of them
SEEDED_LINES = ({"a": [[1, 0, 0], [0, 2, 0], [0, 0, 3]]}, [[1, 2, 1], [-2, 1, -1], [-1, -2, 1]])
# [[C, I], [0, C]] with C the companion of x^2 - 2: no probe spin finds the
# invariant plane; the trace-form radical, after the word algebra, does
NONSPLIT_COMPANION = ({"a": [[0, 2, 1, 0], [1, 0, 0, 1], [0, 0, 0, 2], [0, 0, 1, 0]]},
                      [[1, 2, 0, 1], [0, 1, 1, 0], [1, 0, 1, 1], [2, 1, 0, 1]])


def _single_step_flag(rho, rows):
    """The flag of the adapted basis at the invariant ``rows``, built from scratch."""
    basis = reptheory._adapted_basis_matrix(rho.field, rows, rho.n)
    return reptheory.InvariantFlag(basis, (len(rows), rho.n - len(rows)))


def _conjugated(field, case):
    gens, h = case
    return rep(field, gens).conjugate_by(Matrix.from_rows(field, h))


class TestBatteryMemo:
    """The decisions read the split at the battery's first candidate, built once
    per tuple."""

    def test_battery_runs_once_per_tuple(self, floor_corpus, exact_corpus, monkeypatch):
        runs = []
        original = reptheory.invariant_subspace_candidates

        def counted(rho):
            runs.append(rho)  # keeps rho, so ids stay unique
            return original(rho)

        monkeypatch.setattr(reptheory, "invariant_subspace_candidates", counted)
        tuples = [_fresh(rho) for _, rho in floor_corpus] + [_fresh(e.rep) for e in exact_corpus]
        for rho in tuples:
            for _ in range(2):
                is_nonparabolic(rho)
                is_cr(rho)
                composition_series(rho)
                semisimplify(rho)
        keys = [id(rho) for rho in runs]
        assert len(keys) == len(set(keys))
        for rho in tuples:
            if rho.n > 1:
                assert id(rho) in keys

    def test_failed_battery_is_not_cached_as_exhausted(self, monkeypatch):
        rho = _conjugated(Q5, NONSPLIT_COMPANION)
        expected = _first(rho)
        assert len(expected) == 2

        def broken(*args, **kwargs):
            raise RuntimeError("word algebra failed")

        monkeypatch.setattr(reptheory, "word_algebra_basis", broken)
        for decide in (is_nonparabolic, is_cr, composition_series):
            with pytest.raises(RuntimeError):
                decide(rho)
        monkeypatch.undo()
        ok, flag = is_nonparabolic(rho)
        assert not ok and flag == _single_step_flag(rho, expected)
        assert not is_cr(rho)
        assert composition_series(rho).block_sizes == (2, 2)


class TestCompositionSeriesFromFirstCandidate:
    """The series splits at the first certified subspace and refines both ends."""

    def test_matches_the_first_candidate_oracle(self, floor_corpus, exact_corpus):
        corpus = list(floor_corpus) + [(e.name, e.rep) for e in exact_corpus]
        for name, rho in corpus:
            flag = composition_series(_fresh(rho))
            assert (flag.basis_change, flag.block_sizes) == _oracle_series(rho), name

    def test_analyze_never_builds_the_whole_tuple_algebra(self, floor_corpus, monkeypatch,
                                                          tmp_path):
        rho = dict(floor_corpus)["Q5:nonsplit-2-2-e1"]
        path = tmp_path / "rho.json"
        path.write_text(json.dumps(jsonio.representation_to_json(rho)))
        sizes = {"word_algebra_basis": [], "intertwiner_space": []}
        for name, seen in sizes.items():
            def counted(r, *args, _original=getattr(reptheory, name), _seen=seen, **kwargs):
                _seen.append(r.n)
                return _original(r, *args, **kwargs)
            monkeypatch.setattr(reptheory, name, counted)
        code, payload = run(JobSpec("analyze", input=str(path)))
        assert code == 0
        assert payload["nonparabolic"] is False and payload["cr"] is False
        assert payload["flag"]["block_sizes"] == [2, 2]
        # W and V/W are absolutely irreducible, certified mod q with no exact algebra
        assert sizes["word_algebra_basis"] == []
        assert sizes["intertwiner_space"] == []


def _abs_irreducible(field, k, seed):
    rng = random.Random(f"burnside:{field.kind}:{k}:{seed}")
    return rep(field, dict(zip("ab", _abs_irreducible_block(field, rng, k, "ab"))))


class TestBurnsideExitModResidue:
    """The battery stops after the standard spins when the words span all
    n x n matrices over a residue field, and only there."""

    def test_never_on_a_reducible_tuple(self, floor_corpus, exact_corpus):
        corpus = [(name, rho) for name, rho in floor_corpus if rho.field.kind != "real"]
        corpus += [(f"{field}:{sizes}:{split}:{seed}",
                    block_tuple(field, random.Random(f"burnside-reducible:{seed}"), sizes, split))
                   for field in (Q5, F3) for sizes in ((1, 1), (2, 1), (1, 2), (2, 2), (1, 1, 1))
                   for split in (True, False) for seed in range(4)]
        assert len(corpus) == 102
        for name, rho in corpus:
            assert not reptheory._words_span_all_mod_residue(rho), name
        for entry in exact_corpus:
            rho = entry.rep
            if reptheory._words_span_all_mod_residue(rho):
                # sound: then the exact word algebra is all of M_n(K)
                assert len(word_span_basis(rho)) == rho.n ** 2, entry.name
                assert entry.cr, entry.name

    @pytest.mark.parametrize("field, k", [(Q5, 2), (Q5, 3), (F3, 2), (F3, 3)],
                             ids=["Q5-2", "Q5-3", "F3T-2", "F3T-3"])
    def test_fires_on_absolutely_irreducible_blocks(self, field, k):
        for seed in range(100):
            assert reptheory._words_span_all_mod_residue(_abs_irreducible(field, k, seed)), seed

    def test_a_miss_leaves_the_verdict_to_the_battery(self):
        # absolutely irreducible over F3(T), but triangular mod T - t at every
        # t in F_3 (a is singular at t = 0), so no residue field certifies it
        rho = rep(F3, {"a": [["T+1", "T+1"], [0, "T"]], "b": [[1, "T+1"], ["2*T+1", "T+1"]]})
        assert len(list(reptheory._reductions(rho))) == 3
        assert not reptheory._words_span_all_mod_residue(rho)
        assert len(word_span_basis(rho)) == 4
        assert is_nonparabolic(rho) == (True, None)

    def test_a_prime_dividing_a_denominator_is_skipped(self):
        q0, q1, q2 = (f.p for f in reptheory.RESIDUE_FIELDS)
        for dens, want in (((1,), q0), ((q0,), q1), ((q0 * 7, q1), q2), ((q0 * q1, q2), None)):
            rho = rep(Q5, {"a": [[0, Fraction(1, dens[0])], [1, 0]],
                           "b": [[1, Fraction(1, dens[-1])], [0, 1]]})
            got = [residue.p for residue, _ in reptheory._reductions(rho)]
            assert got == ([] if want is None else [want]), dens
            assert reptheory._words_span_all_mod_residue(rho) is (want is not None), dens
        # the residue of x / d is x times the inverse of d mod q
        rho = rep(Q5, {"a": [[Fraction(3, 7)]]})
        (residue, residue_of), = reptheory._reductions(rho)
        assert residue_of(Fraction(3, 7)) * 7 % q0 == 3

    @pytest.mark.parametrize("entry, points", [("1", [0, 1, 2]), ("1/T", [1, 2]),
                                               ("1/T+1", [0, 1]), ("1/T^2+T", [1]),
                                               ("1/T^3+2*T", [])])
    def test_a_point_where_a_denominator_vanishes_is_skipped(self, entry, points):
        rho = rep(F3, {"a": [[0, entry], [1, 0]], "b": [[1, 1], [0, 1]]})
        t = F3.coerce("T")
        got = [residue_of(t) for _, residue_of in reptheory._reductions(rho)]
        assert got == points
        assert all(residue.p == 3 for residue, _ in reptheory._reductions(rho))
        assert reptheory._words_span_all_mod_residue(rho) is bool(points)

    @pytest.mark.parametrize("p", [1000003, 1000000000039])
    def test_a_large_characteristic_is_reduced_at_three_points(self, monkeypatch, p):
        # reducible (the common eigenvector (1, 1)) but e1 and e2 each spin
        # the whole space, so the closure mod T - t runs and never reaches n^2
        field = Field.funcfield(p)
        rho = rep(field, {"a": [["T", 1], [0, "T+1"]], "b": [[0, 1], [1, 0]]})
        residues = []

        def counted(f, *args, _original=reptheory._closure):
            if f.kind == "residue":
                residues.append(f.p)
            return _original(f, *args)
        monkeypatch.setattr(reptheory, "_closure", counted)
        got = [residue_of(field.coerce("T")) for _, residue_of in reptheory._reductions(rho)]
        assert got == [0, 1, 2] and reptheory.RESIDUE_POINTS == 3
        ok, flag = is_nonparabolic(rho)
        assert residues == [p] * 3
        assert not ok and flag.verify(rho) and flag.block_sizes == (1, 1)

    def test_reals_are_never_reduced(self):
        rho = rep(R, {"a": [[0.0, 1.0], [1.0, 0.0]], "b": [[1.0, 1.0], [0.0, 1.0]]})
        assert list(reptheory._reductions(rho)) == []

    @pytest.mark.parametrize("field, a, b", [
        (Q5, [[0, 1], [1, 0]], [[1, 1], [0, 1]]),
        (Q5, [[0, 0, 2], [1, 0, 0], [0, 1, 0]], [[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
        (F3, [[0, "T"], [1, 0]], [[1, "1/T"], [0, 1]]),
        (F3, [[0, 0, "T+1"], [1, 0, 0], [0, 1, 0]], [[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
    ], ids=["Q5-2", "Q5-3", "F3T-2", "F3T-3"])
    def test_analyze_stops_after_the_standard_spins(self, field, a, b, monkeypatch, tmp_path):
        rho = rep(field, {"a": a, "b": b})
        path = tmp_path / "rho.json"
        path.write_text(json.dumps(jsonio.representation_to_json(rho)))
        calls = {"spin": [], "word_algebra_basis": [], "intertwiner_space": [], "_closure": []}
        for name, seen in calls.items():
            def counted(*args, _original=getattr(reptheory, name), _seen=seen, **kwargs):
                _seen.append(args)
                return _original(*args, **kwargs)
            monkeypatch.setattr(reptheory, name, counted)
        code, payload = run(JobSpec("analyze", input=str(path)))
        assert code == 0 and payload["nonparabolic"] is True and payload["cr"] is True
        n = rho.n
        # the n standard spins; no seeded one
        assert [tuple(map(str, v)) for _, v in calls["spin"]] == [
            tuple("1" if j == i else "0" for j in range(n)) for i in range(n)]
        assert calls["word_algebra_basis"] == [] and calls["intertwiner_space"] == []
        # no dual spin: every closure over the tuple's field is a standard spin's,
        # and the others run over a residue field
        kinds = [args[0].kind for args in calls["_closure"]]
        assert kinds.count(field.kind) == n
        assert set(kinds[n:]) == {"residue"}


THREE_BLOCK_SHAPES = ((Q5, (1, 1, 2)), (Q5, (2, 1, 1)), (F3, (1, 1, 1)))


def _three_block(field, sizes, seed):
    rng = random.Random(f"three-block:{field.kind}:{sizes}:{seed}")
    return block_tuple(field, rng, sizes, split=True)


def _three_block_corpus(seeds):
    """``(name, sizes, rep)`` of :class:`TestThreeBlockSplitCorpus`'s tuples."""
    for field, sizes in THREE_BLOCK_SHAPES:
        for seed in seeds:
            yield f"{field.kind}:{sizes}:{seed}", sizes, _three_block(field, sizes, seed)


class TestThreeBlockSplitCorpus:
    """Split tuples with three absolutely irreducible blocks, labelled by construction.

    The first candidate can be any sum of blocks, so both ends of the split
    need refining.
    """

    @pytest.mark.parametrize("field, sizes", THREE_BLOCK_SHAPES,
                             ids=["Q5-1-1-2", "Q5-2-1-1", "F3T-1-1-1"])
    def test_verdicts_and_blocks(self, field, sizes):
        for seed in range(100):
            rho = _three_block(field, sizes, seed)
            assert is_nonparabolic(rho)[0] is False, seed
            assert is_cr(rho) is True, seed
            flag = composition_series(rho)
            assert flag.verify(rho), seed
            assert sorted(flag.block_sizes) == sorted(sizes), seed


NONSPLIT_SHAPES = ((Q5, (2, 1)), (Q5, (3, 1)), (Q5, (3, 2)), (Q5, (2, 1, 1)),
                   (R, (2, 1)), (R, (3, 1)))


class TestNonsplitCorpus:
    """Non-split tuples with absolutely irreducible blocks, labelled by construction.

    No probe spin need land in their invariant subspaces; J(A)V, the span of
    the columns of the trace-form kernel, is one of them in characteristic 0.
    """

    @pytest.mark.parametrize("field, sizes", NONSPLIT_SHAPES,
                             ids=["Q5-2-1", "Q5-3-1", "Q5-3-2", "Q5-2-1-1", "R-2-1", "R-3-1"])
    def test_verdicts_and_blocks(self, field, sizes):
        tag = "R" if field.is_real else "Q5"
        for seed in range(30):
            rng = random.Random(f"stress:{tag}:{sizes}:False:{seed}")
            rho = block_tuple(field, rng, sizes, split=False)
            assert is_nonparabolic(rho)[0] is False, seed
            assert is_cr(rho) is False, seed
            flag = composition_series(rho)
            assert flag.verify(rho), seed
            assert sorted(flag.block_sizes) == sorted(sizes), seed


def _same_rows(field, a, b):
    """Equal row lists: exactly over the exact fields, up to the zero test over R."""
    if not field.is_real:
        return a == b
    scale = max((abs(x) for r in list(a) + list(b) for x in r), default=1.0)
    return len(a) == len(b) and all(field.eq(x, y, scale)
                                    for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _block_matrix(field, split, s):
    """[[A, B], [0, D]] of generator ``s`` from the parts of a split."""
    top = [a + b for a, b in zip(split.sub.gens[s].data, split.off[s])]
    bottom = [(field.zero(),) * split.sub.n + d for d in split.quot.gens[s].data]
    return Matrix(field, top + bottom)


class TestSplit:
    """One adapted basis b per invariant subspace: b^-1 g b = [[A, B], [0, D]]."""

    def test_blocks_reassemble_each_generator(self, exact_corpus, floor_corpus):
        corpus = [(e.name, e.rep) for e in exact_corpus] + list(floor_corpus)
        fields = set()
        for name, rho in corpus:
            field = rho.field
            for split in itertools.islice(invariant_subspace_candidates(_fresh(rho)), 3):
                fields.add(field.kind)
                rows = _split_rows(split)
                assert split.sub.n + split.quot.n == rho.n, name
                # the first columns of b are canonical rows, and split_at splits them alike
                assert rows == reptheory._canonical_rows(field, rows), name
                assert split_at(rho, rows).basis == split.basis, name
                binv = split.basis.inv()
                for s, g in rho.gens.items():
                    back = split.basis * _block_matrix(field, split, s) * binv
                    if field.is_real:
                        assert _matrices_equal(field, back, g), name
                    else:
                        assert back.data == g.data, name
        assert fields == {"real", "padic", "funcfield"}

    def test_one_split_per_tuple(self):
        rho = _conjugated(Q5, SEEDED_LINES)
        split = reptheory._split(rho)
        for _ in range(2):
            assert reptheory._split(rho) is split
            is_nonparabolic(rho)
            is_cr(rho)
            semisimplify(rho)
            assert rho._derived["split"] is split
        assert set(rho._derived) == {"split", "series"}

    @pytest.mark.parametrize("field, gens, rows", [
        (Q5, {"a": [[0, 1], [1, 0]]}, [(1, 0)]),
        (F3, {"a": [["T", 0], [1, "T"]]}, [(1, 0)]),
        (R, {"a": [[2.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 2.0]]}, [(0, 1, 0)]),
        # invariant under a, not under b
        (Q5, {"a": [[1, 0, 0], [0, 2, 0], [0, 0, 3]], "b": [[1, 0, 1], [0, 1, 0], [0, 1, 1]]},
         [(1, 0, 0), (0, 1, 0)]),
    ])
    def test_rows_that_are_not_invariant_raise(self, field, gens, rows):
        rho = rep(field, gens)
        rows = reptheory._canonical_rows(field, rows)
        with pytest.raises(NotInvariantError):
            split_at(rho, rows)


# test_symspace.py's TestLeafBranch tuples on which the battery tries a
# commutant kernel whose span the generators move off it by about 1e-10:
# b^-1 g b reads block triangular under the zero test, the span test does not
REAL_NEAR_INVARIANT = (("leaves:22:True:0", (2, 2), True), ("leaves:13:True:0", (1, 3), True),
                       ("leaves:13:True:2", (1, 3), True), ("leaves:211:False:1", (2, 1, 1), False))


class TestOneInvarianceTest:
    """``split_at`` and ``InvariantFlag.verify`` decide invariance by ``_is_invariant``."""

    @pytest.mark.parametrize("seed, sizes, split", REAL_NEAR_INVARIANT,
                             ids=[seed for seed, _, _ in REAL_NEAR_INVARIANT])
    def test_split_at_refuses_what_the_span_test_rejects(self, seed, sizes, split, monkeypatch):
        rho = block_tuple(R, random.Random(seed), sizes, split)
        tried, original = [], reptheory._is_invariant

        def recorded(r, rows):
            tried.append(tuple(rows))
            return original(r, rows)

        monkeypatch.setattr(reptheory, "_is_invariant", recorded)
        list(invariant_subspace_candidates(rho))
        monkeypatch.undo()
        rejected = 0
        for rows in tried:
            invariant = reptheory._is_invariant(rho, rows)
            rejected += not invariant
            try:
                split_at(rho, rows)
            except NotInvariantError:
                assert not invariant, rows
            else:
                assert invariant, rows
        assert rejected

    @pytest.mark.parametrize("field, a", [
        (Q5, [[1, 1], [0, 1]]),
        (F3, [["T", 1], [0, "T"]]),
        (R, [[2.0, 1.0], [0.0, 2.0]]),
    ], ids=["Q5", "F3T", "R"])
    def test_verify_inverts_nothing(self, field, a, monkeypatch):
        rho = rep(field, {"a": a})

        def inverted(m):
            raise AssertionError("verify inverted a matrix")

        monkeypatch.setattr(Matrix, "inv", inverted)
        for h, ok in (([[1, 0], [0, 1]], True),
                      ([[1, 1], [0, 0]], False),   # singular; e1 spans a fixed line
                      ([[0, 1], [1, 0]], False)):  # a moves e2, the first column
            flag = reptheory.InvariantFlag(Matrix.from_rows(field, h), (1, 1))
            assert flag.verify(rho) is ok, h


def _restrict(rho, rows):
    """Action on the invariant span of the RREF ``rows``, read in that basis at
    the rows' pivots (the restriction ``is_cr`` built before it read splits)."""
    field = rho.field
    pivots = [next(i for i, x in enumerate(r) if not field.is_zero(x)) for r in rows]
    gens = {}
    for s, m in rho.gens.items():
        cols = []
        for r in rows:
            image = m.apply(r)
            coords = [image[p] for p in pivots]
            residual = list(image)
            for c, row in zip(coords, rows):
                residual = [a - c * b for a, b in zip(residual, row)]
            scale = max((abs(x) for x in image), default=1.0) if field.is_real else 1.0
            if not all(field.is_zero(x, scale) for x in residual):
                raise NotInvariantError("vector outside the subspace")
            cols.append(coords)
        gens[s] = Matrix(field, [[c[i] for c in cols] for i in range(len(rows))])
    return Representation(field, gens)


def _oracle_is_cr(rho):
    """The complement recursion: an equivariant projector onto the first candidate,
    then both its image and its kernel restricted and tested, on fresh tuples."""
    rows = _first(rho) if rho.n > 1 else None
    if rows is None:
        return True
    proj = _complement_projector(_fresh(rho), rows)
    if proj is None:
        return False
    kernel = reptheory._kernel_rows(rho.field, proj.data)
    return _oracle_is_cr(_restrict(rho, rows)) and _oracle_is_cr(_restrict(rho, kernel))


class TestIsCrOnTheSeriesSplits:
    """``is_cr`` descends the split's own A and D tuples, not a complement."""

    def test_matches_the_complement_oracle(self, exact_corpus, floor_corpus):
        corpus = ([(e.name, e.rep) for e in exact_corpus] + list(floor_corpus)
                  + [(name, rho) for name, _, rho in _three_block_corpus(range(20))])
        for name, rho in corpus:
            assert is_cr(_fresh(rho)) == _oracle_is_cr(rho), name

    def test_analyze_runs_the_battery_on_the_split_tree_only(self, monkeypatch, tmp_path):
        runs = []
        original = reptheory.invariant_subspace_candidates

        def counted(rho):
            runs.append(rho)
            return original(rho)

        monkeypatch.setattr(reptheory, "invariant_subspace_candidates", counted)
        path = tmp_path / "rho.json"
        for name, sizes, rho in _three_block_corpus(range(10)):
            runs.clear()
            path.write_text(json.dumps(jsonio.representation_to_json(rho)))
            code, payload = run(JobSpec("analyze", input=str(path)))
            assert code == 0 and payload["cr"] is True, name
            tree, leaves, todo = [], [], [runs[0]]
            while todo:
                node = todo.pop()
                tree.append(node)
                split = node._derived.get("split")
                if split is None:
                    leaves.append(node.n)
                else:
                    todo += [split.sub, split.quot]
            assert sorted(leaves) == sorted(sizes), name
            # once on every tuple of the tree that is not a line, and nowhere else
            assert sorted(map(id, runs)) == sorted(id(node) for node in tree if node.n > 1), name


class TestBlockConjugator:
    """c^-1 g c = blockdiag(leaves of the split tree) exactly, and c exists
    exactly where the tuple is cr."""

    def test_exact_on_the_exact_and_floor_corpora(self, exact_corpus, floor_corpus):
        corpus = [(e.name, e.rep) for e in exact_corpus] + list(floor_corpus)
        verdicts = []
        for name, rho in corpus:
            if rho.field.is_real:
                continue
            rho = _fresh(rho)
            c = reptheory._block_conjugator(rho)
            verdicts.append(c is not None)
            assert verdicts[-1] == oracle_is_cr(rho), name
            if c is None:
                continue
            _, _, leaves = reptheory._series(rho)
            cinv = c.inv()
            for s, g in rho.gens.items():
                want = Matrix.block_diagonal(rho.field, [leaf.gens[s] for leaf in leaves])
                assert (cinv * g * c).data == want.data, (name, s)
        assert verdicts.count(True) > 0 and verdicts.count(False) > 0


KNOWN_MISSES = [
    pytest.param(F3, "stress:F3T:(2, 2):True:27", id="F3T-2-2-seed-27"),
    pytest.param(R, "stress:R:(2, 2):True:0", id="R-2-2-seed-0"),
]


@pytest.mark.xfail(strict=True, reason=(
    "the battery misses both summands: the commutant is K x K and its non-scalar "
    "elements tried are invertible, so the split tuple reads irreducible with one "
    "block of 4 (ROADMAP item 3 step 3 over F3(T), item 11 over R)"))
@pytest.mark.parametrize("field, seed", KNOWN_MISSES)
def test_known_battery_miss(field, seed):
    rho = block_tuple(field, random.Random(seed), (2, 2), True)
    assert is_nonparabolic(rho)[0] is False
    assert sorted(composition_series(rho).block_sizes) == [2, 2]


# (sizes, split, seed) of the real instances the conjugation oracle gets
# wrong: 24 where rho and its conjugate disagree, 7 where both give the same
# wrong answer, and (2, 2) split seed 1, whose conjugate reads singular
REAL_CONJUGATION_FAULTS = {
    ((1, 1), True, 2), ((1, 1), True, 3), ((1, 1), True, 4),
    ((2, 1), True, 0), ((2, 1), True, 2), ((2, 1), True, 4), ((2, 1), True, 6),
    ((2, 1), True, 7),
    ((1, 2), True, 0), ((1, 2), True, 1), ((1, 2), True, 4), ((1, 2), True, 5),
    ((1, 2), True, 6), ((1, 2), True, 7),
    ((2, 2), True, 1), ((2, 2), True, 2), ((2, 2), True, 3), ((2, 2), True, 4),
    ((2, 2), True, 5), ((2, 2), True, 6), ((2, 2), True, 7),
    ((1, 1, 1), True, 0), ((1, 1, 1), True, 1), ((1, 1, 1), True, 2), ((1, 1, 1), True, 3),
    ((1, 1, 1), True, 4), ((1, 1, 1), True, 5), ((1, 1, 1), True, 6), ((1, 1, 1), True, 7),
    ((1, 1, 1), False, 1), ((1, 1, 1), False, 3), ((1, 1, 1), False, 7),
}


def _conjugation_cases():
    for tag, field in (("Q5", Q5), ("F3T", F3), ("R", R)):
        for sizes in ((1, 1), (2, 1), (1, 2), (2, 2), (1, 1, 1)):
            for split in (True, False):
                for seed in range(8):
                    marks = ()
                    if tag == "R" and (sizes, split, seed) in REAL_CONJUGATION_FAULTS:
                        marks = pytest.mark.xfail(strict=True, reason=(
                            "the real zero test misses a split summand on one side or "
                            "both, or reads the conjugate singular (ROADMAP items 5 "
                            "and 11)"))
                    name = "-".join(map(str, sizes))
                    yield pytest.param(
                        tag, field, sizes, split, seed, marks=marks,
                        id=f"{tag}-{name}-{'split' if split else 'nonsplit'}-{seed}")


@pytest.mark.parametrize("tag, field, sizes, split, seed", list(_conjugation_cases()))
def test_conjugation_oracle(tag, field, sizes, split, seed):
    """rho and a conjugate give the answers their construction labels them with."""
    rng = random.Random(f"oracle:{tag}:{sizes}:{split}:{seed}")
    rho = block_tuple(field, rng, sizes, split)
    n = sum(sizes)
    g = (Matrix.from_rows(field, _unitriangular(field, rng, n, upper=False))
         * Matrix.from_rows(field, _unitriangular(field, rng, n, upper=True)))

    def answers(r):
        return is_nonparabolic(r)[0], is_cr(r), sorted(composition_series(r).block_sizes)

    label = (False, split, sorted(sizes))
    assert answers(rho) == answers(rho.conjugate_by(g)) == label


class TestRealSplitRegression:
    def test_real_split_1_1_2_seed_22_does_not_raise(self):
        # is_cr raised NotInvariantError here when it restricted to the
        # projector's kernel.  The verdict is a real split miss (ROADMAP
        # item 11), so none is asserted.
        rho = block_tuple(R, random.Random("stress:R:(1, 1, 2):True:22"), (1, 1, 2), True)
        is_cr(rho)
        flag = composition_series(rho)
        assert flag.verify(rho)
        semisimplify(rho)


class TestRealEigenvalueShift:
    """Over R the commutant elements are shifted by their rational eigenvalues,
    read exactly from the floats, as over Q5."""

    def test_pair_with_common_rational_eigenlines_splits(self):
        # both fix the lines through (3, 1) and (5, 2), and no probe lies on
        # either; the commutant element [[5.5, -7.5], [1, 0]] has eigenvalues
        # 5/2 and 3.  Over Q5 it splits the same way.
        gens = {"a": [[21, -60], [8, -23]], "b": [[-17, 45], [-6, 16]]}
        for field in (R, Q5):
            rho = rep(field, gens)
            ok, flag = is_nonparabolic(rho)
            assert not ok and flag.verify(rho)
            assert composition_series(rho).block_sizes == (1, 1)
            assert is_cr(rho)

    def test_eigenvalues_of_a_float_matrix_are_read_exactly(self):
        m = Matrix.from_rows(R, [[5.5, -7.5], [1, 0]])
        assert reptheory._rational_eigenvalues(m) == [Fraction(3), Fraction(5, 2)]
        # the float 0.1 is the rational 3602879701896397 / 2^55, not 1/10
        got = reptheory._rational_eigenvalues(Matrix.from_rows(R, [[0.1, 0], [0, 2]]))
        assert got == [Fraction(2), Fraction(0.1)]

    def test_shift_splits_where_the_commutant_basis_is_invertible(self):
        rho = block_tuple(R, random.Random("stress:R:(1, 2):True:7"), (1, 2), True)
        nonscalar = [c for c in intertwiner_space(rho, rho) if not reptheory._is_scalar(c)]
        # one invertible non-scalar element: no kernel to try but a shift's
        assert len(nonscalar) == 1 and not nonscalar[0].is_singular()
        assert is_nonparabolic(rho)[0] is False
        assert is_cr(rho)
        assert sorted(composition_series(rho).block_sizes) == [1, 2]


# real tuples that a combination of commutant basis elements with
# coefficients in {-1, 0, 1} once split: a combination read singular under
# the float zero test, while no basis element has an eigenvalue that is
# exactly rational in the floats
GRID_SPLITS = [
    pytest.param(lambda: block_tuple(R, random.Random("grid:R:(1, 2, 1):True:21"),
                                     (1, 2, 1), True), [1, 1, 2], id="R-1-2-1-split-21"),
    pytest.param(lambda: block_tuple(R, random.Random("grid:R:(1, 2, 1):True:56"),
                                     (1, 2, 1), True), [1, 1, 2], id="R-1-2-1-split-56"),
    pytest.param(lambda: conjugated_diagonal(R, random.Random("gridd:R:4:174"), 4)[0],
                 [1, 1, 1, 1], id="R-diagonal-4-174"),
]


@pytest.mark.xfail(strict=True, reason=(
    "every non-scalar commutant element tried is invertible, so the split real "
    "tuple reads irreducible with one block of 4 (ROADMAP item 11)"))
@pytest.mark.parametrize("build, blocks", GRID_SPLITS)
def test_real_split_without_a_rational_eigenvalue(build, blocks):
    rho = build()
    assert is_nonparabolic(rho)[0] is False
    assert is_cr(rho)
    assert sorted(composition_series(rho).block_sizes) == blocks


def _spin_with_inverses(rho, vec):
    """The closure under the generators and their inverses."""
    vec = tuple(rho.field.coerce(x) for x in vec)
    mats = list(rho.gens.values()) + list(rho.inverses().values())
    span = reptheory.Echelon(rho.field)
    span.insert(vec)
    queue = [vec]
    while queue and span.rank < rho.n:
        u = queue.pop(0)
        for m in mats:
            w = m.apply(u)
            if span.insert(w):
                queue.append(w)
    return span.reduced()


def _word_algebra_with_inverses(rho):
    """The span of the words in the generators and their inverses."""
    n = rho.n
    letters = list(rho.gens.values()) + list(rho.inverses().values())
    span = reptheory.Echelon(rho.field)
    queue = []
    for m in [Matrix.identity(rho.field, n)] + letters:
        if span.insert([x for row in m.data for x in row]):
            queue.append(m)
    while queue and span.rank < n * n:
        m = queue.pop(0)
        for g in letters:
            prod = g * m
            if span.insert([x for row in prod.data for x in row]):
                queue.append(prod)
    return span.reduced()


class TestClosuresUnderTheGenerators:
    """In finite dimension the closure under the generators holds their inverses."""

    def test_spins_match_the_closure_with_inverses(self, exact_corpus, floor_corpus):
        corpus = [(e.name, e.rep) for e in exact_corpus] + list(floor_corpus)
        for name, rho in corpus:
            field = rho.field
            for v in reptheory._probe_vectors(rho):
                assert _same_rows(field, spin(rho, v), _spin_with_inverses(rho, v)), name
            dual = Representation(field, {s: m.transpose() for s, m in rho.gens.items()})
            for v in reptheory._probe_vectors(dual):
                assert _same_rows(field, spin(dual, v), _spin_with_inverses(dual, v)), name

    def test_word_algebra_spans_the_algebra_with_inverses(self, exact_corpus, floor_corpus):
        corpus = [(e.name, e.rep) for e in exact_corpus] + list(floor_corpus)
        for name, rho in corpus:
            field = rho.field
            flat = [[x for row in m.data for x in row] for m in reptheory.word_algebra_basis(rho)]
            assert _same_rows(field, reptheory._canonical_rows(field, flat),
                              _word_algebra_with_inverses(rho)), name


def _random_entry(field, rng):
    if field.is_real:
        return rng.uniform(-10.0, 10.0)
    if field.kind == "padic":
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return field.coerce(rng.choice(["0", "1", "2", "T", "2*T+1", "1/T", "T/T+1", "T^2+2/T^2+T+2"]))


class TestTraceForm:
    """The J(A)V layer's Gram matrix and its sums of matrices."""

    @pytest.mark.parametrize("field", [R, Q5, F3])
    def test_gram_entries_are_traces_of_products(self, field):
        rng = random.Random(11)
        for n in (1, 2, 3, 5):
            mats = [Matrix(field, [[_random_entry(field, rng) for _ in range(n)]
                                   for _ in range(n)]) for _ in range(4)]
            gram = reptheory._trace_form(field, mats)
            for a, row in zip(mats, gram):
                for b, got in zip(mats, row):
                    want = (a * b).trace()
                    if field.is_real:
                        assert abs(got - want) <= REAL_TOLERANCE * max(1.0, abs(want))
                    else:
                        assert got == want

    def test_radical_layer_makes_no_fraction_arithmetic_over_q(self, monkeypatch):
        # the J(A)V layer runs between the word algebra and the commutant,
        # so Fraction arithmetic is counted from word_algebra_basis's return
        # to intertwiner_space's call
        rho = block_tuple(Q5, random.Random("radical-layer"), (2, 2), False)
        assert is_cr(rho) is False  # so J(A) is nonzero and the layer sums matrices
        rho = Representation(Q5, dict(rho.gens))
        calls, counting = [], []
        for name in ("__mul__", "__add__"):
            def counted(self, other, name=name, real=getattr(Fraction, name)):
                if counting:
                    calls.append(name)
                return real(self, other)

            monkeypatch.setattr(Fraction, name, counted)

        def basis(rho, real=reptheory.word_algebra_basis):
            out = real(rho)
            counting.append(True)
            return out

        def space(r1, r2, real=reptheory.intertwiner_space):
            counting.clear()
            return real(r1, r2)

        monkeypatch.setattr(reptheory, "word_algebra_basis", basis)
        monkeypatch.setattr(reptheory, "intertwiner_space", space)
        list(invariant_subspace_candidates(rho))
        assert calls == []


class TestIntertwinerDraws:
    @pytest.mark.parametrize("field", [Q5, F3, R], ids=["Q5", "F3T", "R"])
    def test_each_draw_is_a_combination_with_coefficients_in_the_set(self, field):
        # Hom(x + x + y, itself) has dimension 5; coefficients lie in S:
        # 0..5 over Q and R, polynomials of degree < 2 over F_3(T) (9 >= 6)
        c1, c2 = ("T", "T+1") if field.kind == "funcfield" else (2, 3)
        rho = rep(field, {"a": [[c1, 0, 0], [0, c1, 0], [0, 0, c2]]})
        basis = intertwiner_space(rho, rho)
        draws = list(reptheory._intertwiner_draws(field, 3, basis))
        assert len(basis) == 5
        assert len(draws) == len(basis) + reptheory.INTERTWINER_RANDOM_TRIALS
        assert all(d.data == b.data for d, b in zip(draws, basis))
        flat = [[x for row in b.data for x in row] for b in basis]
        for d in draws[len(basis):]:
            rhs = [x for row in d.data for x in row]
            coeffs = solve_linear(field, [list(col) for col in zip(*flat)], rhs)
            if field.kind == "funcfield":
                assert all(c.den.is_one() and len(c.num.coeffs) <= 2 for c in coeffs)
            else:
                coeffs = [round(c) for c in coeffs]
                assert all(0 <= c < 6 for c in coeffs)
            want = Matrix(field, [[sum((field.coerce(c) * b.data[i][j]
                                        for c, b in zip(coeffs, basis)), start=field.zero())
                                   for j in range(3)] for i in range(3)])
            assert want == d


def _matrices_equal(field, x, y):
    scale = max(x.entry_scale(), y.entry_scale())
    return all(field.eq(a, b, scale)
               for ra, rb in zip(x.data, y.data) for a, b in zip(ra, rb))


class TestWitness:
    """``find_invertible_intertwiner`` returns ``(M, dim Hom)`` with M invertible."""

    @pytest.mark.parametrize("field, gens, h, dim_hom", [
        (Q5, {"a": [[2, 0, 0], [0, 3, 0], [0, 0, 3]], "b": [[1, 0, 0], [0, 0, 1], [0, 1, 0]]},
         [[1, 2, 0], [0, 1, 1], [1, 0, 2]], 3),
        (F3, {"a": [["T", 0], [0, "T+1"]]}, [[1, 1], [1, 2]], 2),
        # isotypic x + x + x: every basis element of Hom may be singular
        (F3, {"a": [["T", 0, 0], [0, "T", 0], [0, 0, "T"]],
              "b": [["T+1", 0, 0], [0, "T+1", 0], [0, 0, "T+1"]]},
         [["T", 1, 0], [0, 1, "T"], [1, 0, 1]], 9),
        (R, {"a": [[2.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]]},
         [[1.0, 1.0, 0.0], [0.0, 2.0, 1.0], [1.0, 0.0, 1.0]], 5),
    ])
    def test_conjugate_pairs(self, field, gens, h, dim_hom):
        r1 = rep(field, gens)
        r2 = r1.conjugate_by(Matrix.from_rows(field, h))
        m, d = find_invertible_intertwiner(r1, r2)
        assert d == len(intertwiner_space(r1, r2)) == dim_hom
        assert not field.is_zero(m.det(), m.entry_scale())
        for s in r1.symbols:
            assert _matrices_equal(field, m * r1.gens[s], r2.gens[s] * m)

    def test_no_intertwiner(self):
        r1 = rep(Q5, {"a": [[2, 0], [0, 3]]})
        r2 = rep(Q5, {"a": [[5, 0], [0, 7]]})
        assert find_invertible_intertwiner(r1, r2) == (None, 0)


def _reduced_words(symbols, max_len):
    """Oracle: every freely reduced word up to ``max_len``, shortlex order."""
    alphabet = [(s, e) for s in symbols for e in (1, -1)]
    for length in range(1, max_len + 1):
        for word in itertools.product(alphabet, repeat=length):
            if all(b != (a[0], -a[1]) for a, b in zip(word, word[1:])):
                yield word


# generators whose inverses are not polynomial over F3(T): det a = T + 2,
# det b = T^2
STREAM_CASES = [
    (F3, {"a": [["T", "1"], ["1", "1"]], "b": [["T", "1/T"], ["0", "T"]]}),
    (Q5, {"a": [[2, 1], [1, 1]], "b": [[3, "1/5"], [0, 5]]}),
    (R, {"a": [[2.0, 1.0], [1.0, 1.0]], "b": [[3.0, 0.2], [0.0, 5.0]]}),
]


class TestWords:
    def test_shortlex_order(self):
        rho = rep(Q5, {"a": [[2, 0], [0, 3]]})
        # a, a^-1, a a, a^-1 a^-1; a a^-1 (trace 2) is not freely reduced
        assert trace_fingerprint(rho, 2) == (5, Fraction(5, 6), 13, Fraction(13, 36))
        rho = rep(Q5, {"a": [[2, 0], [0, 3]], "b": [[1, 1], [0, 5]]})
        assert trace_fingerprint(rho, 1) == (5, Fraction(5, 6), 6, Fraction(6, 5))

    def test_fingerprint_counts(self):
        rho = rep(Q5, {"a": [[2, 0], [0, 3]], "b": [[1, 1], [0, 1]]})
        fp = trace_fingerprint(rho, 2)
        # 4 letters, then 4 * 3 reduced two-letter words
        assert len(fp) == 4 + 12

    @pytest.mark.parametrize("field, gens", [
        (F3, {"a": [["1/T", "T+1"], [1, "T"]], "b": [["T+2", "1/T+1"], [0, "T"]]}),
        (Q5, {"a": [["1/5", 2], [1, 3]], "b": [[2, "1/3"], [0, 5]]}),
    ])
    def test_fingerprint_is_word_traces(self, field, gens):
        # entries with denominators and generators whose inverses have them too
        rho = rep(field, gens)
        traces = []
        for word in _reduced_words(rho.symbols, 4):
            m = Matrix.identity(field, rho.n)
            for s, e in word:
                m = m * (rho.gens[s] if e == 1 else rho.gens[s].inv())
            traces.append(m.trace())
        assert trace_fingerprint(rho, 4) == tuple(traces)

    @pytest.mark.parametrize("field, gens", STREAM_CASES)
    def test_stream_answers_any_order_of_lengths(self, field, gens):
        # one stream per tuple: after length 4, the shorter lengths read
        # prefixes of it, equal to what a fresh tuple answers
        rho = rep(field, gens)
        got = {length: trace_fingerprint(rho, length) for length in (4, 1, 3, 2)}
        for length, fp in got.items():
            assert fp == trace_fingerprint(rep(field, gens), length)
            assert fp == got[4][:len(fp)]
            assert len(fp) == sum(1 for _ in _reduced_words(rho.symbols, length))

    def test_each_word_product_is_built_once(self, monkeypatch):
        # lengths 1..4 on one 2-generator tuple: one product per word of
        # length 2 to 4, 12 + 36 + 108 = 156, none for the 4 letters
        rho = rep(*STREAM_CASES[0])
        products = []
        mul = Matrix.__mul__

        def counted(self, other):
            products.append(1)
            return mul(self, other)

        monkeypatch.setattr(Matrix, "__mul__", counted)
        for length in range(1, 5):
            trace_fingerprint(rho, length)
        assert len(products) == sum(1 for _ in _reduced_words(rho.symbols, 4)) - 4 == 156

    def test_fingerprint_conjugation_invariant(self):
        rho = rep(Q5, {"a": [[2, 1], [0, 3]], "b": [[0, 1], [1, 0]]})
        h = Matrix.from_rows(Q5, [[1, 1], [2, 3]])
        assert trace_fingerprint(rho, 4) == trace_fingerprint(rho.conjugate_by(h), 4)
