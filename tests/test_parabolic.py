import random
from fractions import Fraction

import pytest

from localrep import (
    INFINITY,
    BlockStructure,
    Field,
    FundamentalSequence,
    Matrix,
    Representation,
    build_neighbors,
    contract_limit,
    semisimplify,
)
from localrep.errors import LeviMismatchError, NotParabolicError

Q5 = Field.padic(5)
F3 = Field.funcfield(3)
R = Field.real()
B11 = BlockStructure(2, (1, 1))


def explicit_path_report(rho_minus, rho_plus, blocks, seq, imax):
    """The degeneration report read off the explicit path, step by step.

    The oracle for the closed form of ``build_neighbors``: rho_i = u r N_i by
    matrix products with N_i = base^-i n base^i from ``conjugate_power``, its
    conjugate base^i rho_i base^-i likewise, the big cell from the leading
    block minors of every rho_i, and each table from the valuation (or
    magnitude) of every entry of rho_i - rho_minus (resp. of the conjugate
    minus rho_plus).  The report has no ``verdict``.
    """
    f = rho_minus.field
    ends = blocks.boundaries[1:]
    big_cell_ok = True
    tables = {"toward_lower": {}, "toward_upper": {}}
    for s in rho_minus.symbols:
        gm, gp = rho_minus.gens[s], rho_plus.gens[s]
        r = blocks.diagonal_part(gm)
        rinv = r.inv()
        u, n = gm * rinv, rinv * gp
        path, conj = [], []
        for i in range(imax + 1):
            rho_i = u * r * seq.conjugate_power(n, i)
            path.append(rho_i)
            conj.append(seq.conjugate_power(rho_i, -i))
            for end in ends:
                top = Matrix(f, tuple(row[:end] for row in rho_i.data[:end]))
                if f.is_zero(top.det(), top.entry_scale()):
                    big_cell_ok = False
        for key, mats, target in (("toward_lower", path, gm), ("toward_upper", conj, gp)):
            sc = max([target.entry_scale()] + [m.entry_scale() for m in mats])
            rows = []
            for i in range(gm.n):
                for j in range(gm.n):
                    diffs = [m.data[i][j] - target.data[i][j] for m in mats]
                    if f.is_real:
                        vals = [abs(d) for d in diffs]
                        keep = any(v > 1e-15 * max(1.0, sc) for v in vals)
                    else:
                        vals = [f.valuation(d) for d in diffs]
                        keep = any(v != INFINITY for v in vals)
                    if keep:
                        rows.append({"row": i, "col": j,
                                     "values": ["inf" if v == INFINITY else v for v in vals]})
            tables[key][s] = rows
    return {"blocks": list(blocks.sizes), "imax": imax,
            **tables, "big_cell_ok": big_cell_ok}


def opposite_pair(field, rng, sizes, symbols=("a", "b")):
    """A seeded lower/upper block triangular pair g- = u r, g+ = r n."""
    blocks = BlockStructure(sum(sizes), sizes)
    n = blocks.n
    owner = [bi for bi, size in enumerate(sizes) for _ in range(size)]
    choices = {"padic": [0, 1, -1, 2, 3, 5, -10, 25, "1/5", "2/25"],
               "funcfield": ["0", "1", "2", "T", "T+2", "2*T^2+1", "1/T"]}.get(field.kind)

    def draw():
        return rng.choice(choices) if choices else round(rng.uniform(-3, 3), 3)

    minus, plus = {}, {}
    for s in symbols:
        while True:
            r = Matrix.from_rows(field, [[draw() if owner[i] == owner[j] else 0
                                          for j in range(n)] for i in range(n)])
            if not field.is_zero(r.det(), r.entry_scale()):
                break
        u = Matrix.from_rows(field, [[1 if i == j else draw() if owner[i] > owner[j] else 0
                                      for j in range(n)] for i in range(n)])
        npart = Matrix.from_rows(field, [[1 if i == j else draw() if owner[i] < owner[j] else 0
                                          for j in range(n)] for i in range(n)])
        minus[s], plus[s] = u * r, r * npart
    return Representation(field, minus), Representation(field, plus), blocks


ORACLE_SHAPES = ((1, 1), (1, 2), (2, 1), (2, 2), (1, 1, 1), (1, 2, 1))


class TestLeviProject:
    """The Levi projection of a block triangular matrix is ``diagonal_part``."""

    def test_unipotent_projects_to_identity(self):
        g = Matrix.from_rows(Q5, [[1, 1], [0, 1]])
        assert B11.diagonal_part(g) == Matrix.identity(Q5, 2)

    def test_identity_on_block_diagonal(self):
        g = Matrix.from_rows(Q5, [[2, 0], [0, 3]])
        assert B11.diagonal_part(g) == g

    def test_multiplicative(self):
        rng = random.Random(8)
        blocks = BlockStructure(3, (1, 2))

        def rnd_upper():
            rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            rows[1][0] = rows[2][0] = 0
            m = Matrix.from_rows(Q5, rows)
            return m if not Q5.is_zero(m.det()) else rnd_upper()

        for _ in range(8):
            g, h = rnd_upper(), rnd_upper()
            assert blocks.is_block_triangular(g) and blocks.is_block_triangular(h)
            assert blocks.diagonal_part(g * h) == \
                blocks.diagonal_part(g) * blocks.diagonal_part(h)

    def test_not_parabolic_raises(self):
        """Only block triangular tuples are projected: a generator of the
        wrong side is refused before its diagonal part is read."""
        seq = FundamentalSequence.default(B11, Q5)
        lower = Representation.from_entries(Q5, {"a": [[1, 0], [1, 1]]})
        with pytest.raises(NotParabolicError):
            build_neighbors(lower, lower, B11, seq, 3)


class TestFundamentalSequence:
    def test_default_profile(self):
        seq = FundamentalSequence.default(BlockStructure(3, (1, 2)), Q5)
        # |c| = 5^-v(c): the first block is the largest
        vals = [Q5.valuation(seq.base.data[i][i]) for i in range(3)]
        assert vals[0] < vals[1] == vals[2]

    def test_rejects_flat_profile(self):
        with pytest.raises(NotParabolicError):
            FundamentalSequence(B11, Matrix.identity(Q5, 2))

    def test_rejects_non_diagonal(self):
        with pytest.raises(NotParabolicError):
            FundamentalSequence(B11, Matrix.from_rows(Q5, [["1/5", 1], [0, 1]]))

    def test_rejects_base_not_constant_within_a_block(self):
        with pytest.raises(NotParabolicError):
            FundamentalSequence(BlockStructure(3, (1, 2)), Matrix.diagonal(Q5, ["1/5", 1, 2]))

    def test_orders_magnitudes_by_valuation(self):
        # |5^-500| = 5^500 overflows a float; |5^470| and |5^480| underflow to 0.0
        FundamentalSequence(B11, Matrix.diagonal(Q5, [Fraction(1, 5 ** 500), 1]))
        FundamentalSequence(B11, Matrix.diagonal(Q5, [5 ** 470, 5 ** 480]))
        with pytest.raises(NotParabolicError):
            FundamentalSequence(B11, Matrix.diagonal(Q5, [5 ** 480, 5 ** 470]))


class TestContractLimit:
    def test_unit_increment_example(self):
        seq = FundamentalSequence(B11, Matrix.from_rows(Q5, [["1/5", 0], [0, 1]]))
        g = Matrix.from_rows(Q5, [[1, 1], [0, 1]])
        rpt = contract_limit(g, seq, 3)
        assert rpt.verdict == "CONVERGES_TO_LEVI"
        assert rpt.entries[0].values == (0, 1, 2, 3)
        assert seq.conjugate_power(g, 3).data[0][1] == Fraction(125)

    def test_stationary_on_block_diagonal(self):
        seq = FundamentalSequence.default(B11, Q5)
        g = Matrix.from_rows(Q5, [[2, 0], [0, 3]])
        rpt = contract_limit(g, seq, 4)
        assert rpt.stationary and rpt.verdict == "CONVERGES_TO_LEVI"
        assert rpt.limit == g

    def test_real_geometric_decay(self):
        seq = FundamentalSequence(B11, Matrix.from_rows(R, [[1.0, 0.0], [0.0, 0.5]]))
        g = Matrix.from_rows(R, [[2.0, 1.0], [0.0, 3.0]])
        rpt = contract_limit(g, seq, 20)
        assert rpt.verdict == "CONVERGES_TO_LEVI"
        assert abs(rpt.entries[0].values[-1] - 2.0 ** -20) < 1e-18
        assert rpt.entries[0].increments == (0.5,) * 20
        final = seq.conjugate_power(g, 20)
        assert abs(final.data[0][1]) < 1e-5
        assert final.data[0][0] == 2.0 and final.data[1][1] == 3.0

    def test_real_magnitude_underflow(self):
        # (1e-200)^2 underflows to 0.0; each increment is |x| = 1e-200 itself
        seq = FundamentalSequence(B11, Matrix.diagonal(R, [1.0, 1e-200]))
        g = Matrix.from_rows(R, [[1.0, 1.0], [0.0, 1.0]])
        rpt = contract_limit(g, seq, 4)
        assert rpt.verdict == "CONVERGES_TO_LEVI" and rpt.threshold_reached
        assert rpt.entries[0].values == (1.0, 1e-200, 0.0, 0.0, 0.0)
        assert rpt.entries[0].increments == (1e-200,) * 4

    def test_threshold_reached_at_imax(self):
        """Exact fields: the last value of every tracked entry reaches the
        valuation threshold (20), or the report says it did not."""
        seq = FundamentalSequence(B11, Matrix.from_rows(Q5, [["1/5", 0], [0, 1]]))
        g = Matrix.from_rows(Q5, [[1, 1], [0, 1]])
        assert contract_limit(g, seq, 19).threshold_reached is False
        assert contract_limit(g, seq, 20).threshold_reached is True

    def test_not_parabolic(self):
        seq = FundamentalSequence.default(B11, Q5)
        with pytest.raises(NotParabolicError):
            contract_limit(Matrix.from_rows(Q5, [[1, 0], [1, 1]]), seq, 3)

    @pytest.mark.parametrize("field", [Q5, F3, R], ids=["Q5", "F3T", "R"])
    @pytest.mark.parametrize("sizes", [(1, 2, 1), (2, 1, 1)], ids=["1-2-1", "2-1-1"])
    def test_matches_brute_force(self, field, sizes):
        """Tracked entries and values against base^-i g base^i formed entry by entry."""
        blocks = BlockStructure(4, sizes)
        seq = FundamentalSequence.default(blocks, field)
        owner = [b for b, size in enumerate(sizes) for _ in range(size)]
        choices = ([0, 0, 1, -1, 2, -3] if field.kind != "funcfield"
                   else ["0", "1", "2", "T", "T+1", "2*T+1"])
        rng = random.Random(f"contract:{field.kind}:{sizes}")
        imax = 6
        for _ in range(12):
            g = Matrix.from_rows(field, [
                [rng.choice(choices) if owner[i] <= owner[j] else 0 for j in range(4)]
                for i in range(4)])
            rpt = contract_limit(g, seq, imax)
            tracked = [(i, j) for i in range(4) for j in range(4)
                       if owner[i] < owner[j] and not field.is_zero(g.data[i][j])]
            assert [(e.row, e.col) for e in rpt.entries] == tracked
            assert rpt.stationary == (not tracked)
            assert rpt.verdict == "CONVERGES_TO_LEVI"
            assert rpt.limit == blocks.diagonal_part(g)
            for e in rpt.entries:
                brute = [seq.conjugate_power(g, i).data[e.row][e.col] for i in range(imax + 1)]
                if field.is_real:
                    assert list(e.values) == pytest.approx([abs(x) for x in brute], rel=1e-12)
                else:
                    assert list(e.values) == [field.valuation(x) for x in brute]

    def test_matches_semisimplification(self, exact_corpus):
        """The conjugation limit is the block-diagonal reduction, entry for entry."""
        for entry in exact_corpus[:8]:
            rho = entry.rep
            ss = semisimplify(rho)
            flag = ss.flag
            if len(flag.block_sizes) == 1:
                continue
            blocks = BlockStructure(rho.n, flag.block_sizes)
            seq = FundamentalSequence.default(blocks, rho.field)
            h = flag.basis_change
            hinv = h.inv()
            for s, m in rho.gens.items():
                t = hinv * m * h
                rpt = contract_limit(t, seq, 8)
                assert rpt.verdict == "CONVERGES_TO_LEVI", entry.name
                ss_in_flag = hinv * ss.rho_ss.gens[s] * h
                assert rpt.limit == ss_in_flag, entry.name
                assert blocks.is_block_triangular(t), entry.name
                assert rpt.limit == blocks.diagonal_part(t), entry.name


def contracts_by_last(nseq, seq):
    """Does base^-i n_i base^i reach the identity threshold by the last index?

    The list stands for a bounded sequence of block upper unitriangular
    matrices; unboundedness shows up as missing valuation growth, read off
    :func:`contract_limit` of the last member.
    """
    last = len(nseq) - 1
    return contract_limit(nseq[last], seq, last).threshold_reached


class TestContractUnipotent:
    def test_constant_sequence(self):
        seq = FundamentalSequence(B11, Matrix.from_rows(Q5, [["1/5", 0], [0, 1]]))
        ns = [Matrix.from_rows(Q5, [[1, 1], [0, 1]])] * 22
        assert contracts_by_last(ns, seq) is True

    def test_bounded_varying_sequence(self):
        seq = FundamentalSequence(B11, Matrix.from_rows(Q5, [["1/5", 0], [0, 1]]))
        ns = [Matrix.from_rows(Q5, [[1, i % 3], [0, 1]]) for i in range(25)]
        assert contracts_by_last(ns, seq) is True

    def test_unbounded_sequence_fails(self):
        seq = FundamentalSequence(B11, Matrix.from_rows(Q5, [["1/5", 0], [0, 1]]))
        ns = [Matrix.from_rows(Q5, [[1, Fraction(1, 5 ** i)], [0, 1]])
              for i in range(25)]
        assert contracts_by_last(ns, seq) is False

    def test_real_magnitude_underflow(self):
        seq = FundamentalSequence(B11, Matrix.diagonal(R, [1.0, 1e-200]))
        ns = [Matrix.from_rows(R, [[1.0, 1.0], [0.0, 1.0]])] * 5
        assert contracts_by_last(ns, seq) is True


class TestBuildNeighbors:
    def test_shared_levi_pair(self):
        seq = FundamentalSequence(B11, Matrix.from_rows(Q5, [["1/5", 0], [0, 1]]))
        rho_minus = Representation.from_entries(Q5, {"a": [[1, 0], [1, 1]]})
        rho_plus = Representation.from_entries(Q5, {"a": [[1, 1], [0, 1]]})
        trace = build_neighbors(rho_minus, rho_plus, B11, seq, 4)
        assert trace.big_cell_ok
        for e in trace.table_minus["a"]:
            incs = [b - a for a, b in zip(e.values, e.values[1:])]
            assert all(i == 1 for i in incs)

    def test_initial_point_is_urn(self):
        seq = FundamentalSequence.default(B11, Q5)
        rho_minus = Representation.from_entries(Q5, {"a": [[2, 0], [1, 3]]})
        rho_plus = Representation.from_entries(Q5, {"a": [[2, 1], [0, 3]]})
        trace = build_neighbors(rho_minus, rho_plus, B11, seq, 4)
        # at i = 0 the path starts at u * r * n' with the constructed parts
        got = trace.initial["a"]
        lev = Matrix.from_rows(Q5, [[2, 0], [0, 3]])
        u_part = rho_minus.gens["a"] * lev.inv()
        n_part = lev.inv() * rho_plus.gens["a"]
        assert got == u_part * lev * n_part
        assert trace.big_cell_ok

    def test_constant_when_equal_block_diagonal(self):
        seq = FundamentalSequence.default(B11, Q5)
        bd = Representation.from_entries(Q5, {"a": [[2, 0], [0, 3]]})
        trace = build_neighbors(bd, bd, B11, seq, 3)
        assert trace.big_cell_ok
        assert all(not traces for traces in trace.table_minus.values())

    def test_levi_mismatch(self):
        seq = FundamentalSequence.default(B11, Q5)
        with pytest.raises(LeviMismatchError):
            build_neighbors(
                Representation.from_entries(Q5, {"a": [[2, 0], [0, 3]]}),
                Representation.from_entries(Q5, {"a": [[3, 0], [0, 2]]}),
                B11, seq, 3)

    def test_crossing_does_not_spoil_the_verdict(self):
        """Entry (2, 1) of the upper table reads 1, 1, 2, ...: two terms tie at
        step 1 and cancel, yet every ratio has valuation >= 1."""
        blocks = BlockStructure(3, (1, 1, 1))
        rho_minus = Representation.from_entries(Q5, {"a": [[1, 0, 0], [-1, 1, 0], [-1, -1, 2]]})
        rho_plus = Representation.from_entries(Q5, {"a": [[1, 4, 0], [0, 1, 0], [0, 0, 2]]})
        trace = build_neighbors(rho_minus, rho_plus, blocks,
                                FundamentalSequence.default(blocks, Q5), 12)
        entry = [e for e in trace.table_plus["a"] if (e.row, e.col) == (2, 1)]
        assert entry[0].values == (1,) + tuple(range(1, 13))
        assert trace.to_json_dict()["verdict"] is True

    @pytest.mark.parametrize("field", [Q5, F3], ids=["Q5", "F3T"])
    @pytest.mark.parametrize("sizes", ORACLE_SHAPES)
    def test_matches_explicit_path_exact(self, field, sizes):
        rng = random.Random(f"oracle:{field}:{sizes}")
        for _ in range(3):
            rho_minus, rho_plus, blocks = opposite_pair(field, rng, sizes)
            seq = FundamentalSequence.default(blocks, field)
            imax = rng.randint(6, 40)
            got = build_neighbors(rho_minus, rho_plus, blocks, seq, imax).to_json_dict()
            want = explicit_path_report(rho_minus, rho_plus, blocks, seq, imax)
            # every term's ratio has valuation >= 1: the path converges
            assert got.pop("verdict") is True
            assert got == want

    @pytest.mark.parametrize("sizes", ORACLE_SHAPES)
    def test_matches_explicit_path_real(self, sizes):
        rng = random.Random(f"oracle:R:{sizes}")
        for _ in range(3):
            rho_minus, rho_plus, blocks = opposite_pair(R, rng, sizes)
            seq = FundamentalSequence.default(blocks, R)
            imax = rng.randint(6, 30)
            got = build_neighbors(rho_minus, rho_plus, blocks, seq, imax).to_json_dict()
            want = explicit_path_report(rho_minus, rho_plus, blocks, seq, imax)
            assert got["big_cell_ok"] == want["big_cell_ok"]
            # every ratio c_q/c_p has |x| <= 1/2: the path converges
            assert got["verdict"] == got["big_cell_ok"]
            for key in ("toward_lower", "toward_upper"):
                for sym, rows in want[key].items():
                    # rho_i - rho_minus, taken on the path, leaves a constant
                    # rounding residue (about 1e-14) in some entries that are
                    # exactly zero; the closed form has none
                    rows = [e for e in rows if max(e["values"]) > 1e-12]
                    assert [(e["row"], e["col"]) for e in got[key][sym]] == \
                        [(e["row"], e["col"]) for e in rows]
                    for e, w in zip(got[key][sym], rows):
                        for v, ov in zip(e["values"], w["values"]):
                            if ov > 1e-9:
                                assert v == pytest.approx(ov, rel=1e-6, abs=0)

    def test_real_convergent_path_is_verified(self):
        """The first real (1, 1) oracle pair, imax 14: a magnitude that has not
        yet fallen below 1e-7 by the last step read as no convergence, though
        every ratio is 1/2."""
        rng = random.Random("oracle:R:(1, 1)")
        rho_minus, rho_plus, blocks = opposite_pair(R, rng, (1, 1))
        imax = rng.randint(6, 30)
        assert imax == 14
        trace = build_neighbors(rho_minus, rho_plus, blocks,
                                FundamentalSequence.default(blocks, R), imax)
        assert any(e.values[-1] > 1e-7 for t in (trace.table_minus, trace.table_plus)
                   for e in t["a"] + t["b"])
        assert trace.to_json_dict()["verdict"] is True

    def test_cost_does_not_grow_with_imax(self, monkeypatch):
        calls = {"det": 0, "mul": 0, "conjugate_power": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(Matrix, "det", counted("det", Matrix.det))
        monkeypatch.setattr(Matrix, "__mul__", counted("mul", Matrix.__mul__))
        monkeypatch.setattr(FundamentalSequence, "conjugate_power",
                            counted("conjugate_power", FundamentalSequence.conjugate_power))
        rho_minus, rho_plus, blocks = opposite_pair(F3, random.Random("cost"), (1,) * 5)
        seq = FundamentalSequence.default(blocks, F3)
        counts = []
        for imax in (6, 64):
            for key in calls:
                calls[key] = 0
            trace = build_neighbors(rho_minus, rho_plus, blocks, seq, imax)
            assert trace.big_cell_ok
            counts.append(dict(calls))
        assert counts[0] == counts[1]

    def test_real_tables_carry_no_cancellation(self):
        """|m| |x|^i to rounding, where rho_i - rho_minus would lose every digit."""
        a, b, c, d = 0.7, 0.9, 0.3, 1.1
        rm = Representation.from_entries(R, {"a": [[a, 0], [c, d]]})
        rp = Representation.from_entries(R, {"a": [[a, b], [0, d]]})
        trace = build_neighbors(rm, rp, B11, FundamentalSequence.default(B11, R), 40)
        assert trace.big_cell_ok
        expect = {"minus": {(0, 1): b, (1, 1): c * b / a},
                  "plus": {(1, 0): c, (1, 1): c / a * b}}
        for side, table in (("minus", trace.table_minus), ("plus", trace.table_plus)):
            assert {(e.row, e.col) for e in table["a"]} == set(expect[side])
            for e in table["a"]:
                m = expect[side][(e.row, e.col)]
                for i, v in enumerate(e.values):
                    assert v == pytest.approx(abs(m) * 0.5 ** i, rel=1e-12, abs=0)

    def test_real_variant(self):
        seq = FundamentalSequence.default(B11, R)
        rm = Representation.from_entries(R, {"a": [[2, 0], [1, 0.5]]})
        rp = Representation.from_entries(R, {"a": [[2, 1], [0, 0.5]]})
        trace = build_neighbors(rm, rp, B11, seq, 40)
        assert trace.big_cell_ok
