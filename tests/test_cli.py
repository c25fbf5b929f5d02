import io
import json
import random
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from localrep import Field
from localrep.cli import JobSpec, _build_parser, main, run
from localrep.errors import LocalRepError, ParseError
from localrep.jsonio import (
    representation_from_json,
    representation_to_json,
    round_floats,
)

from conftest import GEOMETRY_FAULT_CONJUGATOR, GEOMETRY_FAULT_UPPER, conj, mk


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


TRIANGULAR = {
    "field": {"type": "padic", "p": 5},
    "n": 2,
    "generators": {"a": [["1", "1"], ["0", "1"]]},
}

REAL_DIAG = {
    "field": {"type": "real"},
    "n": 2,
    "generators": {"a": [["2.0", "0.0"], ["0.0", "0.5"]]},
}


class TestRoundTrip:
    @pytest.mark.parametrize("payload", [
        TRIANGULAR,
        REAL_DIAG,
        {"field": {"type": "funcfield", "p": 3}, "n": 2,
         "generators": {"a": [["T", "1"], ["0", "1/T"]]}},
    ])
    def test_emitted_representation_reparses_equal(self, payload):
        rho = representation_from_json(payload)
        assert representation_from_json(representation_to_json(rho)) == rho

    def test_round_floats(self):
        assert round_floats(1.23456789012345678) == 1.23456789012
        assert round_floats({"x": [1.0 / 3.0]}) == {"x": [0.333333333333]}


class TestRun:
    def test_analyze_triangular(self, tmp_path):
        job = JobSpec(command="analyze", input=write(tmp_path, "r.json", TRIANGULAR))
        code, payload = run(job)
        assert code == 0
        assert payload["nonparabolic"] is False
        assert payload["cr"] is False
        assert payload["ss"]["generators"]["a"] == [["1", "0"], ["0", "1"]]

    def test_semisimplify(self, tmp_path):
        job = JobSpec(command="semisimplify",
                      input=write(tmp_path, "r.json", TRIANGULAR))
        code, payload = run(job)
        assert code == 0
        assert payload["block_sizes"] == [1, 1]

    def test_counterexample(self):
        job = JobSpec(command="counterexample", p=5, t="1/5", imax=12)
        code, payload = run(job)
        assert code == 0
        assert payload["verdict"] is True
        assert payload["valuation_sequence"][:3] == [-1, 1, 3]

    def test_separate_conjugate_pair(self, tmp_path):
        base = {"field": {"type": "padic", "p": 5}, "n": 2,
                "generators": {"a": [["2", "0"], ["0", "3"]]}}
        conj = {"field": {"type": "padic", "p": 5}, "n": 2,
                "generators": {"a": [["2", "1"], ["0", "3"]]}}
        path = write(tmp_path, "fam.json", {"family": [base, conj]})
        code, payload = run(JobSpec(command="separate", input=path))
        assert code == 0
        assert payload["matrix"] == [[True, True], [True, True]]

    def test_minimize_real(self, tmp_path):
        job = JobSpec(command="minimize", input=write(tmp_path, "r.json", REAL_DIAG))
        code, payload = run(job)
        assert code == 0
        assert payload["status"] == "ATTAINED"

    def test_degenerate(self, tmp_path):
        minus = {"field": {"type": "padic", "p": 5}, "n": 2,
                 "generators": {"a": [["2", "0"], ["1", "3"]]}}
        plus = {"field": {"type": "padic", "p": 5}, "n": 2,
                "generators": {"a": [["2", "1"], ["0", "3"]]}}
        job = JobSpec(command="degenerate",
                      input=write(tmp_path, "m.json", minus),
                      input2=write(tmp_path, "p.json", plus),
                      imax=6)
        code, payload = run(job)
        assert code == 0
        assert payload["verdict"] is True and payload["blocks"] == [1, 1]

    # (minus, plus, finest blocks): minus block lower, plus block upper, one Levi part
    @pytest.mark.parametrize("minus, plus, blocks", [
        ([[2, 0, 0, 0], [1, 1, 1, 0], [0, 1, 2, 0], [0, 0, 1, 3]],
         [[2, 1, 0, 0], [0, 1, 1, 0], [0, 1, 2, 1], [0, 0, 0, 3]], [1, 2, 1]),
        ([[1, 1, 0, 0], [1, 2, 0, 0], [1, 0, 2, 1], [0, 0, 1, 1]],
         [[1, 1, 0, 1], [1, 2, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]], [2, 2]),
        ([[2, 1, 0, 0], [0, 2, 1, 0], [0, 0, 2, 1], [0, 0, 0, 2]],
         [[2, 1, 0, 0], [0, 2, 1, 0], [0, 0, 2, 1], [0, 0, 0, 2]], [4]),
    ], ids=["1-2-1", "2-2", "4"])
    def test_degenerate_infers_the_finest_blocks(self, tmp_path, minus, plus, blocks):
        def rep4(rows):
            return {"field": {"type": "padic", "p": 5}, "n": 4,
                    "generators": {"a": [[str(x) for x in r] for r in rows]}}

        job = JobSpec(command="degenerate",
                      input=write(tmp_path, "m.json", rep4(minus)),
                      input2=write(tmp_path, "p.json", rep4(plus)),
                      imax=6)
        code, payload = run(job)
        assert code == 0
        assert payload["blocks"] == blocks and payload["verdict"] is True

    def test_tree(self, tmp_path):
        treerep = {"field": {"type": "padic", "p": 5}, "n": 2,
                   "generators": {"a": [["1/5", "0"], ["0", "5"]]}}
        job = JobSpec(command="tree", input=write(tmp_path, "t.json", treerep),
                      radius=3)
        code, payload = run(job)
        assert code == 0
        assert payload["generators"]["a"]["translation_length"] == 2

    def test_option_ranges(self):
        with pytest.raises(ParseError):
            JobSpec(command="analyze", imax=0)
        with pytest.raises(ParseError):
            JobSpec(command="tree", radius=9)


class TestMainExitCodes:
    def test_parse_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ nope")
        assert main(["analyze", "--input", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    @pytest.mark.xfail(strict=True, reason=(
        "Echelon.reduced zeroes the pivot of the stored row (0, 1), since "
        "1 <= 1e-9 * 3e9, so spin returns a zero row and the adapted basis is "
        "2 x 3: DIMENSION_MISMATCH, exit 3 (ROADMAP items 5 and 11)"))
    def test_real_pair_with_a_wide_diagonal_is_not_cr(self, tmp_path, capsys):
        path = write(tmp_path, "r.json", {
            "field": {"type": "real"},
            "n": 2,
            "generators": {"a": [["1", "0"], ["0", "3e9"]], "b": [["1", "0"], ["1", "1"]]},
        })
        assert main(["analyze", "--input", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["cr"] is False
        assert report["flag"]["block_sizes"] == [1, 1]

    def test_precondition_is_3(self, tmp_path, capsys):
        path = write(tmp_path, "r.json", TRIANGULAR)
        assert main(["minimize", "--input", path]) == 3
        assert "NOT_REAL_FIELD" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, code", [
        (REAL_DIAG, "PRIME_MISMATCH"),
        ({"field": {"type": "padic", "p": 5}, "n": 1, "generators": {"a": [["5"]]}},
         "DIMENSION_MISMATCH"),
    ], ids=["real", "1x1"])
    def test_tree_on_the_wrong_input_names_its_code(self, tmp_path, capsys, payload, code):
        path = write(tmp_path, "r.json", payload)
        assert main(["tree", "--input", path]) == 3
        assert capsys.readouterr().err == (
            f"error [{code}]: tree analysis needs a 2x2 p-adic input\n")

    def test_zero_denominator_literal_is_2(self, tmp_path):
        path = write(tmp_path, "r.json", {
            "field": {"type": "funcfield", "p": 3},
            "n": 2,
            "generators": {"a": [["T/0", "1"], ["0", "1"]]},
        })
        proc = subprocess.run(
            [sys.executable, "-m", "localrep.cli", "analyze", "--input", path],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and "zero denominator" in proc.stderr

    @pytest.mark.parametrize("command, text, message", [
        ("analyze", json.dumps(dict(TRIANGULAR, field="real")), "field descriptor"),
        ("analyze", json.dumps(dict(TRIANGULAR, field=["padic", 5])), "field descriptor"),
        ("analyze", json.dumps(dict(TRIANGULAR, generators=[["1", "1"], ["0", "1"]])),
         "generators"),
        ("analyze", json.dumps(dict(TRIANGULAR, generators={"a": "1101"})), "list of rows"),
        ("analyze", json.dumps(dict(TRIANGULAR, generators={"a": ["11", "01"]})),
         "row 0"),
        ("separate", json.dumps([TRIANGULAR, "member"]), "expected an object"),
        ("separate", json.dumps([TRIANGULAR, dict(TRIANGULAR, field="real")]),
         "field descriptor"),
        ("analyze", "[" * 100000, "unreadable JSON"),
    ], ids=["field-string", "field-list", "generators-list", "rows-string", "row-string",
            "member-string", "member-field-string", "deep-nesting"])
    def test_malformed_shape_is_2(self, tmp_path, command, text, message):
        path = tmp_path / "r.json"
        path.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "localrep.cli", command, "--input", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and message in proc.stderr

    def test_non_utf8_file_is_2(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(TRIANGULAR).encode())
        proc = subprocess.run(
            [sys.executable, "-m", "localrep.cli", "analyze", "--input", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and "unreadable JSON" in proc.stderr

    @pytest.mark.parametrize("argv, message", [
        (["--p", "4", "--t", "1/4"], "needs a prime"),
        (["--p", "5", "--t", "abc"], "bad rational literal"),
        (["--p", "5", "--t", "1/0"], "bad rational literal"),
        (["--p", "5", "--t", "1e-1000"], "digits"),
    ])
    def test_bad_counterexample_parameter_is_2(self, argv, message):
        proc = subprocess.run(
            [sys.executable, "-m", "localrep.cli", "counterexample", *argv],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and message in proc.stderr

    def test_seed_option_is_2(self, tmp_path):
        # the probe batches have one fixed seed, so no option sets it
        path = write(tmp_path, "r.json", TRIANGULAR)
        proc = subprocess.run(
            [sys.executable, "-m", "localrep.cli", "analyze", "--input", path, "--seed", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage: localrep")
        assert "Traceback" not in proc.stderr
        assert "unrecognized arguments: --seed 1" in proc.stderr

    def test_real_pair_with_a_singular_levi_part_is_3(self, tmp_path, capsys):
        # the Levi parts diag(1, 0) are singular, and so are both generators
        minus = write(tmp_path, "m.json", {"field": {"type": "real"}, "n": 2,
                                           "generators": {"a": [["1", "0"], ["5", "0"]]}})
        plus = write(tmp_path, "p.json", {"field": {"type": "real"}, "n": 2,
                                          "generators": {"a": [["1", "3"], ["0", "0"]]}})
        assert main(["degenerate", "--input", minus, "--input2", plus]) == 3
        assert "SINGULAR" in capsys.readouterr().err

    def test_small_real_generators_are_not_singular(self, tmp_path, capsys):
        # det a = 1e-9 is not zero; the rank test of Matrix.is_singular says so
        def analyze(c):
            path = write(tmp_path, "r.json", {
                "field": {"type": "real"},
                "n": 3,
                "generators": {
                    "a": [[str(c), "0", "0"], ["0", str(c), "0"], ["0", "0", str(c)]],
                    "b": [[str(c), str(c), "0"], ["0", str(c), "0"], ["0", "0", str(2 * c)]],
                },
            })
            assert main(["analyze", "--input", path]) == 0
            report = json.loads(capsys.readouterr().out)
            return report["cr"], report["nonparabolic"], report["flag"]["block_sizes"]

        assert analyze(0.001) == analyze(1)

    def test_ill_conditioned_minimiser_is_0(self, tmp_path):
        # the minimiser has condition 2.8e7, so the rounding of its log det
        # is above 1e-9
        a = [[-3, 55, 60, -180], [-10, -84, -92, 196], [10, 48, 53, -88], [0, -11, -12, 33]]
        b = [[68, 239, 288, -294], [-86, -283, -340, 320], [43, 135, 162, -142],
             [-11, -40, -48, 52]]
        path = write(tmp_path, "r.json", {
            "field": {"type": "real"},
            "n": 4,
            "generators": {s: [[str(x) for x in row] for row in m]
                           for s, m in (("a", a), ("b", b))},
        })
        proc = subprocess.run(
            [sys.executable, "-m", "localrep.cli", "minimize", "--input", path],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        report = json.loads(proc.stdout)
        assert report["status"] == "ATTAINED"
        assert abs(report["lambda"] - 2.34472065177) <= 1e-9

    def test_singular_generator_is_3(self, tmp_path, capsys):
        path = write(tmp_path, "r.json", {
            "field": {"type": "padic", "p": 5},
            "n": 2,
            "generators": {"a": [["1", "2"], ["2", "4"]]},
        })
        assert main(["analyze", "--input", path]) == 3
        assert "SINGULAR" in capsys.readouterr().err

    def test_other_constructor_failure_is_2(self, tmp_path, capsys):
        path = write(tmp_path, "r.json", {
            "field": {"type": "padic", "p": 5},
            "generators": {"a": [["1", "0"], ["0", "1"]], "b": [["1"]]},
        })
        assert main(["analyze", "--input", path]) == 2
        assert "mixed sizes" in capsys.readouterr().err

    def test_success_is_0(self, tmp_path, capsys):
        path = write(tmp_path, "r.json", TRIANGULAR)
        assert main(["analyze", "--input", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1

    def test_separate_trace_blind_pair(self, tmp_path, capsys):
        # equal word traces over F3(T), yet not conjugate: dim Hom 1, dim End 10
        def member(x):
            return {"field": {"type": "funcfield", "p": 3}, "n": 4, "generators": {"a": [
                [x, "0", "0", "0"], ["0", x, "0", "0"], ["0", "0", x, "0"],
                ["0", "0", "0", "T+1"]]}}

        path = write(tmp_path, "fam.json", {"family": [member("T"), member("T+2")]})
        assert main(["separate", "--input", path]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["matrix"] == [[True, False], [False, True]]
        assert "inconclusive" not in out

    def test_byte_identical_reports(self, tmp_path, capsys):
        path = write(tmp_path, "r.json", REAL_DIAG)
        assert main(["minimize", "--input", path]) == 0
        first = capsys.readouterr().out
        assert main(["minimize", "--input", path]) == 0
        second = capsys.readouterr().out
        assert first == second and first

    def test_console_entry_point(self, tmp_path):
        path = write(tmp_path, "r.json", TRIANGULAR)
        proc = subprocess.run(
            [sys.executable, "-m", "localrep.cli", "analyze", "--input", path],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["cr"] is False


# the options cli.run reads for each command; every other (command, option)
# pair is refused by the parser
READ_OPTIONS = {
    "analyze": {"input"},
    "semisimplify": {"input"},
    "separate": {"input", "budget"},
    "minimize": {"input", "budget"},
    "tree": {"input", "radius"},
    "degenerate": {"input", "input2", "imax", "blocks"},
    "counterexample": {"p", "t", "imax", "radius"},
}
OPTION_VALUES = {"input": "r.json", "input2": "s.json", "imax": "6", "radius": "3",
                 "budget": "7", "p": "5", "t": "1/5", "blocks": "1,1"}


class TestOptionSurface:
    @pytest.mark.parametrize("command", sorted(READ_OPTIONS))
    @pytest.mark.parametrize("option", sorted(OPTION_VALUES))
    def test_each_command_takes_only_the_options_it_reads(self, command, option, capsys):
        argv = [command, f"--{option}", OPTION_VALUES[option]]
        if option in READ_OPTIONS[command]:
            parsed = vars(_build_parser().parse_args(argv))
            assert str(parsed[option]) == OPTION_VALUES[option]
            with pytest.raises(SystemExit) as exc:
                main([command, "--help"])
            assert exc.value.code == 0
            assert f"--{option} " in capsys.readouterr().out
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: localrep")
            assert "unrecognized arguments" in err and "Traceback" not in err


# the CLI contract under fuzzed files and options: every run exits 0, 2 or 3,
# writes no traceback, and prints one JSON report when it exits 0

#: value draws that are mostly good: (values that parse, values that do not)
FIELDS = (({"type": "padic", "p": 5}, {"type": "padic", "p": 3},
           {"type": "funcfield", "p": 3}, {"type": "real"}),
          ({"type": "padic", "p": 4}, {"type": "funcfield"}, {"type": "complex"}, "real"))
LITERALS = {  # per field type; the nonzero good literals come first
    "padic": (("1", "-1", "2", "3", "5", "1/5", "-7/25", "10", "0"), ("x", "1/0", "", "1.5.2")),
    "funcfield": (("1", "2", "T", "T+1", "2*T", "1/T", "T^2+2", "T/T+1", "0"), ("T/0", "S", "T^")),
    "real": (("1", "-2.5", "0.5", "3", "1e-3", "1e10", "1/3", "0"), ("nan", "inf", "x")),
}
OPTION_VALUES_FUZZ = {
    "imax": (("1", "6", "12"), ("0", "65", "x")),
    "radius": (("1", "3", "6"), ("0", "7")),
    "budget": (("1", "7", "30"), ("0", "100001")),
    "p": (("2", "3", "5"), ("4", "1", "-5")),
    "t": (("1/5", "1/3", "1/2", "25/2", "5"), ("1", "0", "x", "1/0")),
    "blocks": (("1,1", "1,2", "2,1", "1,1,1", "3"), ("2", "x", "0,2")),
}
JUNK_FILES = ("{", "[]", "null", "\"x\"", '{"field": {"type": "real"}}',
              '{"field": {"type": "real"}, "generators": {"a": [[1, 2]]}}')
#: seconds one fuzzed run may take
FUZZ_RUN_SECONDS = 20


def _mostly(rng, draws, bad_share=0.1):
    good, bad = draws
    return rng.choice(bad if rng.random() < bad_share else good)


def _fuzzed_shape(rng):
    return _mostly(rng, FIELDS), rng.randint(1, 3), rng.choice(("a", "ab"))


def _fuzzed_representation(rng, descriptor, n, symbols):
    """A representation object, upper triangular with a nonzero diagonal half the time."""
    kind = descriptor.get("type") if isinstance(descriptor, dict) else None
    good, bad = LITERALS.get(kind, LITERALS["padic"])
    gens = {}
    for s in symbols:
        size = _mostly(rng, ((n,), (1, 2, 3)))
        triangular = rng.random() < 0.5
        gens[s] = [[_mostly(rng, (good, bad), 0.02) if not triangular or j > i else
                    rng.choice(good[:-1]) if j == i else "0"
                    for j in range(size)] for i in range(size)]
    return {"field": descriptor, "n": n, "generators": gens}


def _fuzzed_argv(rng, command, folder):
    """``command`` with each option it reads given nine times in ten, the
    input files written under ``folder``."""
    shape = _fuzzed_shape(rng)
    rho = _fuzzed_representation(rng, *shape)
    argv = [command]
    for option in sorted(READ_OPTIONS[command]):
        if rng.random() < 0.1:
            continue
        if option not in ("input", "input2"):
            argv += [f"--{option}", _mostly(rng, OPTION_VALUES_FUZZ[option])]
            continue
        path = folder / f"{option}.json"
        if rng.random() < 0.1:
            text = rng.choice(JUNK_FILES)
        elif command == "separate":
            # the other members mostly share the first one's field, size and symbols
            others = [shape if rng.random() < 0.9 else _fuzzed_shape(rng)
                      for _ in range(rng.randint(0, 2))]
            family = [rho] + [_fuzzed_representation(rng, *o) for o in others]
            text = json.dumps({"family": family} if rng.random() < 0.5 else family)
        elif option == "input" and command == "degenerate" and rng.random() < 0.5:
            # the transposes: block lower triangular, with rho's Levi part
            text = json.dumps(dict(rho, generators={
                s: [list(col) for col in zip(*m)] for s, m in rho["generators"].items()}))
        else:
            text = json.dumps(rho)
        path.write_text(text)
        argv += [f"--{option}", str(path)]
    return argv


class TestCliContractFuzz:
    """ROADMAP item 5's contract over representation and family files (n <= 3,
    at most two generators, at most three members) and the 16 (command,
    option) pairs; each seed draws one run."""

    @given(command=st.sampled_from(sorted(READ_OPTIONS)), seed=st.integers(0, 2 ** 32))
    @settings(max_examples=1500, derandomize=True, deadline=None)
    def test_exit_code_stderr_and_report(self, tmp_path_factory, command, seed):
        argv = _fuzzed_argv(random.Random(seed), command, tmp_path_factory.mktemp("fuzz"))
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the installed script prints them and goes on
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses a value
                code = exc.code
        event(f"{command} exits {code}")
        assert time.perf_counter() - start < FUZZ_RUN_SECONDS, argv
        assert code in (0, 2, 3), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert json.loads(out.getvalue())["command"] == command


class TestFuzzFindings:
    """Runs the contract fuzz above once ended in a traceback."""

    @staticmethod
    def cli(*argv):
        proc = subprocess.run([sys.executable, "-m", "localrep.cli", *argv],
                              capture_output=True, text=True, timeout=60)
        assert "Traceback" not in proc.stderr
        return proc.returncode, proc.stderr

    def test_separate_without_input(self):
        assert self.cli("separate") == (2, "error: missing --input\n")

    @pytest.mark.parametrize("budget, a, b", [
        # the cr verdict holds, and the gradient at the minimiser overflows
        ("30", [["1/3", "1", "1/3"], ["-2.5", "1/3", "3"], ["0", "1e10", "1"]],
         [["1", "3", "1/3"], ["0", "3", "0.5"], ["0", "0", "-2.5"]]),
        # the budget runs out, and the gradient at the last point overflows
        ("1", [["3", "1", "1e-3"], ["-2.5", "0.5", "1/3"], ["1e10", "3", "0"]],
         [["0.5", "0", "-2.5"], ["0", "0.5", "1e-3"], ["0", "0", "-2.5"]]),
    ])
    def test_minimize_with_an_overflowing_gradient(self, tmp_path, budget, a, b):
        path = write(tmp_path, "r.json", {"field": {"type": "real"}, "n": 3,
                                          "generators": {"a": a, "b": b}})
        code, err = self.cli("minimize", "--budget", budget, "--input", path)
        assert (code, err.splitlines()[-1]) == (
            3, "error [FLOAT_OVERFLOW]: the report holds inf: a float computation overflowed")


def _integer_matrix(n):
    return st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                    min_size=n, max_size=n)


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([r[:j] + r[j + 1:] for r in m[1:]])
               for j in range(len(m)))


def _pair(n, upper):
    """Two n x n integer matrices; zeroed below the diagonal when ``upper``."""
    return st.tuples(_integer_matrix(n), _integer_matrix(n)).map(
        lambda pair: tuple([[0 if upper and j < i else x for j, x in enumerate(row)]
                            for i, row in enumerate(m)] for m in pair))


# upper triangular pairs are reducible, so about half the draws are not cr
invertible_pairs = st.tuples(st.integers(2, 3), st.booleans()).flatmap(
    lambda shape: _pair(*shape)
).filter(lambda pair: _det(pair[0]) != 0 and _det(pair[1]) != 0)


class TestMinimizeVerdict:
    """The minimiser's status is the cr verdict of ``analyze``."""

    def test_geometry_fault_diverges_without_traceback(self, tmp_path):
        rho = conj(mk(Field.real(), GEOMETRY_FAULT_UPPER), GEOMETRY_FAULT_CONJUGATOR)
        path = write(tmp_path, "fault.json", representation_to_json(rho))
        proc = subprocess.run(
            [sys.executable, "-m", "localrep.cli", "minimize", "--input", path],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["status"] == "DIVERGED"

    @given(invertible_pairs)
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_diverged_exactly_when_not_cr(self, tmp_path_factory, pair):
        path = write(tmp_path_factory.mktemp("pair"), "r.json", {
            "field": {"type": "real"},
            "n": len(pair[0]),
            "generators": {s: [[str(x) for x in row] for row in m]
                           for s, m in zip("ab", pair)},
        })
        try:
            _, minimized = run(JobSpec(command="minimize", input=path, budget=300))
            _, analyzed = run(JobSpec(command="analyze", input=path))
        except LocalRepError:
            return
        assert (minimized["status"] == "DIVERGED") == (analyzed["cr"] is False)


BIG_P = 1000000000000000003  # prime, near 10^18


class TestHostileInputCost:
    """Tree jobs whose cost once grew like p^radius or p^|v(t)|."""

    @staticmethod
    def report(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "localrep.cli", *argv],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        return json.loads(proc.stdout)

    @pytest.mark.parametrize("imax", [12, 64])
    def test_counterexample_far_fixed_vertex(self, imax):
        payload = self.report("counterexample", "--p", "5", "--t", "1e-999",
                              "--imax", str(imax))
        assert payload["verdict"] is True
        assert payload["fixed_vertex_distance"] == 999
        assert payload["translation_length"] == 1998
        # base^-i g2 base^i has corner t^(1-2i), of valuation 999 (2i - 1)
        assert payload["valuation_sequence"] == [999 * (2 * i - 1) for i in range(imax + 1)]
        assert payload["increments"] == [1998] * imax

    def test_counterexample_huge_prime(self):
        payload = self.report("counterexample", "--p", str(BIG_P), "--t", f"1/{BIG_P}")
        assert payload["verdict"] is True
        assert payload["fixed_vertex"] == [0, 0, 1]

    def test_q5_companion_with_a_long_constant(self, tmp_path):
        # x^2 - (10^22 + 3): rational eigenvalues were once sought by trial
        # division up to the square root of the constant
        path = write(tmp_path, "c.json", {
            "field": {"type": "padic", "p": 5},
            "generators": {"a": [["0", "10000000000000000000003"], ["1", "0"]]}})
        assert self.report("analyze", "--input", path)["nonparabolic"] is True

    def test_tree_huge_prime_base_off_min(self, tmp_path):
        # a fixes the lattices 6 edges out; b translates along an axis 3 edges out
        path = write(tmp_path, "t.json", {
            "field": {"type": "padic", "p": BIG_P}, "n": 2,
            "generators": {"a": [["1", f"1/{BIG_P ** 6}"], ["0", "1"]],
                           "b": [[str(BIG_P), f"{1 - BIG_P}/{BIG_P ** 3}"], ["0", "1"]]}})
        gens = self.report("tree", "--radius", "6", "--input", path)["generators"]
        assert gens["a"] == {"translation_length": 0, "witness": [0, 0, 6],
                             "displacement_at_base": 12}
        assert gens["b"] == {"translation_length": 1, "witness": [0, 0, 3],
                             "displacement_at_base": 7}


class TestLazyNumpy:
    """Only real-field geometry needs numpy; exact-field jobs never load it."""

    def test_exact_field_analyze_leaves_numpy_unloaded(self, tmp_path):
        path = write(tmp_path, "t.json", TRIANGULAR)
        code = ("import sys\n"
                "from localrep.cli import JobSpec, run\n"
                f"assert run(JobSpec('analyze', input={path!r}))[0] == 0\n"
                "print('numpy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_symspace_names_still_import_from_the_package(self):
        import localrep
        from localrep import ATTAINED, minimize_displacement
        from localrep import symspace

        assert minimize_displacement is symspace.minimize_displacement
        assert ATTAINED == symspace.ATTAINED
        with pytest.raises(AttributeError):
            getattr(localrep, "no_such_name")

    def test_every_exported_name_resolves(self):
        import localrep

        assert len(set(localrep.__all__)) == len(localrep.__all__)
        for name in localrep.__all__:
            assert getattr(localrep, name) is not None, name
        assert localrep._SYMSPACE_NAMES <= set(localrep.__all__)
