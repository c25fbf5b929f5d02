"""Golden reports: the output of every command pinned byte for byte.

Each `analyze`/`semisimplify` case is a small fixed input over R, Q5 or
F3(T): irreducible, split (reducible and completely reducible) or
non-split.  Each `separate` case is a small family whose evidence strings
take every route: a fingerprint mismatch past the generators' own traces,
a conjugator, and the Hom/End dimensions of a trace-blind pair.  The
`tree`, `counterexample`, `degenerate` and `minimize` cases are whole jobs
with their options.  The expected text in ``golden_reports.json`` is ``jsonio.dumps`` of the CLI
payload, so a performance change to any layer under these commands must
leave the reports exactly as they were.

To regenerate after an intended change of output::

    PYTHONPATH=src python tests/test_golden.py > tests/golden_reports.json
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import pytest

from localrep import jsonio
from localrep.cli import JobSpec, run

GOLDEN = Path(__file__).with_name("golden_reports.json")
COMMANDS = ("analyze", "semisimplify")


def _rep(field, **gens):
    return {"field": field, "n": len(next(iter(gens.values()))), "generators": gens}


R = {"type": "real"}
Q5 = {"type": "padic", "p": 5}
F3 = {"type": "funcfield", "p": 3}

CASES = {
    # rotation by a quarter turn: no real eigenvector, word algebra of dim 2
    "R-irreducible": _rep(R, a=[["0", "-1"], ["1", "0"]]),
    "R-split": _rep(R, a=[["2", "1"], ["0", "3"]], b=[["3", "-1"], ["0", "2"]]),
    "R-nonsplit": _rep(R, a=[["1", "1", "0"], ["0", "1", "0"], ["0", "0", "2"]],
                       b=[["2", "0", "0"], ["0", "2", "0"], ["0", "0", "0.5"]]),
    # x^2 - 2 has no root in Q; with a unipotent b the algebra is all of M_2
    "Q5-irreducible": _rep(Q5, a=[["0", "2"], ["1", "0"]]),
    "Q5-irreducible-pair": _rep(Q5, a=[["0", "2"], ["1", "0"]], b=[["1", "1"], ["0", "1"]]),
    # diag(2, 3) and diag(1/2, 5), both conjugated by [[1, 1], [1, 2]]
    "Q5-split": _rep(Q5, a=[["1", "-2"], ["1", "4"]], b=[["-4", "-9"], ["9/2", "19/2"]]),
    "Q5-nonsplit": _rep(Q5, a=[["0", "2", "1"], ["1", "0", "0"], ["0", "0", "1"]],
                        b=[["1", "0", "1"], ["0", "1", "0"], ["0", "0", "1"]]),
    # x^2 - T is irreducible over F3(T)
    "F3T-irreducible": _rep(F3, a=[["0", "T"], ["1", "0"]]),
    "F3T-split": _rep(F3, a=[["T", "1"], ["0", "T+1"]]),
    "F3T-nonsplit": _rep(F3, a=[["T", "1"], ["0", "T"]], b=[["1/T", "0"], ["0", "1/T"]]),
}

FAMILIES = {
    # members 0 and 1 agree on the traces of a, a^-1, b, b^-1 and a^2 but not
    # of ab (word index 5); member 2 is member 0 conjugated by [[2, 1], [1, 1]]
    "Q5-words": [
        _rep(Q5, a=[["2", "0"], ["0", "3"]], b=[["1", "1"], ["1", "2"]]),
        _rep(Q5, a=[["2", "0"], ["0", "3"]], b=[["2", "1"], ["1", "1"]]),
        _rep(Q5, a=[["1", "-1"], ["2", "4"]], b=[["-1", "-1"], ["5", "4"]]),
    ],
    # equal word traces (3 x(w) = 0 in characteristic 3), dim Hom 1, dim End 10
    "F3T-trace-blind": [
        _rep(F3, a=[["T", "0", "0", "0"], ["0", "T", "0", "0"], ["0", "0", "T", "0"],
                    ["0", "0", "0", "T+1"]]),
        _rep(F3, a=[["T+2", "0", "0", "0"], ["0", "T+2", "0", "0"], ["0", "0", "T+2", "0"],
                    ["0", "0", "0", "T+1"]]),
    ],
    # a of det T^2 + T and b of det T + 2: neither inverse is polynomial.
    # The members share the traces of a, a^-1, b, b^-1 and a^2 but not of ab
    # (word index 5): T^2 + 2T against T^2 + T + 1
    "F3T-words": [
        _rep(F3, a=[["T", "0"], ["0", "T+1"]], b=[["1", "1"], ["1", "T"]]),
        _rep(F3, a=[["T", "0"], ["0", "T+1"]], b=[["T", "1"], ["1", "1"]]),
    ],
    # two classes, each with a conjugate by [[1, 1], [0, 1]]: an irreducible
    # pair, and diag(2, 1/2) with the identity
    "R-two-classes": [
        _rep(R, a=[["2", "1"], ["1", "1"]], b=[["1", "1"], ["0", "1"]]),
        _rep(R, a=[["3", "-1"], ["1", "0"]], b=[["1", "1"], ["0", "1"]]),
        _rep(R, a=[["2", "0"], ["0", "0.5"]], b=[["1", "0"], ["0", "1"]]),
        _rep(R, a=[["2", "-1.5"], ["0", "0.5"]], b=[["1", "0"], ["0", "1"]]),
    ],
}


# "command/case" -> (input files by option name, other options).  tree and
# counterexample take p-adic input only; degenerate runs over every field.
JOBS = {
    # a hyperbolic and a unipotent generator
    "tree/Q5": ({"input": _rep(Q5, a=[["1/5", "0"], ["0", "5"]], b=[["1", "1"], ["0", "1"]])},
                {"radius": 3}),
    "counterexample/p5": ({}, {"p": 5, "t": "1/25", "radius": 2}),
    "counterexample/p3": ({}, {"p": 3, "t": "2/3", "radius": 3}),
    # a block lower and a block upper triangular tuple with one Levi part
    "degenerate/Q5": ({"input": _rep(Q5, a=[["2", "0"], ["1", "3"]], b=[["1", "0"], ["2", "1"]]),
                       "input2": _rep(Q5, a=[["2", "1"], ["0", "3"]], b=[["1", "3"], ["0", "1"]])},
                      {"imax": 6}),
    "degenerate/F3T": ({"input": _rep(F3, a=[["T", "0"], ["1", "T+1"]]),
                        "input2": _rep(F3, a=[["T", "1/T"], ["0", "T+1"]])},
                       {"imax": 6}),
    # blocks (1, 2) with integer Levi parts [2] + [[1, 1], [1, 2]] and
    # [-1] + [[2, 1], [1, 1]], both of det 1, and the default base 2^-j: the
    # inverses and every magnitude on the path are exact floats
    "degenerate/R": ({"input": _rep(R, a=[["2", "0", "0"], ["1", "1", "1"], ["3", "1", "2"]],
                                    b=[["-1", "0", "0"], ["2", "2", "1"], ["0", "1", "1"]]),
                      "input2": _rep(R, a=[["2", "1", "-1"], ["0", "1", "1"], ["0", "1", "2"]],
                                     b=[["-1", "3", "0"], ["0", "2", "1"], ["0", "1", "1"]])},
                     {}),
    # diag(2, 1/2) and diag(1, 4) conjugated by [[-1, -1], [-1, 1]]: every leaf
    # a line, and every float on the way exact, so the report is too
    "minimize/R-diagonal-pair": ({"input": _rep(R, a=[["1.25", "0.75"], ["0.75", "1.25"]],
                                                b=[["2.5", "-1.5"], ["-1.5", "2.5"]])}, {}),
}


def render(case: str, command: str) -> str:
    """``jsonio.dumps`` of the CLI payload for one case and command."""
    if command in COMMANDS:
        inputs, options = {"input": CASES[case]}, {}
    elif command == "separate":
        inputs, options = {"input": FAMILIES[case]}, {}
    else:
        inputs, options = JOBS[f"{command}/{case}"]
    with tempfile.TemporaryDirectory() as tmp:
        for name, rep in inputs.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(rep), encoding="utf-8")
            options = dict(options, **{name: str(path)})
        code, payload = run(JobSpec(command=command, **options))
    assert code == 0
    return jsonio.dumps(payload)


def _expected() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, command):
    assert render(case, command) == _expected()[f"{command}/{case}"]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_separate_matches_golden(family):
    assert render(family, "separate") == _expected()[f"separate/{family}"]


@pytest.mark.parametrize("key", sorted(JOBS))
def test_job_matches_golden(key):
    command, case = key.split("/", 1)
    assert render(case, command) == _expected()[key]


def _keys() -> list:
    return ([f"{c}/{k}" for c in COMMANDS for k in sorted(CASES)]
            + [f"separate/{k}" for k in sorted(FAMILIES)] + sorted(JOBS))


def test_golden_covers_every_case():
    assert sorted(_expected()) == sorted(_keys())


if __name__ == "__main__":
    out = {key: render(key.split("/", 1)[1], key.split("/", 1)[0]) for key in _keys()}
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
