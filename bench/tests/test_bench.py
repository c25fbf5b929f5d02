"""Tests of the benchmark itself: its arithmetic, its inputs, its checks and its runs.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import exact  # noqa: E402
import workloads  # noqa: E402
from exact import Field, RatFn  # noqa: E402

Q = Field("padic", 5)
F3T = Field("funcfield", 3)


# -- arithmetic ---------------------------------------------------------------


def test_ratfn_field_laws():
    assert F3T.parse("T^2+2*T/T") == F3T.parse("T+2")    # reduced on construction
    x = F3T.parse("T^2+2*T/T+1")
    y = F3T.parse("2*T+1")
    assert (x * y) / y == x
    assert x - x == F3T.zero()
    assert (x + y) - y == x
    assert F3T.parse(F3T.format(x / y)) == x / y
    assert RatFn(3, (0, 3)) == F3T.zero()    # 3T = 0 over F_3


def test_parse_poly_signs_and_powers():
    assert exact.parse_poly(3, "-T^3+2*T-1") == (2, 2, 0, 2)
    assert exact.parse_poly(3, "T+T+T") == ()
    assert exact.format_poly((1, 0, 2)) == "2*T^2+1"


def test_charpoly_and_inverse_over_q():
    m = [[Fraction(x) for x in row] for row in ([2, 1, 0], [1, 3, 1], [0, 1, 4])]
    cp = exact.charpoly(Q, m)
    assert cp == [1, -9, 24, -18]
    assert exact.matmul(m, exact.inverse(Q, m)) == exact.identity(Q, 3)
    sympy = pytest.importorskip("sympy")
    assert [int(c) for c in sympy.Matrix(m).charpoly().all_coeffs()] == cp


def test_rank_and_solvable():
    rows = [[Q.of(1), Q.of(2)], [Q.of(2), Q.of(4)]]
    assert exact.rank(Q, rows) == 1
    assert exact.solvable(Q, rows, [Q.of(1), Q.of(2)])
    assert not exact.solvable(Q, rows, [Q.of(1), Q.of(3)])


def test_word_span_rank_burnside():
    swap = [[Q.of(0), Q.of(1)], [Q.of(1), Q.of(0)]]
    uni = [[Q.of(1), Q.of(1)], [Q.of(0), Q.of(1)]]
    assert exact.word_span_rank(Q, [swap, uni]) == 4
    assert exact.word_span_rank(Q, [uni]) == 2


# -- workloads ----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_and_fixed_mix(name):
    make = workloads.WORKLOADS[name]
    a, b, c = make(3), make(3), make(4)
    assert [j.inputs for j in a] == [j.inputs for j in b]
    assert [j.inputs for j in a] != [j.inputs for j in c]
    assert [(j.kind, j.command, j.fault is None) for j in a] == \
           [(j.kind, j.command, j.fault is None) for j in c]
    assert len({j.id for j in a}) == len(a)


def test_fault_and_setup_inputs_do_not_depend_on_the_seed():
    for name in ("decide", "geometry"):
        faults = [[j.inputs for j in workloads.WORKLOADS[name](s) if j.fault] for s in (1, 2)]
        assert len(faults[0]) == 1 and faults[0] == faults[1]
    for name in workloads.WORKLOADS:
        assert workloads.setup_job(name).inputs == workloads.setup_job(name).inputs


def test_closed_forms():
    g = [[Q.of(25), Q.of(0)], [Q.of(0), Q.of(1)]]
    assert checks.closed_form_length(Q, g) == 2
    elliptic = [[Q.of(0), Q.of(1)], [Q.of(5), Q.of(0)]]     # tr = 0, v(det) = 1
    assert checks.closed_form_length(Q, elliptic) == 1
    # diag(e, 1/e) has minimum displacement 2 sqrt(2); scaling by 3 changes nothing
    assert checks.expected_lambda([[math.e, 1 / math.e]]) == pytest.approx(2 * 2 ** 0.5)
    assert checks.expected_lambda([[3 * math.e, 3 / math.e]]) == pytest.approx(2 * 2 ** 0.5)


# -- checks reject wrong reports ------------------------------------------------


def _report(job, tmp_path):
    from localrep import cli, jsonio

    spec = dict(job.options)
    for key, obj in job.inputs.items():
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(obj))
        spec[key] = str(path)
    _, payload = cli.run(cli.JobSpec(command=job.command, **spec))
    return json.loads(jsonio.dumps(payload))


def test_checks_pass_and_catch_mutations(tmp_path):
    job = next(j for j in workloads.decide(2) if j.kind == "analyze Q5 n2 nonsplit (1, 1)")
    report = _report(job, tmp_path)
    assert checks.check(job, report) == []
    wrong = copy.deepcopy(report)
    wrong["cr"] = not wrong["cr"]
    assert checks.check(job, wrong)
    wrong = copy.deepcopy(report)
    wrong["ss"]["generators"]["a"][0][0] = "7"
    assert checks.check(job, wrong)

    fam = workloads.classify(2)[0]
    report = _report(fam, tmp_path)
    assert checks.check(fam, report) == []
    wrong = copy.deepcopy(report)
    wrong["matrix"][0][1] = wrong["matrix"][1][0] = not wrong["matrix"][0][1]
    assert checks.check(fam, wrong)


def test_known_faults_fail_their_checks(tmp_path):
    job = workloads.decide_fault_job()
    assert tuple(checks.check(job, _report(job, tmp_path))) == job.fails_with


def test_only_the_named_fault_is_excused():
    import run

    job = workloads.geometry_fault_job()
    result = {"reports": [{"error": "LinAlgError: Singular matrix"}], "unsteady": []}
    assert run.verify([job], result) == ([job], [])
    result["reports"] = [{"error": "ValueError: point must be positive definite"}]
    failed, problems = run.verify([job], result)
    assert failed == [job] and problems == [(job, [result["reports"][0]["error"]])]
    result["reports"] = ['{"command": "minimize", "status": "DIVERGED"}']
    assert run.verify([job], result) == ([], [])    # a fixed fault passes its checks


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_setup_jobs_pass_their_checks(name, tmp_path):
    job = workloads.setup_job(name)
    assert checks.check(job, _report(job, tmp_path)) == []


# -- whole runs ---------------------------------------------------------------


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600, check=False)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_prints_the_result_line(name):
    proc = _run(["--workload", name, "--seed", "7", "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    faults = sum(1 for j in workloads.WORKLOADS[name](7) if j.fault)
    assert result["failed"] == faults
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat():
    counts = []
    for _ in range(2):
        proc = _run(["--workload", "classify", "--seed", "7", "--smoke", "--trace", "1"])
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["reptheory.fingerprint.calls"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(["--workload", "decide", "--seed", "1", "--seconds", "30", "--trace", "0"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
