"""Checks of every report against the construction, with the benchmark's own arithmetic.

Each ``check_<command>`` returns a list of problems; an empty list means
the report is correct.  Labels come from :mod:`workloads`; every
recomputation uses :mod:`exact`.
"""

from __future__ import annotations

import itertools
import math

from exact import (
    Field,
    block_upper,
    class_invariant,
    conjugate,
    inverse,
    matmul,
    scale_of,
    trace,
)

WORD_LENGTH = 3      # rho_ss must match rho in trace on every word up to this length
REL_TOL = 1e-6       # relative tolerance for real-field quantities


def parse_rep(obj):
    """(field, symbols, generator matrices) of a representation JSON object."""
    f = Field.from_json(obj["field"])
    symbols = tuple(obj["generators"])
    gens = [[[f.parse(str(x)) for x in row] for row in obj["generators"][s]] for s in symbols]
    return f, symbols, gens


def _word_traces(f, gens, length):
    """Traces of every freely reduced word of length 1..length, in a fixed order."""
    letters = []
    for i, g in enumerate(gens):
        letters.append(((i, 1), g))
        letters.append(((i, -1), inverse(f, g)))
    out = []
    frontier = [(letter, m) for letter, m in letters]
    out.extend(trace(m) for _, m in frontier)
    for _ in range(length - 1):
        nxt = []
        for last, m in frontier:
            for letter, g in letters:
                if letter[0] == last[0] and letter[1] == -last[1]:
                    continue
                prod = matmul(m, g)
                nxt.append((letter, prod))
                out.append(trace(prod))
        frontier = nxt
    return out


def _flag_problems(f, gens, flag, where):
    sizes = flag["block_sizes"]
    basis = [[f.parse(x) for x in row] for row in flag["basis_change"]]
    if sum(sizes) != len(gens[0]):
        return [f"{where}: block sizes {sizes} do not add up to n"]
    basis_inv = inverse(f, basis)
    problems = []
    for s, g in enumerate(gens):
        t = conjugate(f, g, basis, basis_inv)
        scale = scale_of(t) if not f.exact else 1.0
        if not block_upper(f, t, sizes, scale):
            problems.append(f"{where}: generator {s} is not block upper triangular")
    return problems


def check_decide(job, report):
    f, _, gens = parse_rep(job.inputs["input"])
    blocks, split = job.expect["blocks"], job.expect["split"]
    problems = []
    if job.command == "analyze":
        if report["nonparabolic"] != (len(blocks) == 1):
            problems.append(f"nonparabolic={report['nonparabolic']} for blocks {blocks}")
        if report["cr"] != split:
            problems.append(f"cr={report['cr']}, construction split={split}")
        flags = [("flag", report["flag"])]
        if report["certificate"] is not None:
            flags.append(("certificate", report["certificate"]))
        ss = report["ss"]
    else:
        flags = [("flag", report["flag"])]
        ss = report["rho_ss"]
        if report["block_sizes"] != report["flag"]["block_sizes"]:
            problems.append("block_sizes differ from the flag's")
    for where, flag in flags:
        problems += _flag_problems(f, gens, flag, where)
    got = report["flag"]["block_sizes"]
    if (got != blocks) if not split else (sorted(got) != sorted(blocks)):
        problems.append(f"composition blocks {got}, construction {blocks}")
    _, _, ss_gens = parse_rep(ss)
    for k, (x, y) in enumerate(zip(_word_traces(f, gens, WORD_LENGTH),
                                   _word_traces(f, ss_gens, WORD_LENGTH))):
        if not f.close(x, y, REL_TOL):
            problems.append(f"rho_ss trace differs from rho on word {k}")
            break
    return problems


def check_separate(job, report):
    labels = job.expect["labels"]
    matrix = report["matrix"]
    n = len(labels)
    problems = []
    for i, j in itertools.product(range(n), repeat=2):
        cell = matrix[i][j]
        if cell == "inconclusive":
            problems.append(f"cell {i},{j} is inconclusive")
        elif cell != (labels[i] == labels[j]):
            problems.append(f"cell {i},{j} = {cell}, labels {labels[i]} and {labels[j]}")
        if cell != matrix[j][i]:
            problems.append(f"matrix is not symmetric at {i},{j}")
    for i, j, k in itertools.product(range(n), repeat=3):
        if matrix[i][j] is True and matrix[j][k] is True and matrix[i][k] is not True:
            problems.append(f"matrix is not transitive at {i},{j},{k}")
            break
    if report["transitive"] is not True or report["symmetric"] is not True:
        problems.append("report does not claim a symmetric, transitive table")
    invariants = []
    for member in job.inputs["input"]["family"]:
        f, _, gens = parse_rep(member)
        invariants.append(class_invariant(f, gens))
    for i, j in itertools.combinations(range(n), 2):
        if (invariants[i] == invariants[j]) != (labels[i] == labels[j]):
            problems.append(f"construction: members {i},{j} break the class invariant")
    return problems


def expected_lambda(diagonals):
    """sqrt(sum_s sum_i (2 log|d_i(s)|)^2) after rescaling each generator to |det| = 1."""
    total = 0.0
    for d in diagonals:
        mean = sum(math.log(abs(x)) for x in d) / len(d)
        total += sum((2.0 * (math.log(abs(x)) - mean)) ** 2 for x in d)
    return math.sqrt(total)


def check_minimize(job, report):
    problems = []
    if report["status"] != job.expect["status"]:
        problems.append(f"status {report['status']}, construction {job.expect['status']}")
    if "diagonals" in job.expect:
        want = expected_lambda(job.expect["diagonals"])
        if abs(report["lambda"] - want) > REL_TOL * max(1.0, want):
            problems.append(f"lambda {report['lambda']} != {want}")
    return problems


def closed_form_length(f, g):
    """max(v(det g) - 2 v(tr g), v(det g) mod 2) for a 2x2 p-adic matrix."""
    v_det = f.valuation(g[0][0] * g[1][1] - g[0][1] * g[1][0])
    v_tr = f.valuation(g[0][0] + g[1][1])
    parity = v_det % 2
    return parity if v_tr is None else max(v_det - 2 * v_tr, parity)


def check_tree(job, report):
    f, symbols, gens = parse_rep(job.inputs["input"])
    problems = []
    for s, g in zip(symbols, gens):
        got = report["generators"][s]
        want = closed_form_length(f, g)
        if got["translation_length"] != want:
            problems.append(f"{s}: length {got['translation_length']}, closed form {want}")
        if got["displacement_at_base"] < want:
            problems.append(f"{s}: displacement at the base vertex below the length")
    return problems


def check_counterexample(job, report):
    step = 2 * job.expect["v_abs"]
    problems = []
    if report["verdict"] is not True:
        problems.append("verdict is not true")
    if report["translation_length"] != step:
        problems.append(f"translation_length {report['translation_length']} != {step}")
    if not report["increments"] or any(inc != step for inc in report["increments"]):
        problems.append(f"increments {report['increments']} are not all {step}")
    return problems


def check_degenerate(job, report):
    problems = []
    if report["verdict"] is not True:
        problems.append("verdict is not true")
    if report["big_cell_ok"] is not True:
        problems.append("big_cell_ok is not true")
    return problems


CHECKS = {
    "analyze": check_decide,
    "semisimplify": check_decide,
    "separate": check_separate,
    "minimize": check_minimize,
    "tree": check_tree,
    "counterexample": check_counterexample,
    "degenerate": check_degenerate,
}


def check(job, report) -> list:
    """Problems with one job's report (an empty list when it is correct)."""
    if report.get("command") != job.command:
        return [f"report is for {report.get('command')!r}"]
    try:
        return CHECKS[job.command](job, report)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]
