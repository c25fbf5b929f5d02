"""Command-line front end.

Reads representation files, runs the requested analysis and prints one JSON
report to stdout.  Exit codes: 0 success, 2 input parse error, 3 violated
precondition (e.g. displacement minimisation on a non-real input).
Diagnostics go to stderr.  Identical jobs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from . import jsonio, quotient, tree
from .errors import DimensionMismatchError, LocalRepError, ParseError, PrimeMismatchError
from .fields import Field
from .parabolic import BlockStructure, FundamentalSequence, build_neighbors
from .reptheory import is_cr, is_nonparabolic, semisimplify

COMMANDS = ("analyze", "semisimplify", "separate", "minimize", "tree",
            "degenerate", "counterexample")


@dataclass
class JobSpec:
    command: str
    input: str | None = None
    input2: str | None = None
    imax: int = 12
    radius: int = 4
    budget: int = 5000
    p: int | None = None
    t: str | None = None
    blocks: str | None = None

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ParseError(f"unknown command {self.command!r}")
        if not 1 <= self.imax <= 64:
            raise ParseError("imax must be in 1..64")
        if not 1 <= self.radius <= 6:
            raise ParseError("radius must be in 1..6 (descent steps on the tree)")
        if not 1 <= self.budget <= 100000:
            raise ParseError("budget must be in 1..100000")
        if self.p is not None:
            try:
                Field.padic(self.p)
            except ValueError as exc:
                raise ParseError(f"bad --p: {exc}") from exc


def _load_rep(path):
    if path is None:
        raise ParseError("missing --input")
    return jsonio.representation_from_json(jsonio.load_json_file(path))


def _infer_blocks(job: JobSpec, rho_minus, rho_plus) -> BlockStructure:
    if job.blocks:
        try:
            sizes = tuple(int(s) for s in job.blocks.split(","))
        except ValueError as exc:
            raise ParseError(f"bad --blocks {job.blocks!r}") from exc
        return BlockStructure(rho_minus.n, sizes)
    # The finest structure making the first tuple lower and the second upper.
    # A structure fits exactly when each of its cuts fits on its own, so it
    # cuts wherever the two-block structure there fits.
    n = rho_minus.n

    def fits(b):
        bs = BlockStructure(n, (b, n - b))
        return all(bs.is_block_triangular(m, "lower") for m in rho_minus.gens.values()) \
            and all(bs.is_block_triangular(m, "upper") for m in rho_plus.gens.values())

    cuts = [0] + [b for b in range(1, n) if fits(b)] + [n]
    return BlockStructure(n, tuple(hi - lo for lo, hi in zip(cuts, cuts[1:])))


def run(job: JobSpec):
    """Execute a job; returns (exit_code, payload)."""
    payload = {"schema": jsonio.SCHEMA_VERSION, "command": job.command}
    if job.command == "analyze":
        rho = _load_rep(job.input)
        irreducible, flag = is_nonparabolic(rho)
        cr = is_cr(rho)
        ss = semisimplify(rho)
        payload.update({
            "nonparabolic": irreducible,
            "cr": bool(cr),
            "certificate": None if flag is None else jsonio.flag_to_json(flag),
            "ss": jsonio.representation_to_json(ss.rho_ss),
            "flag": jsonio.flag_to_json(ss.flag),
        })
    elif job.command == "semisimplify":
        rho = _load_rep(job.input)
        ss = semisimplify(rho)
        payload.update(jsonio.semisimplification_to_json(ss))
        payload["block_sizes"] = list(ss.flag.block_sizes)
    elif job.command == "separate":
        family = jsonio.family_from_json(jsonio.load_json_file(job.input))
        result = quotient.separation_experiment(family, budget=job.budget)
        payload.update(result.to_json_dict())
    elif job.command == "minimize":
        from . import symspace  # the only command that needs numpy

        rho = _load_rep(job.input)
        report = symspace.minimize_displacement(rho, budget=job.budget)
        payload.update(report.to_json_dict())
    elif job.command == "tree":
        rho = _load_rep(job.input)
        if rho.field.kind != "padic":
            raise PrimeMismatchError("tree analysis needs a 2x2 p-adic input")
        if rho.n != 2:
            raise DimensionMismatchError("tree analysis needs a 2x2 p-adic input")
        gens = {}
        for sym, m in rho.gens.items():
            ell, witness = tree.translation_length(m, job.radius)
            gens[sym] = {
                "translation_length": ell,
                "witness": list(witness.canonical_key()),
                "displacement_at_base": tree.vertex_displacement(
                    m, tree.TreeVertex.standard(rho.field.p)),
            }
        payload["generators"] = gens
        payload["radius"] = job.radius
    elif job.command == "degenerate":
        rho_minus = _load_rep(job.input)
        if job.input2 is None:
            raise ParseError("degenerate needs --input2")
        rho_plus = _load_rep(job.input2)
        blocks = _infer_blocks(job, rho_minus, rho_plus)
        seq = FundamentalSequence.default(blocks, rho_minus.field)
        trace = build_neighbors(rho_minus, rho_plus, blocks, seq, job.imax)
        payload.update(trace.to_json_dict())
    elif job.command == "counterexample":
        if job.p is None or job.t is None:
            raise ParseError("counterexample needs --p and --t")
        # the p-adic field parses --t, so a bad literal is a ParseError
        report = tree.product_counterexample(
            job.p, job.t, imax=job.imax, radius=job.radius)
        payload.update(report.to_json_dict())
    return 0, payload


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localrep",
        description="Analyse matrix representations over local fields: "
                    "irreducibility, complete reducibility, semisimplification, "
                    "displacement minimisation, lattice-tree geometry and "
                    "orbit-closure degenerations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "analyze": "irreducibility, complete reducibility and semisimplification",
        "semisimplify": "composition series and block-diagonal reduction",
        "separate": "pairwise separation table for a family file",
        "minimize": "displacement minimisation over the SPD space (real field)",
        "tree": "translation lengths on the p-adic lattice tree (2x2 input)",
        "degenerate": "explicit conjugation path joining two opposite tuples",
        "counterexample": "product-of-trees counterexample report",
    }
    for name, help_text in specs.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--input", help="representation (or family) JSON file")
        sp.add_argument("--input2", help="second representation JSON file")
        sp.add_argument("--imax", type=int, default=JobSpec.imax, help="sequence length (1..64)")
        sp.add_argument("--radius", type=int, default=JobSpec.radius,
                        help="most tree descent steps (1..6)")
        sp.add_argument("--budget", type=int, default=JobSpec.budget,
                        help="optimizer iteration budget")
        sp.add_argument("--p", type=int, help="prime (counterexample)")
        sp.add_argument("--t", help="rational parameter with |t| > 1 (counterexample)")
        sp.add_argument("--blocks", help="comma-separated block sizes (degenerate)")
    return parser


def main(argv=None) -> int:
    # the parser's dests are exactly JobSpec's fields
    fields = vars(_build_parser().parse_args(argv))
    try:
        job = JobSpec(**fields)
        code, payload = run(job)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LocalRepError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 3
    print(jsonio.dumps(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
