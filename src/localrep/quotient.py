"""Separated quotient layer: classes of completely reducible tuples.

Every conjugation orbit closure contains exactly one completely reducible
orbit; projecting onto it and comparing the projections decides whether two
tuples become equal in the largest separated quotient of the conjugation
action; :func:`~localrep.reptheory.same_class` makes every comparison, and
word traces only supply the evidence for tuples found apart.  Over the real
field the minimum displacement gives a continuous separating invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

from .reptheory import (
    Representation,
    check_comparable,
    fingerprints_match,
    same_class,
    semisimplify,
    trace_fingerprint,
)

FINGERPRINT_LENGTH = 6
LAMBDA_BUDGET = 5000  # the descent budget of project's lam


@dataclass(frozen=True)
class CrClass:
    """A point of the separated quotient: a cr representative plus invariants.

    ``fingerprint`` holds the traces of all freely reduced words up to
    ``FINGERPRINT_LENGTH`` in shortlex order; ``lam`` is the minimum displacement
    (real field only).
    """

    canonical: Representation
    fingerprint: tuple
    lam: float | None = None


def project(rho: Representation) -> CrClass:
    """Semisimplify and package the class invariants."""
    canonical = semisimplify(rho).rho_ss
    fingerprint = trace_fingerprint(canonical, FINGERPRINT_LENGTH)
    lam = _lam(canonical, LAMBDA_BUDGET) if rho.field.is_real else None
    return CrClass(canonical=canonical, fingerprint=fingerprint, lam=lam)


def _lam(canonical: Representation, budget: int) -> float:
    from . import symspace  # numpy loads only for real-field classes

    return symspace.minimize_displacement(canonical, budget=budget).lambda_est


def same_point_in_Xcr(r1: Representation, r2: Representation):
    """Do the orbit closures meet, i.e. do both project to the same class?

    Returns True or False: :func:`~localrep.reptheory.same_class` on the two
    semisimplifications.
    """
    check_comparable(r1, r2)
    return same_class(semisimplify(r1).rho_ss, semisimplify(r2).rho_ss)[0]


@dataclass(frozen=True)
class SeparationResult:
    """Pairwise separation table over a finite family."""

    matrix: tuple                 # rows of True / False
    lambdas: tuple                # per-member lambda (real field) or None
    evidence: dict                # (i, j) -> short description of the verdict
    transitive: bool
    #: the table is filled symmetrically
    symmetric = True

    def to_json_dict(self) -> dict:
        return {
            "matrix": [list(row) for row in self.matrix],
            "lambda": None if self.lambdas is None else list(self.lambdas),
            "evidence": {f"{i},{j}": e for (i, j), e in sorted(self.evidence.items())},
            "transitive": self.transitive,
            "symmetric": self.symmetric,
        }


def separation_experiment(family, budget: int = 5000) -> SeparationResult:
    """Pairwise same-class table, with evidence and consistency checks.

    Each member is semisimplified once and ``same_class`` decides each pair,
    over R too, where a trace mismatch beyond the tolerance does not
    override it.  A pair found apart records the index of the first word
    (shortlex) whose traces differ, read one word length at a time up to
    ``FINGERPRINT_LENGTH`` off each member's trace stream
    (:func:`~localrep.reptheory.trace_fingerprint`), which builds each
    word's product once; other pairs, and pairs apart whose traces agree,
    record the evidence of ``same_class``.  The boolean table is filled
    symmetrically and checked for transitivity.
    """
    family = list(family)
    if not family:
        raise ValueError("empty family")
    for other in family[1:]:
        check_comparable(family[0], other)
    field = family[0].field
    canonical = [semisimplify(rho).rho_ss for rho in family]
    lambdas = tuple(_lam(c, budget) for c in canonical) if field.is_real else None

    def apart(i, j, found):
        for length in range(1, FINGERPRINT_LENGTH + 1):
            pair = zip(trace_fingerprint(canonical[i], length),
                       trace_fingerprint(canonical[j], length))
            for k, (a, b) in enumerate(pair):
                if not fingerprints_match(field, (a,), (b,)):
                    return f"fingerprint mismatch at word index {k}"
        return found

    n = len(family)
    matrix = [[True] * n for _ in range(n)]
    evidence = {}
    for i in range(n):
        for j in range(i + 1, n):
            verdict, found = same_class(canonical[i], canonical[j])
            evidence[(i, j)] = found if verdict else apart(i, j, found)
            matrix[i][j] = verdict
            matrix[j][i] = verdict
    transitive = True
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if matrix[i][j] is True and matrix[j][k] is True:
                    transitive = transitive and matrix[i][k] is True
    return SeparationResult(
        matrix=tuple(tuple(row) for row in matrix),
        lambdas=lambdas,
        evidence=evidence,
        transitive=transitive,
    )
