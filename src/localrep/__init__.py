"""Complete reducibility and displacement geometry for matrix representations
over local fields (real, p-adic rational, and F_p(T) models)."""

from .fields import Field, FpPoly, FpRat, INFINITY
from .linalg import Matrix, rref, solve_linear
from .reptheory import (
    InvariantFlag,
    Representation,
    Semisimplification,
    composition_series,
    is_cr,
    is_nonparabolic,
    semisimplify,
    spin,
    trace_fingerprint,
)
from .parabolic import (
    BlockStructure,
    FundamentalSequence,
    build_neighbors,
    contract_limit,
)
from .tree import (
    TreeVertex,
    neighbors,
    product_counterexample,
    translation_length,
    tree_dist,
    vertex_displacement,
)
from .quotient import (
    CrClass,
    project,
    same_point_in_Xcr,
    separation_experiment,
)

__all__ = [
    "Field", "FpPoly", "FpRat", "INFINITY",
    "Matrix", "rref", "solve_linear",
    "InvariantFlag", "Representation", "Semisimplification",
    "composition_series", "is_cr", "is_nonparabolic",
    "semisimplify", "spin", "trace_fingerprint",
    "BlockStructure", "FundamentalSequence", "build_neighbors", "contract_limit",
    "ATTAINED", "DIVERGED", "MAXITER", "DisplacementReport", "SPDPoint",
    "displacement", "dist", "grad_objective", "minimize_displacement",
    "TreeVertex", "neighbors", "product_counterexample",
    "translation_length", "tree_dist", "vertex_displacement",
    "CrClass", "project", "same_point_in_Xcr", "separation_experiment",
]

__version__ = "0.1.0"

# symspace imports numpy, which exact-field work never needs: its names load
# on first access.
_SYMSPACE_NAMES = frozenset({
    "ATTAINED", "DIVERGED", "MAXITER", "DisplacementReport", "SPDPoint",
    "displacement", "dist", "grad_objective", "minimize_displacement",
})


def __getattr__(name):
    if name in _SYMSPACE_NAMES:
        from . import symspace

        return getattr(symspace, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
