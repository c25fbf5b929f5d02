"""JSON encoding of representations and reports.

All exact values travel as strings to avoid precision loss; report floats
are rounded to 12 significant digits before serialisation so identical jobs
produce byte-identical output.
"""

from __future__ import annotations

import json
import math

from .errors import FloatOverflowError, ParseError, SingularMatrixError
from .fields import Field
from .linalg import Matrix
from .reptheory import InvariantFlag, Representation, Semisimplification

SCHEMA_VERSION = 1


def matrix_to_json(m: Matrix) -> list:
    return [[m.field.format(x) for x in row] for row in m.data]


def matrix_from_json(field: Field, rows, where: str = "matrix") -> Matrix:
    if not isinstance(rows, list) or not rows:
        raise ParseError(f"{where}: expected a nonempty list of rows")
    n = len(rows)
    parsed = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"{where}: row {i} must have {n} entries")
        parsed.append([field.parse(str(x)) for x in row])
    return Matrix(field, tuple(tuple(r) for r in parsed))


def representation_to_json(rho: Representation) -> dict:
    return {
        "field": rho.field.to_json(),
        "n": rho.n,
        "generators": {s: matrix_to_json(m) for s, m in rho.gens.items()},
    }


def representation_from_json(obj) -> Representation:
    if not isinstance(obj, dict):
        raise ParseError("representation: expected an object")
    try:
        field = Field.from_json(obj["field"])
    except KeyError as exc:
        raise ParseError("representation: missing 'field'") from exc
    except (ValueError, TypeError) as exc:
        raise ParseError(f"representation: bad field descriptor ({exc})") from exc
    gens = obj.get("generators")
    if not isinstance(gens, dict) or not gens:
        raise ParseError("representation: missing or empty 'generators'")
    mats = {}
    n = obj.get("n")
    for sym, rows in gens.items():
        m = matrix_from_json(field, rows, where=f"generator {sym!r}")
        if n is not None and m.n != n:
            raise ParseError(f"generator {sym!r}: size {m.n} does not match n={n!r}")
        mats[sym] = m
    try:
        return Representation(field, mats)
    except SingularMatrixError:
        raise  # a precondition, not a parse failure: the CLI exits 3
    except Exception as exc:
        raise ParseError(f"representation: {exc}") from exc


def family_from_json(obj) -> list:
    if isinstance(obj, dict) and "family" in obj:
        obj = obj["family"]
    if not isinstance(obj, list) or not obj:
        raise ParseError("family: expected a nonempty list of representations")
    return [representation_from_json(item) for item in obj]


def flag_to_json(flag: InvariantFlag) -> dict:
    return {
        "block_sizes": list(flag.block_sizes),
        "basis_change": matrix_to_json(flag.basis_change),
    }


def semisimplification_to_json(ss: Semisimplification) -> dict:
    return {
        "flag": flag_to_json(ss.flag),
        "rho_ss": representation_to_json(ss.rho_ss),
    }


def round_floats(obj):
    """Round every float to 12 significant digits; JSON has no inf or nan."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise FloatOverflowError(f"the report holds {obj}: a float computation overflowed")
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def dumps(payload) -> str:
    """Deterministic serialisation of a report payload."""
    return json.dumps(round_floats(payload), indent=2, allow_nan=False)


def load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            line=exc.lineno,
            column=exc.colno,
        ) from exc
    except (UnicodeDecodeError, RecursionError) as exc:
        raise ParseError(f"{path}: unreadable JSON ({exc})") from exc
