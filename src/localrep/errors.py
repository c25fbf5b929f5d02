"""Exception hierarchy.

Every error carries a stable ``code`` string so the CLI can map failures to
exit codes and report payloads without parsing messages.
"""


class LocalRepError(Exception):
    """Base class for all package errors."""

    code = "ERROR"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)


class RealHasNoValuation(LocalRepError):
    code = "REAL_HAS_NO_VALUATION"


class SingularMatrixError(LocalRepError):
    code = "SINGULAR"


class FieldMismatchError(LocalRepError):
    code = "FIELD_MISMATCH"


class DimensionMismatchError(LocalRepError):
    code = "DIMENSION_MISMATCH"


class GeneratorMismatchError(LocalRepError):
    code = "GENERATOR_MISMATCH"


class NotInvariantError(LocalRepError):
    code = "NOT_INVARIANT"


class NotParabolicError(LocalRepError):
    code = "NOT_PARABOLIC"


class LeviMismatchError(LocalRepError):
    code = "LEVI_MISMATCH"


class NotRealFieldError(LocalRepError):
    code = "NOT_REAL_FIELD"


class PrimeMismatchError(LocalRepError):
    code = "PRIME_MISMATCH"


class FloatOverflowError(LocalRepError):
    code = "FLOAT_OVERFLOW"


class BadParameterError(LocalRepError):
    code = "BAD_T"


class ParseError(LocalRepError):
    code = "PARSE_ERROR"

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column
