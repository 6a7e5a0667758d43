"""Error hierarchy for the whole package.

Every mathematical rejection carries a stable ``code`` string and an optional
``witness`` (an index, an index pair, a cycle, ...) so callers and the CLI can
emit machine-readable error objects.
"""

from __future__ import annotations


class DomainError(Exception):
    """Input was rejected for a mathematical reason (CLI exit code 1)."""

    code = "DomainError"

    def __init__(self, message: str, witness: object = None):
        super().__init__(message)
        self.witness = witness

    def to_json(self) -> dict:
        return {"code": self.code, "message": str(self), "witness": self.witness}


class InputFileError(Exception):
    """A file or flag does not match the expected schema (CLI exit code 2)."""


class NonSquareError(DomainError):
    code = "NonSquare"


class NonzeroDiagonalError(DomainError):
    code = "NonzeroDiagonal"


class TriangleViolationError(DomainError):
    code = "TriangleViolation"


class ZeroWeightsError(DomainError):
    code = "ZeroWeights"


class NotGorensteinError(DomainError):
    code = "NotGorenstein"


class AmbiguousNakayamaError(DomainError):
    code = "AmbiguousNakayama"


class NotBijectiveError(DomainError):
    code = "NotBijective"


class TooLargeError(DomainError):
    code = "TooLarge"


class NegativeCycleError(DomainError):
    code = "NegativeCycle"


class EquivarianceViolationError(DomainError):
    code = "EquivarianceViolation"


class DimensionMismatchError(DomainError):
    code = "DimensionMismatch"


class PositiveParameterError(DomainError):
    code = "PositiveParameter"


class NotNGradedError(DomainError):
    code = "NotNGraded"


class NotCyclicError(DomainError):
    code = "NotCyclic"
