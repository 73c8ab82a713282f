"""Exception hierarchy shared across the package."""


class CauchyLabError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(CauchyLabError):
    """A vector does not match the dimension of its space."""


class SolverError(CauchyLabError):
    """An iterative solve failed to converge.

    Carries the final residual so callers can report how close it got.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class HorizonError(CauchyLabError):
    """A time query lies beyond the trusted horizon of a trajectory."""


class ContractError(CauchyLabError):
    """A documented precondition of an operation was violated."""


class LemmaViolationError(CauchyLabError):
    """The integral liminf search found no witness.

    This should be impossible on valid inputs; seeing it signals a bug
    or a quadrature failure upstream.
    """


class OrbitConstructionError(CauchyLabError):
    """An almost-orbit failed its defect certification on the sampled grid."""


class EvaluationCapExceeded(CauchyLabError):
    """A rate-functional query exceeded its evaluation budget."""

    def __init__(self, message: str, offender: str = ""):
        super().__init__(message)
        self.offender = offender


class ConfigError(CauchyLabError):
    """A scenario configuration failed validation.

    ``location`` is a human-readable anchor ("file:line: field.path").
    """

    def __init__(self, message: str, location: str = ""):
        super().__init__(f"{location}: {message}" if location else message)
        self.location = location
