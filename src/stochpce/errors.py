"""Exception hierarchy for the stochpce package.

Every error raised by the package derives from StochPCEError so callers can
catch numerical failures separately from programming errors.
"""


class StochPCEError(Exception):
    """Base class for all package errors."""


class InvalidOperatorError(StochPCEError):
    """Operator fails a structural requirement (not square, not Hermitian, ...)."""


class DimensionMismatchError(StochPCEError):
    """Two operators or states have incompatible dimensions."""


class NumericalConsistencyError(StochPCEError):
    """A quantity that must be real/unit/zero deviates beyond tolerance."""


class KernelNotPositiveError(StochPCEError):
    """Correlation kernel is not positive semidefinite (Bochner violation)."""


class CapacityError(StochPCEError):
    """Requested basis size exceeds the supported capacity."""


class PropagationDivergedError(StochPCEError):
    """Integrator state violated conservation invariants; step size too large."""


class CorruptedStateError(StochPCEError):
    """A reconstructed density matrix is no longer trace-one within tolerance."""


class ConfigError(StochPCEError):
    """Configuration file is malformed or violates the schema.

    line is the 1-based line number in the source text, or None when the
    error is not tied to a specific line (e.g. a missing required key).
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
