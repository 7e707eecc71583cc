"""Exception hierarchy for helmdual."""


class HelmdualError(Exception):
    """Base class for all helmdual errors."""


class ShellResonanceError(HelmdualError):
    """A lattice frequency sits on the unit shell |k| = 1 while eps = 0."""


class DomainError(HelmdualError, ValueError):
    """Argument outside the mathematical domain of a function or coefficient."""


class GridMismatchError(HelmdualError):
    """Fields live on incompatible grids, or the grid lacks unit-cell shifts."""


class NotInUPlusError(HelmdualError):
    """Field has nonpositive resolvent quadratic form; fibering undefined."""


class ZeroFieldError(HelmdualError):
    """Operation requires a nonzero field."""


class MaxIterationsError(HelmdualError):
    """Descent exhausted its iteration budget before reaching tolerance."""

    def __init__(self, message, iterations=0, residual=float("nan"), level=float("nan")):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
        self.level = level


class NoSolutionFoundError(HelmdualError):
    """Every multistart attempt failed to produce a critical point."""


class WorkerPoolError(HelmdualError):
    """A multistart worker process died before returning its start."""


class OutOfMemoryError(HelmdualError):
    """A run asked for more memory than the process could allocate."""


class SupportOverflowError(HelmdualError):
    """Compactly supported perturbation does not fit inside the box."""


class HypothesisViolatedError(HelmdualError):
    """Pointwise ordering Q >= Q_inf required by the transplant is violated."""


class InterpolationDegenerateError(HelmdualError):
    """Grid too coarse to interpolate the transform near the unit sphere."""


class InsufficientShellsError(HelmdualError):
    """Not enough usable radial shells for a decay fit."""


class ConfigError(HelmdualError):
    """Base class for run-configuration errors."""


class UnknownKeyError(ConfigError):
    """Configuration contains a key outside the schema."""


class ConfigTypeError(ConfigError):
    """Configuration value failed to parse as its declared type."""


class MissingRequiredError(ConfigError):
    """Required configuration key absent."""


class OutputError(HelmdualError):
    """The output directory cannot be made, or an artifact cannot be written to it."""


class FieldFileError(HelmdualError):
    """Base class for binary field-file errors."""


class BadMagicError(FieldFileError):
    """Field file does not start with the HLMF magic."""


class VersionMismatchError(FieldFileError):
    """Field file written by an unsupported format version."""


class TruncatedPayloadError(FieldFileError):
    """Field file payload shorter than the header promises."""
