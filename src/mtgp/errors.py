"""Exception types shared across the package."""


class MTGPError(Exception):
    """Base class for all package errors."""


class ShapeError(MTGPError, ValueError):
    """Array arguments have incompatible shapes or dimensions."""


class DomainError(MTGPError, ValueError):
    """Scalar argument outside its mathematical domain."""


class IllConditionedKernelError(MTGPError):
    """Cholesky factorization failed even after jitter escalation."""


class NonFiniteError(MTGPError):
    """A linear solve met an operand that is not finite."""


class UndefinedCorrelationError(MTGPError, ValueError):
    """Pearson correlation requested for a zero-variance series."""


class CalibrationError(MTGPError):
    """Target correlation unreachable inside the calibration search box."""


class TrainingFailedError(MTGPError):
    """Every optimizer restart failed.

    Attributes:
        diagnostics: one dict per restart with the failure reason.
    """

    def __init__(self, message: str, diagnostics: list | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


class ValidationError(MTGPError, ValueError):
    """User-supplied file or configuration failed schema validation."""


def not_utf8(path, exc: UnicodeDecodeError) -> ValidationError:
    """The error for a file ``path`` whose bytes do not decode as UTF-8."""
    bad = exc.object[exc.start : exc.end].hex()
    return ValidationError(f"{path}: not UTF-8 text: byte 0x{bad}: {exc.reason}")
