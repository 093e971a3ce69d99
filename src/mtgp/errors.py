"""Exception types shared across the package, and the JSON file helpers that raise them."""

import json


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


def read_json(path):
    """The JSON value in the file ``path``; a :class:`ValidationError` naming
    it if it is not UTF-8 text or not JSON (an unopenable file raises ``OSError``)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc) from None


_REQUIRED = object()  # the default of a key that must be present


def read_key(doc, key: str, where: str, kind=None, default=_REQUIRED):
    """``doc[key]`` of type ``kind`` (any when None), for config and model files
    alike: a bool is only a bool, an int is read as a float where a float is
    asked for, and an absent or null key gives ``default`` (when there is none,
    an absent key is an error). Messages start with ``where``: ``"<path>:"``,
    ``"model file"``."""
    value = doc.get(key) if isinstance(doc, dict) else None
    if value is None and default is not _REQUIRED:
        return default
    if value is None and (not isinstance(doc, dict) or key not in doc):
        raise ValidationError(f"{where} missing key {key!r}")
    if kind is float and type(value) is int:
        value = float(value)
    if kind and not (isinstance(value, kind) and (kind is bool) == isinstance(value, bool)):
        raise ValidationError(f"{where} key {key!r} must be of type {kind.__name__}")
    return value


def write_json(path, doc):
    """Write ``doc`` to ``path`` as JSON with sorted keys, indent 2 and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
