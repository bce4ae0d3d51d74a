"""Exception types, and the argument checks that raise them, shared across the package."""

import math
import operator


class ParameterError(ValueError):
    """Invalid argument or incompatible scheme/window combination."""


class ResourceError(RuntimeError):
    """Requested computation exceeds the configured memory/size budget."""


class DegenerateInputError(ValueError):
    """Input data carries no usable information (e.g. all spectra below threshold)."""


class ReconstructionError(RuntimeError):
    """Window recovery failed; carries the partial indicator grid if available."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


def check_real(name: str, x, low: float | None = None, positive: bool = False) -> float:
    """``float(x)``, or ParameterError if it is not finite or lies below ``low``.

    With ``positive`` the value must also be strictly greater than zero.
    """
    try:
        f = float(x)
    except (TypeError, ValueError):
        raise ParameterError(f"{name} must be a number, got {x!r}") from None
    if not math.isfinite(f):
        raise ParameterError(f"{name} must be finite, got {f}")
    if positive and not f > 0:
        raise ParameterError(f"{name} must be positive, got {f}")
    if low is not None and f < low:
        raise ParameterError(f"{name} must be at least {low}, got {f}")
    return f


def check_count(name: str, n) -> int:
    """``n`` as a positive int, or ParameterError."""
    try:
        m = operator.index(n)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {n!r}") from None
    if m < 1:
        raise ParameterError(f"{name} must be positive, got {m}")
    return m
