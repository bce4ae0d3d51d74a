"""Exception types, the argument and budget checks that raise them, and the budgets."""

import math
import operator


class ParameterError(ValueError):
    """Invalid argument, incompatible scheme/window combination or degenerate input."""


class ResourceError(RuntimeError):
    """Requested computation exceeds the configured memory/size budget."""


class ReconstructionError(RuntimeError):
    """Window recovery failed; carries the partial indicator grid if available."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


#: lattice candidates one enumeration may visit (numpy arrays of coordinates)
MAX_CANDIDATES = 50_000_000
#: lattice candidates one support-difference enumeration may visit
MAX_DIFFERENCE_CANDIDATES = 500_000
#: items one call may build: correlation tuples, or dual labels (numpy columns)
MAX_ENTRIES = 2_000_000
#: int64 cells of the N x N shift matrix, or of the N^3 counts, behind a pattern table;
#: also the N^2 steps in which ``zero_condition`` cuts x^N - 1 into cyclotomic factors
MAX_PATTERN_CELLS = 1_000_000
#: bytes of one deck and its pass workspaces (``spectra._deck_bytes``): 69 MB at
#: M = 4096 and 271 MB at M = 8192
MAX_DECK_BYTES = 1 << 27


def check_budget(est, budget: int, unit: str, advice: str) -> None:
    """The one refusal on size: ResourceError if ``est`` > ``budget``, both counts of
    ``unit`` (a plural noun); the message ends with ``advice``."""
    if est > budget:
        raise ResourceError(f"would visit ~{est:.3g} {unit}, over the budget of "
                            f"{budget}; {advice}")


def check_real(name: str, x, low: float | None = None, positive: bool = False) -> float:
    """``float(x)``, or ParameterError if it is not finite or lies below ``low``.

    With ``positive`` the value must also be strictly greater than zero.
    """
    try:
        f = float(x)
    except (TypeError, ValueError):
        raise ParameterError(f"{name} must be a number, got {x!r}") from None
    except OverflowError:
        raise ParameterError(f"{name} is too large for a float") from None
    if not math.isfinite(f):
        raise ParameterError(f"{name} must be finite, got {f}")
    if positive and not f > 0:
        raise ParameterError(f"{name} must be positive, got {f}")
    if low is not None and f < low:
        raise ParameterError(f"{name} must be at least {low}, got {f}")
    return f


def check_int(name: str, n, low: int | None = None) -> int:
    """``operator.index(n)``, or ParameterError if ``n`` is no integer or lies below ``low``."""
    try:
        m = operator.index(n)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {n!r}") from None
    if low is not None and m < low:
        raise ParameterError(f"{name} must be at least {low}, got {m}")
    return m
