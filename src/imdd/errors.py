"""Exception types shared across the package, and the input checks every
layer and the command line call, so that a bad input raises
``DomainError``."""

import math
import numbers


class ImddError(Exception):
    """Base of every error the package raises on purpose."""


class DomainError(ImddError, ValueError):
    """Invalid parameter or configuration (bad pulse spec, constellation, ...)."""


class UnsupportedError(DomainError):
    """Operation not defined for this input (e.g. non-PAM analytic SER)."""


class NumericalDivergenceError(ImddError, RuntimeError):
    """A truncated series cannot meet its tolerance within the hard term
    cap.  In practice this signals a roll-off too close to zero for the
    requested accuracy."""


def require_count(name: str, value, minimum: int) -> None:
    """Raise ``DomainError`` unless ``value`` is an integer (numpy's too)
    and >= ``minimum``; a number below ``minimum`` is told so first."""
    if isinstance(value, numbers.Real) and value < minimum:
        raise DomainError(f"{name} must be >= {minimum}")
    if not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, not {value!r}")


def require_real(name: str, value, nonnegative: bool = False) -> float:
    """``float(value)``, or ``DomainError`` when ``float()`` refuses it or
    the float is not finite (or, with ``nonnegative``, below 0)."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name} must be a real number, "
                          f"not {value!r}") from exc
    if not math.isfinite(x) or (nonnegative and x < 0.0):
        raise DomainError(f"{name} must be finite"
                          f"{' and nonnegative' if nonnegative else ''}, "
                          f"not {x}")
    return x
