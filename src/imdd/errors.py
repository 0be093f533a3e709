"""Exception types shared across the package."""


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
