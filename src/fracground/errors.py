"""Exception and warning types shared across the package."""

__all__ = [
    "FracgroundError",
    "ZeroModeSingularError",
    "NoPositivePartError",
    "SpectralTailWarning",
]


class FracgroundError(Exception):
    """Base class for errors raised by this package."""


class ZeroModeSingularError(FracgroundError, ValueError):
    """Fractional integral applied to a field with nonzero mean.

    The integral multiplier is singular at zero frequency, so inputs must
    have (numerically) zero mean on the truncated domain.
    """


class NoPositivePartError(FracgroundError, ValueError):
    """Fiber scaling (Nehari projection, mountain-pass endpoint) of a field whose
    positive part vanishes or underflows, or whose fiber scale leaves the float range."""


class SpectralTailWarning(UserWarning):
    """A field passed to a fractional operator has noticeable spectral tail mass."""
