"""Exception and warning types shared across the package."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .solver import SolveReport

__all__ = [
    "FracgroundError",
    "ZeroModeSingularError",
    "NoPositivePartError",
    "DivergedError",
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


class DivergedError(FracgroundError, RuntimeError):
    """Descent step size underflowed below 1e-8 without an accepted step.

    A step is accepted only if it strictly lowers the energy, so this is also
    how a run ends at the energy-resolution floor; the message names the
    residual at which the energy stopped decreasing and the last accepted
    energy.  ``report`` is the unconverged ``SolveReport`` up to the last
    accepted iterate, so the run can still be written out.
    """

    def __init__(self, message: str, report: SolveReport) -> None:
        super().__init__(message)
        self.report = report


class SpectralTailWarning(UserWarning):
    """A field passed to a fractional operator has noticeable spectral tail mass."""
