"""Spectral Liouville-Weyl fractional operators and ground states on the line.

The package discretizes the real line by a periodic interval, realizes the
one-sided fractional derivatives and integrals as Fourier multipliers with an
independent difference-quotient oracle, and computes ground states of

    (right-derivative o left-derivative of order alpha) u + u = f(t, u)

by constrained fiber projection and preconditioned descent, with a
mountain-pass path deformation as a cross-check on the critical level.

Each module's ``__all__`` is the one table of its public names; the package
exports their union.
"""

from . import errors, grid, nonlinearity, operators, solver, variational
from .errors import *  # noqa: F403
from .grid import *  # noqa: F403
from .nonlinearity import *  # noqa: F403
from .operators import *  # noqa: F403
from .solver import *  # noqa: F403
from .variational import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *grid.__all__,
    *operators.__all__,
    *nonlinearity.__all__,
    *variational.__all__,
    *solver.__all__,
]
