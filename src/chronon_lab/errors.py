"""Exception types shared across the library: one type per exit code.

:class:`InvalidState` is a bad input or a work cap: the CLI exits 1.
:class:`NumericalError` is a computation that failed on valid input
(non-convergence, inconsistent supports, a singular state): the CLI exits
2.  The message, not the type, names the broken invariant.  Both derive
from :class:`ChrononError`, which derives from ``ValueError`` so that
generic callers can catch either.
"""


class ChrononError(ValueError):
    """Base class for all chronon-lab errors."""


class InvalidState(ChrononError):
    """An input breaks an invariant, or a work budget is above its cap."""


class NumericalError(ChrononError):
    """A computation failed on valid input."""
