"""Exception types shared across the library.

Every error raised by chronon-lab derives from :class:`ChrononError`, which
itself derives from ``ValueError`` so that generic callers can catch either.
Errors tagged :class:`NumericalError` signal a failed computation rather than
a bad input; the CLI maps them to exit code 2 instead of 1.
"""


class ChrononError(ValueError):
    """Base class for all chronon-lab errors."""


class NumericalError(ChrononError):
    """A computation failed (non-convergence, inconsistent supports, ...)."""


# --- linear algebra ---

class NotSquare(ChrononError):
    pass


class NotHermitian(ChrononError):
    pass


class ConvergenceFailure(NumericalError):
    pass


class DomainError(ChrononError):
    """Scalar function undefined at an eigenvalue (e.g. log of 0)."""


class NegativeEigenvalue(ChrononError):
    pass


class SizeOverflow(ChrononError):
    """A matrix dimension or a work budget (ticks, grid points, trials) above its cap."""


class DimensionMismatch(ChrononError):
    pass


# --- states ---

class BasisSizeMismatch(ChrononError):
    pass


class InvalidState(ChrononError):
    pass


# --- entropy ---

class SupportMismatch(NumericalError):
    """Support of the joint state escapes the support of id (x) rho_B."""


class SingularState(NumericalError):
    """Rank-deficient state where a full-rank operation was requested."""


# --- speed limits / flow ---

class NonpositiveEntropy(ChrononError):
    pass


class DegenerateSpectrum(ChrononError):
    """Mean energy equals the ground energy: no orthogonalization possible."""


class NegativeTime(ChrononError):
    pass


class NonpositiveVelocity(ChrononError):
    pass


class NoActiveSystem(ChrononError):
    """Every system in a flow simulation has zero entropy."""


# --- gaussian ---

class NegativeArgument(ChrononError):
    pass


class NonpositiveResolution(ChrononError):
    pass


# --- relativity ---

class SuperluminalBoost(ChrononError):
    pass


class NonpositiveTemperature(ChrononError):
    pass
