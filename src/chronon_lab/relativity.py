"""Lorentz-frame transform of temperature and the invariance check for the
composite velocity bound.

The literature disagrees on how temperature (and length) should scale with
the Lorentz factor, so the temperature transform and the check take their
gamma exponents as explicit parameters.  The check defaults to the (-1, -1)
length/temperature pair, the only one under which the boosted and rest-frame
bound values agree exactly.  In natural units, h = k = c = 1, a boost
velocity is a plain float with |v| < 1 and the rest frame is at T = 1.
Entropy is frame-invariant, so the time quantum 1/(4TS) of one frame
follows from the other's by recomputing it at the transformed
temperature: dt = gamma^(-e) * dt_bar when T = gamma^e * T_bar.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InvalidState
from .gaussian import max_H, partition_entropy_G
from .speed_limits import require_positive, time_quantum

PLANCK_TEMPERATURE_EXPONENT = -1.0   # moving bodies appear cooler by 1/gamma
INVARIANCE_REL_TOL = 1e-12


class FrameQuantities(NamedTuple):
    """Temperature, entropy, length and time quantum as seen in one frame."""

    T: float
    S: float
    r: float
    dt_min: float

    def velocity(self) -> float:
        return self.r / self.dt_min


def gamma(v: float) -> float:
    """Lorentz factor 1/sqrt(1 - v^2) >= 1 of a boost of velocity v; v not
    finite, or |v| >= 1, raises InvalidState."""
    if not math.isfinite(v):
        raise InvalidState(f"invalid boost parameters v={v}, c=1.0")
    if abs(v) >= 1.0:
        raise InvalidState(f"|v| = {abs(v)} must be < c = 1.0")
    return 1.0 / math.sqrt(1.0 - v ** 2)


def transform_temperature(v: float, exponent: float) -> float:
    """The temperature gamma(v)^exponent in our frame of a frame at T = 1.

    Evaluated as 1 / gamma^(-exponent).  :func:`check_bound_invariance`
    calls it with its temperature exponent negated to get the boosted
    frame's temperature from the rest frame's.  A power of gamma outside
    the float range raises InvalidState.
    """
    try:
        return 1.0 / gamma(v) ** (-exponent)
    except (OverflowError, ZeroDivisionError):
        raise InvalidState(f"temperature factor gamma^{exponent} is out of range") from None


class InvarianceReport(NamedTuple):
    """Rest- and boosted-frame quantities with their velocity mismatch."""

    rest: FrameQuantities
    boosted: FrameQuantities
    rel_diff: float
    gamma: float
    gamma_power: float
    passed: bool


def check_bound_invariance(
    sigma_k0: float,
    v: float,
    length_exponent: float = -1.0,
    temp_exponent: float = PLANCK_TEMPERATURE_EXPONENT,
) -> InvarianceReport:
    """Compare the bound-attaining velocity r/dt_min across frames boosted
    by v relative to each other.

    The rest frame, at T = 1, evaluates the classical bound of a packet
    of width parameter sigma_k0 (positive and finite, else InvalidState)
    at its attaining radius r* = x* sigma_k0.  The boosted frame contracts
    the length by gamma^length_exponent and rescales temperature so that
    our-frame recovery uses gamma^temp_exponent, then recomputes the
    quantum from the transformed temperature and the invariant entropy.
    The residual scales as gamma^(length_exponent - temp_exponent); the
    pair (-1, -1) cancels exactly and is the certified one.  A power of
    gamma outside the float range raises InvalidState.
    """
    g = gamma(v)
    x_star, _ = max_H()
    s_star = partition_entropy_G(x_star)  # frame-invariant
    r_rest = x_star * require_positive("sigma_k0", sigma_k0)
    rest = FrameQuantities(T=1.0, S=s_star, r=r_rest, dt_min=time_quantum(s_star, 1.0))

    t_boost = transform_temperature(v, -temp_exponent)
    dt_boost = time_quantum(s_star, t_boost)
    try:
        r_boost = g**length_exponent * r_rest
    except OverflowError:
        raise InvalidState(f"length factor gamma^{length_exponent} is out of range") from None
    boosted = FrameQuantities(T=t_boost, S=s_star, r=r_boost, dt_min=dt_boost)

    v_rest = rest.velocity()
    v_boost = boosted.velocity()
    rel_diff = abs(v_boost - v_rest) / max(abs(v_rest), abs(v_boost))
    return InvarianceReport(
        rest=rest,
        boosted=boosted,
        rel_diff=rel_diff,
        gamma=g,
        gamma_power=length_exponent - temp_exponent,
        passed=rel_diff <= INVARIANCE_REL_TOL,
    )
