"""The invariance check of the composite velocity bound under a Lorentz
boost.

The literature disagrees on how temperature (and length) should scale with
the Lorentz factor, so the check takes its two gamma exponents as explicit
parameters.  One temperature convention holds throughout: our frame, at
rest with T = 1, sees the frame boosted by v at
T = gamma^temp_exponent * T_bar, so the boosted frame's own temperature
is T_bar = 1 / gamma^temp_exponent.  Planck's T = T_bar / gamma is the
exponent -1, Ott's T = gamma * T_bar is +1.  Lengths read
r_bar = gamma^length_exponent * r, and the pair (-1, -1) is the only one
under which the two frames' bound values agree exactly.  In natural
units, h = k = c = 1, a boost velocity is a plain float with |v| < 1.
Entropy is frame-invariant, so the time quantum 1/(4TS) of one frame
follows from the other's by recomputing it at the transformed
temperature: dt = gamma^(-e) * dt_bar.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InvalidState
from .gaussian import max_H, partition_entropy_G
from .speed_limits import require_positive, time_quantum

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


class InvarianceReport(NamedTuple):
    """Rest- and boosted-frame quantities with their velocity mismatch."""

    rest: FrameQuantities
    boosted: FrameQuantities
    rel_diff: float
    gamma: float
    gamma_power: float
    passed: bool


def check_bound_invariance(
    sigma_k0: float, v: float, length_exponent: float, temp_exponent: float
) -> InvarianceReport:
    """Compare the bound-attaining velocity r/dt_min across frames boosted
    by v relative to each other.

    The rest frame, at T = 1, evaluates the classical bound of a packet
    of width parameter sigma_k0 (positive and finite, else InvalidState)
    at its attaining radius r* = x* sigma_k0.  The boosted frame takes the
    length gamma^length_exponent * r* and the temperature
    1 / gamma^temp_exponent (see the module docstring), then recomputes
    the quantum from that temperature and the invariant entropy.  The
    residual scales as gamma^(length_exponent - temp_exponent); the pair
    (-1, -1) cancels exactly and is the certified one.  A power of gamma
    outside the float range raises InvalidState.
    """
    g = gamma(v)
    x_star, _ = max_H()
    s_star = partition_entropy_G(x_star)  # frame-invariant
    r_rest = x_star * require_positive("sigma_k0", sigma_k0)
    rest = FrameQuantities(T=1.0, S=s_star, r=r_rest, dt_min=time_quantum(s_star, 1.0))

    try:
        t_boost = 1.0 / g**temp_exponent
    except (OverflowError, ZeroDivisionError):
        raise InvalidState(f"temperature factor gamma^{-temp_exponent} is out of range") from None
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
