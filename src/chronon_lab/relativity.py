"""Lorentz-frame transform of temperature and the invariance check for the
composite velocity bound.

The literature disagrees on how temperature (and length) should scale with
the Lorentz factor, so the temperature transform and the check take their
gamma exponents as explicit parameters.  Defaults follow the conventions
this library's bound check certifies: temperature gamma^(-1/2) for the
standalone transform, and the (-1, -1) length/temperature pair for the
invariance report, which is the only pair under which the boosted and
rest-frame bound values agree exactly.  Entropy is frame-invariant, and so
are h and k, so the time quantum h/(4kTS) of one frame follows from the
other's by recomputing it at the transformed temperature:
dt = gamma^(-e) * dt_bar when T = gamma^e * T_bar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .entropy import EntropyValue
from .errors import InvalidState
from .gaussian import GaussianPacket, max_H, partition_entropy_G
from .speed_limits import ThermalContext, TimeQuantum, time_quantum

TEMPERATURE_EXPONENT_DEFAULT = -0.5  # gamma^(-1/2) convention
PLANCK_TEMPERATURE_EXPONENT = -1.0   # moving bodies appear cooler by 1/gamma
INVARIANCE_REL_TOL = 1e-12


@dataclass(frozen=True)
class Boost:
    """Pure boost of velocity v in a frame with light speed c."""

    v: float
    c: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.v) and math.isfinite(self.c) and self.c > 0.0):
            raise InvalidState(f"invalid boost parameters v={self.v}, c={self.c}")
        if abs(self.v) >= self.c:
            raise InvalidState(f"|v| = {abs(self.v)} must be < c = {self.c}")


@dataclass(frozen=True)
class FrameQuantities:
    """Temperature, entropy, length and time quantum as seen in one frame."""

    T: float
    S: EntropyValue
    r: float
    dt_min: TimeQuantum

    def __post_init__(self):
        if self.T <= 0.0:
            raise InvalidState(f"T must be positive, got {self.T}")
        if self.r < 0.0:
            raise InvalidState(f"length must be >= 0, got {self.r}")

    def velocity(self) -> float:
        return self.r / self.dt_min.dt


def gamma(b: Boost) -> float:
    """Lorentz factor 1/sqrt(1 - v^2/c^2) >= 1."""
    return 1.0 / math.sqrt(1.0 - (b.v / b.c) ** 2)


def transform_temperature(
    t_bar: float, b: Boost, exponent: float = TEMPERATURE_EXPONENT_DEFAULT
) -> float:
    """Map the other frame's temperature to ours: T = gamma^exponent * T_bar.

    Evaluated as T_bar / gamma^(-exponent).  :func:`check_bound_invariance`
    calls it with its temperature exponent negated to get the boosted
    frame's temperature from the rest frame's.
    """
    if t_bar <= 0.0:
        raise InvalidState(f"temperature must be positive, got {t_bar}")
    return t_bar / gamma(b) ** (-exponent)


@dataclass(frozen=True)
class InvarianceReport:
    """Rest- and boosted-frame bound velocities with their mismatch."""

    rest: FrameQuantities
    boosted: FrameQuantities
    rest_velocity: float
    boosted_velocity: float
    rel_diff: float
    gamma: float
    gamma_power: float
    passed: bool


def check_bound_invariance(
    packet: GaussianPacket,
    ctx: ThermalContext,
    b: Boost,
    length_exponent: float = -1.0,
    temp_exponent: float = PLANCK_TEMPERATURE_EXPONENT,
) -> InvarianceReport:
    """Compare the bound-attaining velocity r/dt_min across frames.

    The rest frame evaluates the classical bound at its attaining radius
    r* = x* sigma_k0.  The boosted frame contracts the length by
    gamma^length_exponent and rescales temperature so that our-frame
    recovery uses gamma^temp_exponent, then recomputes the quantum from
    the transformed temperature and the invariant entropy.  The residual
    scales as gamma^(length_exponent - temp_exponent); the pair (-1, -1)
    cancels exactly and is the certified one.
    """
    g = gamma(b)
    x_star, _ = max_H()
    s_star = partition_entropy_G(x_star)  # frame-invariant
    r_rest = x_star * packet.sigma_k0
    dt_rest = time_quantum(s_star, ctx)
    rest = FrameQuantities(T=ctx.T, S=s_star, r=r_rest, dt_min=dt_rest)

    t_boost = transform_temperature(ctx.T, b, -temp_exponent)
    ctx_boost = ThermalContext(T=t_boost, h=ctx.h, k=ctx.k, c=ctx.c)
    dt_boost = time_quantum(s_star, ctx_boost)
    r_boost = g**length_exponent * r_rest
    boosted = FrameQuantities(T=t_boost, S=s_star, r=r_boost, dt_min=dt_boost)

    v_rest = rest.velocity()
    v_boost = boosted.velocity()
    rel_diff = abs(v_boost - v_rest) / max(abs(v_rest), abs(v_boost))
    return InvarianceReport(
        rest=rest,
        boosted=boosted,
        rest_velocity=v_rest,
        boosted_velocity=v_boost,
        rel_diff=rel_diff,
        gamma=g,
        gamma_power=length_exponent - temp_exponent,
        passed=rel_diff <= INVARIANCE_REL_TOL,
    )
