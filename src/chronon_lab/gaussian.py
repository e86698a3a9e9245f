"""Gaussian position-measurement analysis: partition entropy, its scaled
product, their numerical maxima, and the derived velocity bounds.

A quasi-classical inside/outside-[0, R] position measurement on a Gaussian
packet carries binary partition entropy G(x) = h2(erf(x)) in nats, with
x = R/sigma the dimensionless interval radius.  G peaks at ln 2 where
erf(x) = 1/2; the product H(x) = G(x) * x peaks near 0.4579, which fixes
the classical-velocity bound constant 4 * 0.4579 = 1.832.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .entropy import EntropyValue
from .errors import NegativeArgument, NonpositiveResolution, SizeOverflow
from .linalg import xlnx
from .speed_limits import ThermalContext, _golden_min

SEARCH_UPPER = 6.0  # erf saturates to 1 within 1e-12 well before x = 6
SEARCH_GRID = 1024
BRACKET_TOL = 1e-10
MAX_GRID = 100_000  # most grid points a gaussian report may tabulate


@dataclass(frozen=True)
class GaussianPacket:
    """Free Gaussian packet: width parameter sigma_k0 > 0, mean wave number k0."""

    sigma_k0: float
    k0: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.sigma_k0) and self.sigma_k0 > 0.0):
            raise NonpositiveResolution(
                f"sigma_k0 must be positive and finite, got {self.sigma_k0}"
            )


def _binary_entropy(p: float) -> float:
    # The leading 0.0 keeps h2(1) at +0.0 rather than -0.0.
    return 0.0 - xlnx(p) - xlnx(1.0 - p)


def partition_entropy_G(x: float) -> EntropyValue:
    """Binary entropy (nats) of the in-interval weight erf(x); at most ln 2."""
    if x < 0.0:
        raise NegativeArgument(f"x must be >= 0, got {x}")
    return EntropyValue(_binary_entropy(math.erf(x)))


def scaled_function_H(x: float) -> float:
    """Product G(x) * x driving the classical-velocity bound."""
    if x < 0.0:
        raise NegativeArgument(f"x must be >= 0, got {x}")
    return _binary_entropy(math.erf(x)) * x


def tabulate(points: int) -> list[tuple[float, float, float]]:
    """(x, G(x), H(x)) at `points` evenly spaced x over [0, SEARCH_UPPER].

    G is evaluated once per point and H formed as G * x, the product
    scaled_function_H computes.  More than MAX_GRID points raises
    SizeOverflow before the grid is built.
    """
    if points > MAX_GRID:
        raise SizeOverflow(f"grid of {points} points is above the cap of {MAX_GRID}")
    rows = []
    for x in np.linspace(0.0, SEARCH_UPPER, points).tolist():
        g = partition_entropy_G(x).nats
        rows.append((x, g, g * x))
    return rows


def _grid_seeded_argmax(f) -> float:
    """Coarse grid over [0, SEARCH_UPPER], then golden-section refinement."""
    step = SEARCH_UPPER / (SEARCH_GRID - 1)
    best_i, best_v = 0, f(0.0)
    for i in range(1, SEARCH_GRID):
        v = f(i * step)
        if v > best_v:
            best_i, best_v = i, v
    lo = max(0.0, (best_i - 1) * step)
    hi = min(SEARCH_UPPER, (best_i + 1) * step)
    return _golden_min(lambda x: -f(x), lo, hi, BRACKET_TOL)


# The maxima are constants: search for each location once per process.
@functools.cache
def _argmax_G() -> float:
    return _grid_seeded_argmax(lambda x: partition_entropy_G(x).nats)


@functools.cache
def _argmax_H() -> float:
    return _grid_seeded_argmax(scaled_function_H)


def max_G() -> tuple[float, float]:
    """Location and value of the partition-entropy maximum (ln 2)."""
    x = _argmax_G()
    return x, partition_entropy_G(x).nats


def max_H() -> tuple[float, float]:
    """Location and value of the maximum of G(x) * x (about 0.4579)."""
    x = _argmax_H()
    return x, scaled_function_H(x)


def bound_process_velocity(ctx: ThermalContext) -> float:
    """Repeated-position-measurement process velocity cap 4 ln2 kT/h."""
    return 4.0 * math.log(2.0) * ctx.k * ctx.T / ctx.h


def bound_classical_velocity(packet: GaussianPacket, ctx: ThermalContext) -> float:
    """Classical average-velocity cap 4 max(H) kT sigma_k0 / h (~1.832 kT sigma/h).

    Independent of the packet's mean wave number k0.
    """
    _, h_max = max_H()
    return 4.0 * h_max * ctx.k * ctx.T * packet.sigma_k0 / ctx.h


def bound_resolution_velocity(sigma_x0: float, ctx: ThermalContext) -> float:
    """Velocity cap kT/(h sigma_x0) for spatial resolution sigma_x0.

    Printed without the 1.832 prefactor that the uncertainty substitution
    sigma_x0 * sigma_k0 = 1 would carry over from the classical bound; the
    two bounds therefore differ by that factor.
    """
    if not (math.isfinite(sigma_x0) and sigma_x0 > 0.0):
        raise NonpositiveResolution(f"sigma_x0 must be positive, got {sigma_x0}")
    return ctx.k * ctx.T / (ctx.h * sigma_x0)
