"""Gaussian position-measurement analysis: partition entropy, its scaled
product, their numerical maxima, and the derived velocity bounds.

A quasi-classical inside/outside-[0, R] position measurement on a Gaussian
packet carries binary partition entropy G(x) = h2(erf(x)) in nats, with
x = R/sigma the dimensionless interval radius.  G peaks at ln 2 where
erf(x) = 1/2; the product H(x) = G(x) * x peaks near 0.4579, which fixes
the classical-velocity bound constant 4 * 0.4579 = 1.832.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import InvalidState
from .speed_limits import _golden_min, process_velocity, require_positive

# numpy loads inside tabulate, so G, H and their maxima load without it
if TYPE_CHECKING:
    import numpy as np

SEARCH_UPPER = 6.0  # erf saturates to 1 within 1e-12 well before x = 6
SEARCH_GRID = 1024
BRACKET_TOL = 1e-10
MAX_GRID = 100_000  # most grid points a gaussian report may tabulate


def partition_entropy_G(x: float) -> float:
    """Binary entropy (nats) of the in-interval weight erf(x); at most ln 2.

    Each term p ln p takes the continuous extension 0 ln 0 := 0, and the
    leading 0.0 keeps G at +0.0 rather than -0.0 where erf(x) = 1.  x >= 0
    is trusted: every grid and bracket searched lies in [0, SEARCH_UPPER].
    """
    p = math.erf(x)
    q = 1.0 - p
    return 0.0 - (p * math.log(p) if p > 0.0 else 0.0) - (q * math.log(q) if q > 0.0 else 0.0)


def scaled_function_H(x: float) -> float:
    """Product G(x) * x driving the classical-velocity bound."""
    return partition_entropy_G(x) * x


def tabulate(points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns x, G(x), H(x) at `points` evenly spaced x over
    [0, SEARCH_UPPER].

    G is evaluated once per point and H formed as G * x, the product
    scaled_function_H computes.  More than MAX_GRID points raises
    InvalidState before the grid is built.
    """
    import numpy as np

    if points > MAX_GRID:
        raise InvalidState(f"grid of {points} points is above the cap of {MAX_GRID}")
    x = np.linspace(0.0, SEARCH_UPPER, points)
    g = np.array([partition_entropy_G(v) for v in x.tolist()])
    return x, g, g * x


def _argmax(f) -> float:
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


# The maxima are constants: each is searched once per process.  The cache
# holds the results, not the functions searched, so a run that later wraps
# partition_entropy_G (as the benchmark's trace does) searches no second
# time; max_G and max_H stay plain functions, so tracing still wraps them.
_MAXIMA: dict[str, tuple[float, float]] = {}


def max_G() -> tuple[float, float]:
    """Location and value of the partition-entropy maximum (ln 2)."""
    if "G" not in _MAXIMA:
        x = _argmax(partition_entropy_G)
        _MAXIMA["G"] = x, partition_entropy_G(x)
    return _MAXIMA["G"]


def max_H() -> tuple[float, float]:
    """Location and value of the maximum of G(x) * x (about 0.4579)."""
    if "H" not in _MAXIMA:
        x = _argmax(scaled_function_H)
        _MAXIMA["H"] = x, scaled_function_H(x)
    return _MAXIMA["H"]


def bound_process_velocity() -> float:
    """Repeated-position-measurement process velocity cap 4 ln 2 at T = 1:
    the process velocity of the largest partition entropy, ln 2."""
    return process_velocity(math.log(2.0))


def bound_classical_velocity(sigma_k0: float) -> float:
    """Classical average-velocity cap 4 max(H) sigma_k0 at T = 1
    (~1.832 sigma_k0) for a free Gaussian packet of width parameter
    sigma_k0, which must be positive and finite."""
    _, h_max = max_H()
    return 4.0 * h_max * require_positive("sigma_k0", sigma_k0)


def bound_resolution_velocity(sigma_x0: float) -> float:
    """Velocity cap 1/sigma_x0 at T = 1 for spatial resolution sigma_x0.

    Printed without the 1.832 prefactor that the uncertainty substitution
    sigma_x0 * sigma_k0 = 1 would carry over from the classical bound; the
    two bounds therefore differ by that factor.
    """
    return 1.0 / require_positive("sigma_x0", sigma_x0)
