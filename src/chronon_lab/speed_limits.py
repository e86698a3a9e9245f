"""Margolus-Levitin time quanta, orthogonalization-time search, and process
velocities.

Unit conventions
----------------
Thermodynamic formulas (time quantum h/(4kTS), process velocity 4kTS/h)
take their constants from a :class:`ThermalContext`, whose natural default
is h = k = c = T = 1.  Dynamical comparisons against explicit Schrodinger
evolution use exp(-iHt) with hbar = 1, for which the matching Planck
constant is 2*pi: build that context with :meth:`ThermalContext.hbar_one`.
:func:`orthogonalization_time` works in the hbar = 1 convention throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .entropy import ConditionalState, EntropyValue
from .errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    NegativeTime,
    NonpositiveEntropy,
    NonpositiveTemperature,
)
from .states import StateVector

ORTHOGONALITY_TOL = 1e-9
SCAN_GRID_POINTS = 4096
REFINE_TIME_RESOLUTION = 1e-12
_EPS = float(np.finfo(np.float64).eps)
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ThermalContext:
    """Temperature plus the physical constants h, k, c.

    Defaults are natural units (all 1).  For quantities tied to hbar = 1
    Hamiltonian evolution, use :meth:`hbar_one`, which sets h = 2*pi.
    """

    T: float = 1.0
    h: float = 1.0
    k: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        for name in ("T", "h", "k", "c"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0.0):
                raise NonpositiveTemperature(f"{name} must be positive and finite, got {val}")

    @classmethod
    def hbar_one(cls) -> "ThermalContext":
        """Context matching Hamiltonians evolved as exp(-iHt): h = 2*pi."""
        return cls(h=2.0 * math.pi)


@dataclass(frozen=True)
class TimeQuantum:
    """Minimal duration of one tick, strictly positive."""

    dt: float

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"time quantum must be positive and finite, got {self.dt}")


@dataclass(frozen=True)
class OrthogonalizationResult:
    """Outcome of a first-orthogonalization search.

    t_orth is the earliest time with |<psi0|psi(t)>| <= tolerance, or None
    if the overlap never drops that low before t_max.  overlap_trace holds
    the sampled |overlap| grid; bound is the applicable shifted
    Margolus-Levitin lower bound (may be inf for an eigenstate).
    """

    t_orth: Optional[float]
    overlap_trace: np.ndarray
    bound: float


def time_quantum(s: EntropyValue, ctx: ThermalContext) -> TimeQuantum:
    """Minimal tick h/(4 k T S) generated by entropy dissipation S."""
    if s.nats <= 0.0:
        raise NonpositiveEntropy(
            f"time quantum undefined for entropy {s.nats}: no time flow"
        )
    return TimeQuantum(ctx.h / (4.0 * ctx.k * ctx.T * s.nats))


def ml_bound_shifted(e_mean: float, e0: float, ctx: ThermalContext) -> TimeQuantum:
    """Shifted Margolus-Levitin bound h / (4 (E_mean - E0)).

    Invariant under a common energy shift.  For Hamiltonians evolved as
    exp(-iHt), pass a context with h = 2*pi (:meth:`ThermalContext.hbar_one`).
    """
    gap = e_mean - e0
    if gap <= 0.0:
        raise DegenerateSpectrum(
            f"mean energy {e_mean} does not exceed ground energy {e0}"
        )
    return TimeQuantum(ctx.h / (4.0 * gap))


def process_velocity(s0: EntropyValue, ctx: ThermalContext) -> float:
    """Orthogonal states per unit time, 4 k T S0 / h.  Requires S0 >= 0."""
    return 4.0 * ctx.k * ctx.T * s0.nats / ctx.h


def state_count(s0: EntropyValue, t: float, ctx: ThermalContext) -> float:
    """Number of orthogonal states passed over [0, t]: velocity * t."""
    if t < 0.0:
        raise NegativeTime(f"t must be >= 0, got {t}")
    return process_velocity(s0, ctx) * t


def _golden_min(f, lo: float, hi: float, xtol: float) -> float:
    """Golden-section minimizer for a unimodal bracket."""
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > xtol:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_GOLDEN * (hi - lo)
            f2 = f(x2)
    return 0.5 * (lo + hi)


def orthogonalization_time(
    spectrum: tuple[np.ndarray, np.ndarray], psi0: StateVector, t_max: float
) -> OrthogonalizationResult:
    """Earliest time at which exp(-iHt)|psi0> becomes orthogonal to |psi0>.

    spectrum is H's ``(energies, vectors)`` from
    :func:`chronon_lab.linalg.eig_hermitian`, which has already checked
    that H is Hermitian; a caller that needs the pair for anything else
    decomposes H once and passes the same pair here.

    Samples |<psi0|exp(-iHt)|psi0>| on a grid of SCAN_GRID_POINTS points
    over [0, t_max], refines local minima by golden section down to
    REFINE_TIME_RESOLUTION, and reports the first refined minimum whose
    overlap modulus is <= tol = ORTHOGONALITY_TOL (None if no such time
    exists).  The bound field carries 2*pi/(4 (E_mean - E0)) with
    E_mean = <psi0|H|psi0> and E0 the smallest eigenvalue (hbar = 1
    convention; inf when E_mean = E0).

    The overlap A(t) = |sum_k w_k exp(-i E_k t)| is Lipschitz with constant
    L = sum_k w_k |E_k - E_mean|.  Every point t of the refinement bracket
    [ts[i-1], ts[i+1]] lies within half a grid step dt of one of its three
    grid points, none of which samples below the minimum trace[i]; so
    A(t) >= trace[i] - L*dt/2.  A minimum with trace[i] > tol + L*dt/2
    (plus a rounding margin) is skipped unrefined: no refinement of its
    bracket could pass.  The brackets refined up to the first passing one,
    and hence t_orth, are the same as when every minimum is refined.
    """
    energies, vectors = spectrum
    if vectors.shape[0] != psi0.dim:
        raise DimensionMismatch(
            f"Hamiltonian dim {vectors.shape[0]} != state dim {psi0.dim}"
        )
    if t_max <= 0.0:
        raise NegativeTime(f"t_max must be positive, got {t_max}")

    weights = np.abs(linalg.dag(vectors) @ psi0.amplitudes) ** 2

    e_mean = float(weights @ energies)
    e0 = float(energies[0])
    gap = e_mean - e0
    if gap > 1e-15 * max(1.0, abs(e0), abs(e_mean)):
        bound = ml_bound_shifted(e_mean, e0, ThermalContext.hbar_one()).dt
    else:
        bound = math.inf

    ts = np.linspace(0.0, t_max, SCAN_GRID_POINTS)
    amp = (weights[None, :] * np.exp(-1j * np.outer(ts, energies))).sum(axis=1)
    trace = np.abs(amp)

    def overlap(t: float) -> float:
        return abs(np.sum(weights * np.exp(-1j * energies * t)))

    lipschitz = float(weights @ np.abs(energies - e_mean))
    half_step = 0.5 * t_max / (SCAN_GRID_POINTS - 1)
    # Both overlap evaluations round phases of size up to max|E| * t_max.
    rounding = 1e-12 + 64 * _EPS * (float(np.abs(energies).max()) * t_max + len(energies))
    # A(t) >= trace[i] - L*dt/2 on the bracket of a grid minimum, so one above
    # tol + L*dt/2 (plus rounding) cannot refine to a passing point: skip it.
    skip_above = ORTHOGONALITY_TOL + lipschitz * half_step * (1.0 + 1e-9) + rounding
    mid = trace[1:-1]
    candidates = (mid <= trace[:-2]) & (mid <= trace[2:]) & (mid <= skip_above)

    t_orth = None
    for i in np.flatnonzero(candidates) + 1:
        t_star = _golden_min(overlap, ts[i - 1], ts[i + 1], REFINE_TIME_RESOLUTION)
        if overlap(t_star) <= ORTHOGONALITY_TOL:
            t_orth = t_star
            break
    if t_orth is None and trace[-1] <= ORTHOGONALITY_TOL:
        t_orth = float(ts[-1])

    return OrthogonalizationResult(t_orth=t_orth, overlap_trace=trace, bound=bound)


def antiqubit_process_velocity(cs: ConditionalState, ctx: ThermalContext) -> float:
    """Process velocity 4 k T (S(A|B) - E0) / h for a bipartite joint's
    conditional state (see :func:`chronon_lab.entropy.conditional_state`).

    E0 is the smallest eigenvalue of -log rho_{A|B} on its support, i.e.
    -ln of the conditional density's largest eigenvalue.  The shift keeps
    the velocity non-negative even when S(A|B) < 0.
    """
    e0 = -math.log(float(cs.spectrum[-1]))
    return 4.0 * ctx.k * ctx.T * (cs.entropy.nats - e0) / ctx.h
