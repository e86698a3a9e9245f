"""Margolus-Levitin time quanta, orthogonalization-time search, and process
velocities.

Unit conventions
----------------
Natural units, h = k = c = 1: the thermal time quantum h/(4kTS) is 1/(4TS)
and the process velocity 4kTS/h is 4TS.  Only :func:`time_quantum` takes a
temperature, since only flow configs and a Lorentz check's boosted frame
vary it; every other thermal formula is at T = 1.  Dynamics evolve as
exp(-iHt) with hbar = 1, where h = 2*pi: :func:`ml_bound_shifted` and
:func:`orthogonalization_time` work in that convention throughout.

Scalars are plain floats, checked where they enter: :func:`require_positive`
for a temperature, horizon, packet width, velocity or time quantum, and
:func:`require_entropy` for an entropy.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import TYPE_CHECKING, NamedTuple, Optional

from .errors import InvalidState

# numpy loads inside the scan, so the thermal formulas load without it
if TYPE_CHECKING:
    import numpy as np

    from .entropy import BlockConditionalState, ConditionalState

ORTHOGONALITY_TOL = 1e-9
SCAN_GRID_POINTS = 4096
_TABLE_SIDE = math.isqrt(SCAN_GRID_POINTS)  # grid row r = _TABLE_SIDE p + q
REFINE_TIME_RESOLUTION = 1e-12
_EPS = sys.float_info.epsilon
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class OrthogonalizationResult(NamedTuple):
    """Outcome of a first-orthogonalization search.

    t_orth is the earliest time with |<psi0|psi(t)>| <= tolerance, or None
    if the overlap never drops that low before t_max; bound is the
    applicable shifted Margolus-Levitin lower bound (may be inf for an
    eigenstate).
    """

    t_orth: Optional[float]
    bound: float


def require_positive(name: str, value: float) -> float:
    """value itself; InvalidState naming it unless it is positive and finite."""
    if not (math.isfinite(value) and value > 0.0):
        raise InvalidState(f"{name} must be positive and finite, got {value}")
    return value


def require_entropy(s: float) -> float:
    """The entropy s itself, in nats; InvalidState unless it is finite."""
    if not math.isfinite(s):
        raise InvalidState(f"entropy must be finite, got {s}")
    return s


def time_quantum(s: float, T: float) -> float:
    """Minimal tick 1/(4 T S) generated by entropy dissipation S at
    temperature T; a 4 T S that underflows to 0 gives inf, rejected."""
    require_positive("T", T)
    if s <= 0.0:
        raise InvalidState(f"time quantum undefined for entropy {s}: no time flow")
    rate = 4.0 * T * s
    return require_positive("time quantum", 1.0 / rate if rate else math.inf)


def ml_bound_shifted(e_mean: float, e0: float) -> float:
    """Shifted Margolus-Levitin bound 2*pi / (4 (E_mean - E0)) under
    exp(-iHt), for E_mean > E0; invariant under a common energy shift."""
    return 2.0 * math.pi / (4.0 * (e_mean - e0))


def process_velocity(s0: float) -> float:
    """Orthogonal states per unit time, 4 S0 at T = 1.  S0 must pass
    :func:`require_entropy` and be >= 0, else InvalidState."""
    if require_entropy(s0) < 0.0:
        raise InvalidState(f"entropy must be >= 0, got {s0}")
    return 4.0 * s0


def state_count(s0: float, t: float) -> float:
    """Number of orthogonal states passed over [0, t]: velocity * t.  The
    entropy is checked before t."""
    velocity = process_velocity(s0)
    if t < 0.0:
        raise InvalidState(f"t must be >= 0, got {t}")
    return velocity * t


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


def _overlap_rows(weights: np.ndarray, energies: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """|<psi0|exp(-iHt)|psi0>| at each time of ts, each row by the same
    arithmetic whichever other rows are asked for."""
    import numpy as np

    return np.abs((weights[None, :] * np.exp(-1j * np.outer(ts, energies))).sum(axis=1))


@functools.lru_cache(maxsize=16)
def _scan_grid(t_max: float) -> np.ndarray:
    """The read-only grid times of t_max, built on its first scan."""
    import numpy as np

    ts = np.linspace(0.0, t_max, SCAN_GRID_POINTS)
    ts.flags.writeable = False
    return ts


class _Terms(NamedTuple):
    """One scan's coefficients and error terms of its bounds."""

    coeffs: np.ndarray  # rows w_k and -i w_k (E_k - E_mean): (a, c) = coeffs @ phases
    lipschitz: float  # L = sum_k w_k |E_k - E_mean|
    half_m2: float  # M2 / 2, widened by 1e-9 relative
    rounding: float  # the error of a computed overlap


def _terms(weights: np.ndarray, energies: np.ndarray, e_mean: float, t_max: float) -> _Terms:
    import numpy as np

    shifted = energies - e_mean
    # Every overlap evaluation rounds phases of size up to max|E| * t_max;
    # the energies ascend, so max|E| is at one end.
    e_abs = max(-float(energies[0]), float(energies[-1]))
    rounding = 1e-12 + 64 * _EPS * (e_abs * t_max + len(energies))
    return _Terms(
        coeffs=np.array((weights, -1j * weights * shifted)),
        lipschitz=float(weights @ np.abs(shifted)),
        half_m2=0.5 * float(weights @ shifted**2) * (1.0 + 1e-9),
        rounding=rounding,
    )


def _row_floors(
    terms: _Terms, weights: np.ndarray, energies: np.ndarray, ts: np.ndarray
) -> np.ndarray:
    """A lower bound on each computed row of :func:`_overlap_rows` over the
    grid ts, from the phase tables U = exp(-i E ts[::64]) and
    V = exp(-i E ts[:64]): row 64 p + q is bounded by |(w * U)^T V|[p, q]."""
    import numpy as np

    u = np.exp(-1j * np.outer(ts[::_TABLE_SIDE], energies))
    v = np.exp(-1j * np.outer(energies, ts[:_TABLE_SIDE]))
    delta = 16 * _EPS * float(ts[-1])
    return np.abs((u * weights) @ v).ravel() - (2.0 * terms.rounding + terms.lipschitz * delta)


def _floor(terms: _Terms, ac: np.ndarray, h) -> np.ndarray:
    """Second-order lower bound on the computed A over [t - h, t + h], from
    ac = (a, c), the overlap and its slope at each t."""
    import numpy as np

    a, c = ac
    cc = c.real**2 + c.imag**2
    # the s in [-h, h] nearest the minimum of |a + c s| over all real s
    s = np.divide(-(a.real * c.real + a.imag * c.imag), cc, out=np.zeros_like(cc), where=cc > 0)
    s = np.clip(s, -h, h)
    return np.abs(a + c * s) - terms.half_m2 * h * h - terms.rounding * (2.0 + terms.lipschitz * h)


def orthogonalization_time(
    spectrum: tuple[np.ndarray, np.ndarray], psi0: np.ndarray, t_max: float
) -> OrthogonalizationResult:
    """Earliest time at which exp(-iHt)|psi0> becomes orthogonal to |psi0>.

    spectrum is H's ``(energies, vectors)`` pair as :func:`linalg.eigh`
    returns it, psi0 normalized amplitudes of H's dimension and t_max > 0,
    all trusted; a caller that needs the pair for anything else decomposes
    H once and passes the same pair here.

    Scans A(t) = |sum_k w_k exp(-i E_k t)| on a grid ts of SCAN_GRID_POINTS
    points over [0, t_max], refines grid-local minima by golden section down
    to REFINE_TIME_RESOLUTION, and reports the first refined minimum with
    A <= tol = ORTHOGONALITY_TOL; failing that t_max if A(t_max) <= tol,
    else None.  The bound field carries 2*pi/(4 (E_mean - E0)) with
    E_mean = <psi0|H|psi0> and E0 the smallest eigenvalue (hbar = 1
    convention; inf when E_mean = E0).

    A is evaluated only where it can reach tol, by bounds that hold for the
    computed values once rounding = 1e-12 + 64 eps (max|E| t_max + d), the
    error of an overlap whose phases reach max|E| t_max, is taken off:

    - First order: A is Lipschitz with L = sum_k w_k |E_k - E_mean|, and
      each point of the bracket [ts[i-1], ts[i+1]] lies within dt/2 of a
      grid point no lower than the minimum trace[i]; a minimum above
      skip_above = tol + L dt/2 + rounding is not refined.
    - Row prune: grid row r = 64 p + q (p, q < 64) is bounded at its table
      time t = ts[64 p] + ts[q].  From the phase tables U = exp(-i E ts[::64])
      and V = exp(-i E ts[:64]), both d x 64, A(t) = |(w * U)^T V|[p, q],
      where w * U scales row k of U by w_k: 128 d exponentials and one
      64 x 64 product per scan, not 4096 d.  A row whose value less
      2 rounding + L delta is above skip_above is skipped: the trace is
      computed only on the other rows, every skipped row reading inf.
    - Second order: with a the overlap and c = -i sum_k w_k (E_k - E_mean)
      exp(-i E_k t) its slope at t (phase shifted by E_mean, which no
      modulus sees), A(t + s) >= min_{|s| <= h} |a + c s| - M2 h^2/2 on
      |s| <= h, where M2 = sum_k w_k (E_k - E_mean)^2.  Rounding is taken
      off twice: scaled by 1 + L h for the computed a and c, and once for
      the value compared.  At a candidate, with h = dt, it skips a bracket
      above tol.

    A NaN bound skips nothing.  The bounds only prune, so their own bits are
    free.  A table value lies within 2 rounding + L delta of the computed
    row r, with delta = 16 eps t_max:

    - One rounding covers the table value.  A term U V rounds the two
      phases E ts[64 p] and E ts[q], whose errors add to at most
      eps/2 |E| (ts[64 p] + ts[q]), about eps/2 max|E| t_max: the one
      rounded phase E t of a direct exp(-i E t).  The second exponential
      and the product's sum over the d terms add a few eps per term,
      inside the 64 eps d part.  The other rounding covers the computed row.
    - delta covers the time.  linspace puts each ts[r] within about one
      ulp of t_max of r t_max / 4095, and ts[-1] at t_max itself, so
      ts[64 p] + ts[q] and ts[r] differ by a few ulps of t_max, far less
      than delta; A moves by at most L delta between the two times.

    ts depends on t_max alone and is built once per t_max (:func:`_scan_grid`).

    Each computed row uses the full grid's per-row arithmetic
    (:func:`_overlap_rows`), so it holds the full grid's bits.  A skipped
    row lies above skip_above on the full grid too, so it is no candidate,
    and as a neighbour it compares with a row <= skip_above the same way
    as inf does; no skipped bracket could have held a passing point.  So
    t_orth, the trace[-1] fallback included, is bit for bit the one found
    by refining every grid-local minimum of the full grid.
    """
    import numpy as np

    energies, vectors = spectrum
    weights = np.abs(vectors.conj().T @ psi0) ** 2

    e_mean = float(weights @ energies)
    e0 = float(energies[0])
    gap = e_mean - e0
    if gap > 1e-15 * max(1.0, abs(e0), abs(e_mean)):
        bound = ml_bound_shifted(e_mean, e0)
    else:
        bound = math.inf

    ts = _scan_grid(t_max)
    terms = _terms(weights, energies, e_mean, t_max)
    half_step = 0.5 * t_max / (SCAN_GRID_POINTS - 1)
    # A(t) >= trace[i] - L*dt/2 on the bracket of a grid minimum, so one above
    # tol + L*dt/2 (plus rounding) cannot refine to a passing point: skip it.
    skip_above = ORTHOGONALITY_TOL + terms.lipschitz * half_step * (1.0 + 1e-9) + terms.rounding

    rows = np.flatnonzero(~(_row_floors(terms, weights, energies, ts) > skip_above))
    trace = np.full(SCAN_GRID_POINTS, np.inf)
    trace[rows] = _overlap_rows(weights, energies, ts[rows])

    mid = trace[1:-1]
    candidates = (mid <= trace[:-2]) & (mid <= trace[2:]) & (mid <= skip_above)
    candidates = np.flatnonzero(candidates) + 1
    if len(candidates):
        # every point of a candidate's bracket lies within dt of its grid point
        step = 2.0 * half_step * (1.0 + 1e-9)
        ac = terms.coeffs @ np.exp(-1j * np.outer(energies, ts[candidates]))
        candidates = candidates[~(_floor(terms, ac, step) > ORTHOGONALITY_TOL)]

    # (-1j * energies) * t and np.sum's reduce, hoisted: the same bits, cheaper
    neg_i_energies = -1j * energies

    def overlap(t: float) -> float:
        return abs(np.add.reduce(weights * np.exp(neg_i_energies * t)))

    t_orth = None
    for i in candidates:
        t_star = _golden_min(overlap, ts[i - 1], ts[i + 1], REFINE_TIME_RESOLUTION)
        if overlap(t_star) <= ORTHOGONALITY_TOL:
            t_orth = t_star
            break
    if t_orth is None and trace[-1] <= ORTHOGONALITY_TOL:
        t_orth = float(ts[-1])

    return OrthogonalizationResult(t_orth=t_orth, bound=bound)


def antiqubit_process_velocity(cs: ConditionalState | BlockConditionalState) -> float:
    """Process velocity 4 (S(A|B) - E0) at T = 1 for a conditional state
    (see :func:`chronon_lab.entropy.conditional_state` and
    :func:`chronon_lab.entropy.cq_conditional_state`).

    E0 is the smallest eigenvalue of -log rho_{A|B} on its support, i.e.
    -ln of the conditional density's largest eigenvalue.  The shift keeps
    the velocity non-negative up to rounding, even when S(A|B) < 0: for a
    maximally entangled joint S(A|B) and E0 cancel exactly, and the
    computed difference may be a few ulps below zero.  It is not clamped.
    """
    e0 = -math.log(float(cs.spectrum[-1]))
    return 4.0 * (cs.entropy - e0)
