"""Discrete thermal time-flow simulation, clock ratios, conditional time
dilation, and the single-observable simultaneity rule.

Each measured system ticks periodically with its own time quantum; the flow
is the merged, deterministic series of those quanta.  It is held as numpy
columns, not as one Python row per tick: the merged tick times and, per
tick, the index of its system among the active ones, whose id and quantum
are stored once.  Tick times are exact integer multiples n * dt rather
than a running sum, so repeated quanta march in step bit-for-bit over any
horizon.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from . import entropy, linalg
from .errors import InvalidState
from .speed_limits import require_entropy, require_positive, time_quantum

# numpy loads inside simulate_flow, so ratios and offsets load without it
if TYPE_CHECKING:
    import numpy as np

    from .states import ClassicalQuantumState

MAX_TICKS = 10**6  # largest merged flow simulate_flow will build
# Characters a system id may not hold: CSV output writes ids unquoted.
_CSV_UNSAFE = frozenset(',"\r\n')


class _SystemFields(NamedTuple):
    id: str
    entropy: float


class SystemSpec(_SystemFields):
    """A repeatedly measured system: id plus its per-measurement entropy
    in nats, checked finite before the id is checked."""

    __slots__ = ()

    def __new__(cls, id: str, entropy: float):
        require_entropy(entropy)
        if not isinstance(id, str):
            raise InvalidState(f"system id must be a string, got {id!r}")
        if not _CSV_UNSAFE.isdisjoint(id):
            raise InvalidState(f"system id {id!r} holds a comma, quote, CR or LF")
        if entropy < 0.0:
            raise InvalidState(f"system {id!r}: per-measurement entropy must be >= 0")
        return super().__new__(cls, id, entropy)


class ThermalFlow(NamedTuple):
    """Merged tick series as columns, ordered by time with id tie-break.

    ``ticks`` holds the tick times, non-decreasing overall (identical
    systems tick together) and strictly increasing per system; its length
    is the tick count.  ``system`` holds, per tick, its index into
    ``systems``, the ``(id, quantum)`` of each active system in config
    order: tick i is the system ``systems[system[i]]`` ticking at
    ``ticks[i]``.
    """

    ticks: np.ndarray
    system: np.ndarray
    systems: tuple


def simulate_flow(systems: list, T: float, horizon: float) -> ThermalFlow:
    """Merge the periodic ticks of every active system, each with its
    quantum at temperature T, up to the horizon.

    The horizon is trusted to be positive and finite, as
    ``serialization.load_flow_config`` checks it.  Systems with zero
    entropy contribute no ticks; if none is active the flow is undefined
    and InvalidState is raised, as it is for a flow of more than MAX_TICKS
    ticks, before any tick is built.  Each active system gives one column
    of tick times; the columns are merged by one stable ``np.lexsort`` on
    time, then on the rank of the system id among the sorted distinct ids,
    so equal tick times are ordered lexicographically by id and systems
    that share an id keep their config order.
    """
    import numpy as np

    active = [s for s in systems if s.entropy > 0.0]
    if not active:
        raise InvalidState("no system has positive entropy: nothing happens")
    quanta = [time_quantum(spec.entropy, T) for spec in active]
    # horizon / dt may overflow to inf for a vanishing quantum
    counts = [horizon / dt for dt in quanta]
    n_ticks = sum(math.floor(q) if math.isfinite(q) else q for q in counts)
    if n_ticks > MAX_TICKS:
        raise InvalidState(f"flow needs {n_ticks} ticks, above the cap of {MAX_TICKS}")
    columns = []
    for dt, q in zip(quanta, counts):
        # exact multiples n * dt (every n < 2**53 is an exact float), no drift
        times = np.arange(1, math.floor(q) + 1) * dt
        columns.append(times[times <= horizon])
    times = np.concatenate(columns)
    system = np.repeat(np.arange(len(active)), [len(c) for c in columns])
    rank = {sid: r for r, sid in enumerate(sorted({spec.id for spec in active}))}
    id_rank = np.array([rank[spec.id] for spec in active])
    order = np.lexsort((id_rank[system], times))
    return ThermalFlow(
        ticks=times[order],
        system=system[order],
        systems=tuple((spec.id, dt) for spec, dt in zip(active, quanta)),
    )


def clock_ratio(s1: SystemSpec, s2: SystemSpec) -> float:
    """Quantum ratio dt1/dt2 = S2/S1; the temperature cancels."""
    if s1.entropy <= 0.0 or s2.entropy <= 0.0:
        raise InvalidState("clock ratio requires both entropies > 0")
    return s2.entropy / s1.entropy


def dilation_from_conditioning(cq: ClassicalQuantumState, T: float) -> tuple[float, float]:
    """Time quanta (conditional, marginal) at temperature T for a
    classical-quantum state.

    Conditioning can only slow the flow: the branch-averaged entropy never
    exceeds the mixture entropy, so dt_conditional >= dt_marginal.  A zero
    conditional entropy (all branches pure) raises InvalidState: that flow
    has stopped.
    """
    dt_conditional = time_quantum(entropy.cq_conditional(cq), T)
    dt_marginal = time_quantum(entropy.von_neumann(linalg.spectrum(cq.mixture())), T)
    return dt_conditional, dt_marginal


def simultaneity_offset(theta1: float, theta2: float, v_max: float) -> float:
    """Start-time offset (theta2 - theta1)/v_max declaring two processes
    simultaneous; antisymmetric in the two state counts."""
    return (theta2 - theta1) / require_positive("v_max", v_max)
