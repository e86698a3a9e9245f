"""Reproducible randomized sweeps.

All randomness flows through numpy's Philox bit generator, a counter-based
PRNG: a fixed seed yields identical draws on every platform and run, which
is what makes the CLI's sweep output byte-stable.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import InvalidState
from .speed_limits import orthogonalization_time

MAX_SWEEP_TRIALS = 5_000  # most trials (trials per dim x dims) one sweep runs
MAX_SWEEP_DIM = 64  # largest Hamiltonian dimension a sweep draws
SLACK_TOL = 1e-9  # a found time below bound - SLACK_TOL is a violation


def rng_for(seed: int) -> np.random.Generator:
    """Counter-based generator; same seed, same stream, everywhere."""
    return np.random.Generator(np.random.Philox(seed))


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    k = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (k + linalg.dag(k)) / 2


def random_state_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


class MlSweepResult(NamedTuple):
    """The trials of one sweep in draw order, each a ``(t_orth, slack)``
    pair; every count is read from them.

    t_orth is the found orthogonalization time, None when the scan found
    none; slack is t_orth - bound, None without a t_orth or a finite bound.
    A violation is a trial whose slack is below -SLACK_TOL; min_slack is
    the smallest slack, None when no trial has one.
    """

    trials: tuple

    @property
    def found(self) -> int:
        return sum(1 for t_orth, _ in self.trials if t_orth is not None)

    @property
    def violations(self) -> int:
        return sum(1 for _, slack in self.trials if slack is not None and slack < -SLACK_TOL)

    @property
    def min_slack(self) -> float | None:
        return min((slack for _, slack in self.trials if slack is not None), default=None)


# Minimum eigenvalue gap accepted when building an equal eigenpair
# superposition; keeps the first orthogonalization inside the scan window.
_MIN_PAIR_GAP = 0.15
_SCAN_WINDOW = 60.0


def _eigenpair_state(
    spectrum: tuple[np.ndarray, np.ndarray], rng: np.random.Generator
) -> np.ndarray | None:
    w, v = spectrum
    # pairs with w[j] - w[i] >= _MIN_PAIR_GAP in row-major order, the order
    # the seeded draw below indexes; w ascends, so each has i < j
    rows, cols = np.nonzero(w[None, :] - w[:, None] >= _MIN_PAIR_GAP)
    if not len(rows):
        return None
    k = int(rng.integers(len(rows)))
    i, j = rows[k], cols[k]
    psi = v[:, i] + v[:, j]
    return psi / np.linalg.norm(psi)


def ml_bound_sweep(dims: list[int], trials_per_dim: int, seed: int) -> MlSweepResult:
    """Check found orthogonalization times against the shifted bound.

    Each trial draws a random Hermitian Hamiltonian and decomposes it once,
    for both the initial state and the scan; even trials use a fully
    random initial state (which rarely reaches orthogonality at these
    dimensions), odd trials an equal superposition of two random
    eigenvectors, which always orthogonalizes and attains the bound whenever
    the pair contains the ground state.  A violation is a found time below
    bound - SLACK_TOL.  A dimension above MAX_SWEEP_DIM, or more than
    MAX_SWEEP_TRIALS trials in all, raises InvalidState before any draw.
    """
    if max(dims, default=0) > MAX_SWEEP_DIM:
        raise InvalidState(
            f"sweep dimension {max(dims)} is above the cap of {MAX_SWEEP_DIM}"
        )
    if trials_per_dim * len(dims) > MAX_SWEEP_TRIALS:
        raise InvalidState(
            f"sweep needs {trials_per_dim * len(dims)} trials, above the cap of {MAX_SWEEP_TRIALS}"
        )
    rng = rng_for(seed)
    records = []
    for dim in dims:
        for trial in range(trials_per_dim):
            spectrum = linalg.eigh(random_hermitian(dim, rng))
            psi = _eigenpair_state(spectrum, rng) if trial % 2 else None
            if psi is None:
                psi = random_state_vector(dim, rng)
            result = orthogonalization_time(spectrum, psi, t_max=_SCAN_WINDOW)
            slack = None
            if result.t_orth is not None and math.isfinite(result.bound):
                slack = result.t_orth - result.bound
            records.append((result.t_orth, slack))
    return MlSweepResult(trials=tuple(records))
