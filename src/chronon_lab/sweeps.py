"""Reproducible randomized sweeps.

All randomness flows through numpy's Philox bit generator, a counter-based
PRNG: a fixed seed yields identical draws on every platform and run, which
is what makes the CLI's sweep output byte-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import SizeOverflow
from .speed_limits import OrthogonalizationResult, orthogonalization_time
from .states import StateVector

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


@dataclass(frozen=True)
class MlTrial:
    dim: int
    kind: str          # "random" | "eigenpair"
    t_orth: float | None
    bound: float
    slack: float | None


@dataclass(frozen=True)
class MlSweepResult:
    trials: tuple
    violations: int
    min_slack: float | None

    @property
    def found(self) -> int:
        return sum(1 for t in self.trials if t.t_orth is not None)


# Minimum eigenvalue gap accepted when building an equal eigenpair
# superposition; keeps the first orthogonalization inside the scan window.
_MIN_PAIR_GAP = 0.15
_SCAN_WINDOW = 60.0


def _eigenpair_state(h_op: np.ndarray, rng: np.random.Generator) -> np.ndarray | None:
    spec = linalg.eig_hermitian(h_op)
    d = h_op.shape[0]
    pairs = [
        (i, j)
        for i in range(d)
        for j in range(i + 1, d)
        if spec.eigenvalues[j] - spec.eigenvalues[i] >= _MIN_PAIR_GAP
    ]
    if not pairs:
        return None
    i, j = pairs[int(rng.integers(len(pairs)))]
    v = spec.eigenvectors[:, i] + spec.eigenvectors[:, j]
    return v / np.linalg.norm(v)


def ml_bound_sweep(dims: list[int], trials_per_dim: int, seed: int) -> MlSweepResult:
    """Check found orthogonalization times against the shifted bound.

    Each trial draws a random Hermitian Hamiltonian; even trials use a fully
    random initial state (which rarely reaches orthogonality at these
    dimensions), odd trials an equal superposition of two random
    eigenvectors, which always orthogonalizes and attains the bound whenever
    the pair contains the ground state.  A violation is a found time below
    bound - SLACK_TOL.  A dimension above MAX_SWEEP_DIM, or more than
    MAX_SWEEP_TRIALS trials in all, raises SizeOverflow before any draw.
    """
    if max(dims, default=0) > MAX_SWEEP_DIM:
        raise SizeOverflow(
            f"sweep dimension {max(dims)} is above the cap of {MAX_SWEEP_DIM}"
        )
    if trials_per_dim * len(dims) > MAX_SWEEP_TRIALS:
        raise SizeOverflow(
            f"sweep needs {trials_per_dim * len(dims)} trials, above the cap of {MAX_SWEEP_TRIALS}"
        )
    rng = rng_for(seed)
    records = []
    violations = 0
    min_slack: float | None = None
    for dim in dims:
        for trial in range(trials_per_dim):
            h_op = random_hermitian(dim, rng)
            if trial % 2 == 0:
                psi = random_state_vector(dim, rng)
                kind = "random"
            else:
                psi = _eigenpair_state(h_op, rng)
                kind = "eigenpair"
                if psi is None:
                    psi = random_state_vector(dim, rng)
                    kind = "random"
            result: OrthogonalizationResult = orthogonalization_time(
                h_op, StateVector(psi), t_max=_SCAN_WINDOW
            )
            slack = None
            if result.t_orth is not None and math.isfinite(result.bound):
                slack = result.t_orth - result.bound
                if min_slack is None or slack < min_slack:
                    min_slack = slack
                if slack < -SLACK_TOL:
                    violations += 1
            records.append(
                MlTrial(
                    dim=dim,
                    kind=kind,
                    t_orth=result.t_orth,
                    bound=result.bound,
                    slack=slack,
                )
            )
    return MlSweepResult(
        trials=tuple(records), violations=violations, min_slack=min_slack
    )
