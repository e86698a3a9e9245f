"""Validated quantum-state types and the measurement-completion observable.

The value types here are immutable carriers validated on construction:
state vectors, density matrices, classical-quantum mixtures and bipartite
joints.  A classical-quantum state is validated branch by branch, and by
its embedded joint's trace, but never embedded as one bipartite joint:
:mod:`chronon_lab.entropy` conditions on its register one branch block at
a time.  The measurement-completion projector M onto span{psi_I (x) A_I}
is defined by a pair of correlated orthonormal bases (system factor first,
apparatus second), so that ``<Xi|M|Xi>`` is the probability that the
pointer indicates the correct value.  M is never built: with V the d x k
matrix whose columns are the product vectors, M = V V^dag and
``<Xi|M|Xi> = ||V^dag Xi||^2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import InvalidState

VALIDATION_ATOL = 1e-10


def _as_vector(amplitudes) -> np.ndarray:
    v = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    if v.size == 0:
        raise InvalidState("empty amplitude vector")
    if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
        raise InvalidState("amplitudes contain NaN or Inf")
    return v


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state."""

    amplitudes: np.ndarray

    def __post_init__(self):
        v = _as_vector(self.amplitudes)
        with np.errstate(over="ignore"):  # an entry past ~1.3e154 gives norm inf
            norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > VALIDATION_ATOL:
            raise InvalidState(f"state vector norm {norm} != 1")
        object.__setattr__(self, "amplitudes", v)

    @property
    def dim(self) -> int:
        return int(self.amplitudes.size)

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator.

    Construction is the one check of a density's invariants (finite,
    square, Hermitian and unit trace within VALIDATION_ATOL, no eigenvalue
    below -linalg.SUPPORT_CUTOFF); linalg checks nothing of its mat again.
    eigenvalues holds the ascending spectrum that check computes, so the
    von Neumann entropy and others need not decompose it again.
    """

    mat: np.ndarray
    eigenvalues: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        m = linalg.require_square(self.mat)
        # huge entries give inf or nan, which fail closed; the tolerance is
        # absolute, as a unit-trace PSD matrix has ||m||_F <= 1
        with np.errstate(over="ignore", invalid="ignore"):
            dev = linalg.frobenius(m - linalg.dag(m))
            tr = float(np.trace(m).real)
        if not dev <= VALIDATION_ATOL:
            raise InvalidState(f"density matrix not Hermitian (dev {dev:.3e})")
        if not abs(tr - 1.0) <= VALIDATION_ATOL:
            raise InvalidState(f"trace {tr} != 1")
        # halved first, so no finite entry overflows
        w = linalg.eigvalsh(m / 2 + linalg.dag(m) / 2)
        if w[0] < -linalg.SUPPORT_CUTOFF:
            raise InvalidState(f"negative eigenvalue {w[0]:.3e}")
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "eigenvalues", w)

    @property
    def dim(self) -> int:
        return int(self.mat.shape[0])

    @classmethod
    def from_state_vector(cls, psi: StateVector) -> "DensityMatrix":
        return cls(psi.projector())


@dataclass(frozen=True)
class ClassicalQuantumState:
    """Mixture of quantum branches labelled by classical probabilities.

    branches is a tuple of (probability, DensityMatrix) pairs sharing one
    dimension; probabilities are finite, none below -linalg.SUPPORT_CUTOFF,
    and sum to one, as does the embedded joint's trace sum_i p_i tr Psi_i,
    which the branch checks bound only to about twice VALIDATION_ATOL.
    """

    branches: tuple

    def __post_init__(self):
        br = tuple(self.branches)
        if not br:
            raise InvalidState("classical-quantum state needs at least one branch")
        dims = {state.dim for _, state in br}
        if len(dims) != 1:
            raise InvalidState(f"branch dimensions differ: {sorted(dims)}")
        probs = np.array([float(p) for p, _ in br])
        bad = probs[~np.isfinite(probs)]
        if bad.size:
            raise InvalidState(f"branch probability must be finite, got {bad[0]}")
        if np.any(probs < -linalg.SUPPORT_CUTOFF):
            raise InvalidState(f"negative branch probability {probs.min()}")
        with np.errstate(over="ignore"):  # huge weights sum to inf
            total = probs.sum()
        if abs(total - 1.0) > VALIDATION_ATOL:
            raise InvalidState(f"branch probabilities sum to {total}")
        diagonals = np.array([np.diagonal(state.mat) for _, state in br])
        # summed as the joint's own diagonal, entry (s, i) at s*n + i
        tr = float((probs[:, None] * diagonals).T.ravel().sum().real)
        if abs(tr - 1.0) > VALIDATION_ATOL:
            raise InvalidState(f"trace {tr} != 1")
        object.__setattr__(
            self, "branches", tuple((float(p), s) for p, s in br)
        )

    @property
    def dim(self) -> int:
        return self.branches[0][1].dim

    def mixture(self) -> DensityMatrix:
        """The register-averaged state sum_i p_i Psi_i."""
        acc = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for p, state in self.branches:
            acc += p * state.mat
        return DensityMatrix(acc)


@dataclass(frozen=True)
class BipartiteState:
    """Joint density matrix over two tensor factors of known dimensions.

    The second factor is the conditioning system for the conditional-entropy
    operations in :mod:`chronon_lab.entropy`.
    """

    joint: DensityMatrix
    dim_a: int
    dim_b: int

    def __post_init__(self):
        if self.dim_a < 1 or self.dim_b < 1:
            raise InvalidState("factor dimensions must be positive")
        if self.dim_a * self.dim_b != self.joint.dim:
            raise InvalidState(
                f"dim_a*dim_b = {self.dim_a * self.dim_b} != joint dim {self.joint.dim}"
            )


@dataclass(frozen=True)
class CorrelationBasis:
    """Paired orthonormal bases of system and apparatus over one index set.

    The system (x) apparatus space that the measurement operator acts on
    has dimension ``dim``; above ``linalg.MAX_DIM`` it raises InvalidState
    before the pairwise orthogonality checks.
    """

    system_basis: tuple
    apparatus_basis: tuple

    def __post_init__(self):
        sys_b = tuple(self.system_basis)
        app_b = tuple(self.apparatus_basis)
        if len(sys_b) != len(app_b):
            raise InvalidState(
                f"{len(sys_b)} system vectors vs {len(app_b)} apparatus vectors"
            )
        if not sys_b:
            raise InvalidState("empty correlation basis")
        linalg.require_within_cap(sys_b[0].dim * app_b[0].dim, "tensor product dimension")
        for name, vecs in (("system", sys_b), ("apparatus", app_b)):
            dim = vecs[0].dim
            for i, u in enumerate(vecs):
                if u.dim != dim:
                    raise InvalidState(f"{name} basis vectors have mixed dimensions")
                for j, v in enumerate(vecs[:i]):
                    ip = abs(np.vdot(v.amplitudes, u.amplitudes))
                    if ip > VALIDATION_ATOL:
                        raise InvalidState(
                            f"{name} basis vectors {j},{i} not orthogonal (|<u,v>|={ip:.3e})"
                        )
        object.__setattr__(self, "system_basis", sys_b)
        object.__setattr__(self, "apparatus_basis", app_b)

    @property
    def dim(self) -> int:
        return self.system_basis[0].dim * self.apparatus_basis[0].dim


def measurement_probability(xi: StateVector, basis: CorrelationBasis) -> float:
    """P = <Xi|M|Xi> = ||V^dag Xi||^2 for the projector M = V V^dag onto
    span{psi_I (x) A_I}; lies in [0, 1].

    V is d x k, so neither M nor any other d x d matrix is formed.  Columns
    too far from orthonormal for M to be a projector raise InvalidState.
    """
    if basis.dim != xi.dim:
        raise InvalidState(f"operator dim {basis.dim} != state dim {xi.dim}")
    v = np.stack(
        [
            np.kron(psi.amplitudes, app.amplitudes)
            for psi, app in zip(basis.system_basis, basis.apparatus_basis)
        ],
        axis=1,
    )
    gram_dev = linalg.frobenius(linalg.dag(v) @ v - np.eye(v.shape[1]))
    if gram_dev > VALIDATION_ATOL * max(1.0, linalg.frobenius(v)):
        raise InvalidState("operator is not a projector")
    c = linalg.dag(v) @ xi.amplitudes
    p = float(np.real(np.vdot(c, c)))
    if p < -VALIDATION_ATOL or p > 1.0 + VALIDATION_ATOL:
        raise InvalidState(f"probability {p} outside [0,1]")
    return min(max(p, 0.0), 1.0)


def reduce_over_apparatus(xi: StateVector, dim_s: int, dim_a: int) -> DensityMatrix:
    """Density matrix assigned to the system by tracing out the apparatus."""
    if dim_s < 1 or dim_a < 1:
        raise InvalidState("factor dimensions must be positive")
    if dim_s * dim_a != xi.dim:
        raise InvalidState(
            f"dim_s*dim_a = {dim_s * dim_a} != state dim {xi.dim}"
        )
    joint = np.outer(xi.amplitudes, xi.amplitudes.conj())
    return DensityMatrix(linalg.partial_trace(joint, dim_s, dim_a, keep="A"))

