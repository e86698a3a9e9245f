"""Entropy functionals: von Neumann, branch-conditional, and generalized
conditional entropy through the Cerf-Adami conditional density matrix.

All entropies are plain floats, dimensionless and in nats; the Boltzmann
factor enters only when entropies are converted to energies or time quanta
elsewhere.  Generalized conditional entropy may be negative for entangled
joints.

The conditional density matrix is defined by the operator limit

    rho_{A|B} = lim_n [rho^(1/n) (id (x) rho_B)^(-1/n)]^n ,

whose closed form for a full-rank joint is exp(log rho - id (x) log rho_B).
For rank-deficient joints the limit degenerates to the exponential of the
*support-compressed* exponent P (log rho - id (x) log rho_B) P, evaluated
within the support of rho; this is the form implemented here, and it is the
one that preserves the identity S(A|B) = S(joint) - S(B) exactly.

:func:`conditional_state` is the only place that builds rho_{A|B}.  One
pass decomposes the joint and rho_B once each, diagonalizes the compressed
exponent once, and returns the entropy and the density together as a
:class:`ConditionalState`, which decomposes the density only when its
spectrum is asked for; every consumer reads that record instead of
rebuilding the pipeline.  The entropies of the joint and of rho_B come from
the spectra their DensityMatrix validation already computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import InvalidState, NumericalError
from .states import BipartiteState, ClassicalQuantumState, DensityMatrix

DUAL_PATH_TOL = 1e-8
SUPPORT_CONTAINMENT_TOL = 1e-7


def von_neumann(rho: DensityMatrix) -> float:
    """-sum_i w_i ln w_i over the spectrum's support; in [0, ln dim]."""
    s = -sum(linalg.xlnx(float(x)) for x in rho.eigenvalues if x > 0.0)
    return max(s, 0.0)


@dataclass(frozen=True)
class ConditionalState:
    """One pass of the conditional-entropy pipeline for a bipartite joint.

    entropy is S(A|B) = S(joint) - S(B); density is rho_{A|B} on the
    joint's support (Hermitian, eigenvalues may exceed 1, which is what
    makes the entropy negative); spectrum holds its eigenvalues, ascending,
    and is computed on first use only.
    """

    entropy: float
    density: np.ndarray

    @cached_property
    def spectrum(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.density)


def cq_conditional(cq: ClassicalQuantumState) -> float:
    """Branch-averaged entropy sum_i p_i S(Psi_i); never negative."""
    return sum(p * von_neumann(state) for p, state in cq.branches)


def trotter_conditional_density(
    bi: BipartiteState, n: int, eps: float = 0.0
) -> np.ndarray:
    """Finite-n product approximant [rho^(1/n) (id (x) rho_B)^(-1/n)]^n.

    Requires a full-rank joint (and marginal); pass eps > 0 to mix with
    eps * I/d first when the input is rank-deficient.  Converges to
    ``conditional_state(bi).density`` as n grows.
    """
    if n < 1:
        raise InvalidState(f"n must be >= 1, got {n}")
    rho = bi.joint.mat
    d = rho.shape[0]
    if eps > 0.0:
        rho = (1.0 - eps) * rho + eps * np.eye(d) / d
    rho_b = linalg.partial_trace(rho, bi.dim_a, bi.dim_b, keep="B")
    w_joint = np.linalg.eigvalsh(rho)
    w_b = np.linalg.eigvalsh(rho_b)
    thr = linalg.SUPPORT_CUTOFF
    if w_joint[0] <= thr * w_joint[-1] or w_b[0] <= thr * w_b[-1]:
        raise NumericalError(
            "rank-deficient state; pass eps > 0 to regularize before the product"
        )
    root = linalg.matrix_func(rho, lambda x: x ** (1.0 / n))
    inv_root_b = np.kron(
        np.eye(bi.dim_a), linalg.matrix_func(rho_b, lambda x: x ** (-1.0 / n))
    )
    return np.linalg.matrix_power(root @ inv_root_b, n)


def conditional_state(bi: BipartiteState) -> ConditionalState:
    """Conditional entropy and density matrix of a joint, conditioning on
    the second factor.

    Computes rho_{A|B} = exp(P A P) within the support of the joint, where
    A = log rho - id (x) log rho_B and P projects onto supp(rho).  Both
    supports keep the eigenvalues above linalg.SUPPORT_CUTOFF times the
    joint's largest one, so a weight the joint keeps is not dropped from
    rho_B for being small next to rho_B's own largest eigenvalue.  A joint
    whose support still leaks out of id (x) supp(rho_B) by more than
    SUPPORT_CONTAINMENT_TOL raises NumericalError.
    The entropy S(joint) - S(B) is cross-checked against the trace form
    -tr(rho log rho_{A|B}); a disagreement beyond 1e-8 raises
    NumericalError too.
    """
    rho = bi.joint.mat
    marginal = bi.marginal_b()
    w, basis = linalg.support_spectrum(rho)
    log_b, proj_b = linalg.support_log(marginal.mat, scale=float(w[-1]))
    proj_joint = basis @ linalg.dag(basis)
    embed_proj = np.kron(np.eye(bi.dim_a), proj_b)
    leak = linalg.frobenius(proj_joint - embed_proj @ proj_joint @ embed_proj)
    if leak > SUPPORT_CONTAINMENT_TOL:
        raise NumericalError(
            f"joint support leaks out of id (x) supp(rho_B) by {leak:.3e}"
        )
    log_joint = (basis * np.log(w)) @ linalg.dag(basis)
    exponent = log_joint - np.kron(np.eye(bi.dim_a), log_b)
    compressed = linalg.dag(basis) @ exponent @ basis
    compressed = (compressed + linalg.dag(compressed)) / 2
    mu, u = np.linalg.eigh(compressed)
    vecs = basis @ u
    density = (vecs * np.exp(mu)) @ linalg.dag(vecs)

    primary = von_neumann(bi.joint) - von_neumann(marginal)
    dual = -float(np.trace(rho @ ((vecs * mu) @ linalg.dag(vecs))).real)
    if abs(primary - dual) > DUAL_PATH_TOL:
        raise NumericalError(
            f"conditional-entropy paths disagree: {primary} vs {dual}"
        )
    return ConditionalState(entropy=primary, density=density)


def generalized_conditional(bi: BipartiteState) -> float:
    """S(A|B) alone: the entropy of :func:`conditional_state`, negative
    exactly for the entangled ("anti-qubit") joints."""
    return conditional_state(bi).entropy
