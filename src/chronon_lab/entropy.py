"""Entropy functionals: von Neumann, branch-conditional, and generalized
conditional entropy through the Cerf-Adami conditional density matrix.

All entropies are plain floats, dimensionless and in nats; the Boltzmann
factor enters only when entropies are converted to energies or time quanta
elsewhere.  Generalized conditional entropy may be negative for entangled
joints.  :func:`von_neumann` takes a spectrum.  Nothing here checks a state
again: the types of :mod:`chronon_lab.states` judged each input, and the
matrices derived from one here, rho_B above all, are trusted plain arrays.

The conditional density matrix is defined by the operator limit

    rho_{A|B} = lim_n [rho^(1/n) (id (x) rho_B)^(-1/n)]^n ,

whose closed form for a full-rank joint is exp(log rho - id (x) log rho_B).
For rank-deficient joints the limit degenerates to the exponential of the
*support-compressed* exponent P (log rho - id (x) log rho_B) P, evaluated
within the support of rho; this is the form implemented here, and it is the
one that preserves the identity S(A|B) = S(joint) - S(B) exactly.

:func:`conditional_state` builds rho_{A|B} for a bipartite joint.  One
pass decomposes the joint and rho_B once each, diagonalizes the compressed
exponent once, and returns the entropy and the density together as a
:class:`ConditionalState`, which decomposes the density only when its
spectrum is asked for; every consumer reads that record instead of
rebuilding the pipeline.  The joint's entropy comes from the spectrum its
DensityMatrix validation already computed, rho_B's from
``linalg.spectrum``, the same call.

A classical-quantum state is conditioned on its register, as the joint
sum_i p_i Psi_i (x) |i><i|, but that (d*n)-dim embedding is never built.
It is block-diagonal over the register with eigenvalues p_i w_ij, the
branch spectra scaled, and its rho_B = diag(p_i tr Psi_i) is a multiple of
the identity on each block.  So log rho - id (x) log rho_B is
block-diagonal too, and rho_{A|B} is the direct sum of Psi_i / tr Psi_i
on the support: :func:`cq_conditional_state` reads the entropy, both
supports and the dual path off the validated branch spectra, with no
eigendecomposition of its own, and its :class:`BlockConditionalState`
keeps the cq state, so its ``trotter_distance`` forms the product
approximant one d x d block at a time.  The embedding's own invariants are
checked before either runs: its trace by the ClassicalQuantumState type,
its dimension d*n where the file is decoded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import InvalidState, NumericalError
from .states import BipartiteState, ClassicalQuantumState

DUAL_PATH_TOL = 1e-8
SUPPORT_CONTAINMENT_TOL = 1e-7
MAX_TROTTER_N = 2**20  # largest Trotter n; past it the roots round towards 1


def _id_kron(dim_a: int, x: np.ndarray) -> np.ndarray:
    """id (x) x: bit for bit ``np.kron(np.eye(dim_a), x)``, as one broadcast product."""
    return (np.eye(dim_a)[:, None, :, None] * x[:, None, :]).reshape((dim_a * len(x),) * 2)


def von_neumann(w: np.ndarray) -> float:
    """-sum w ln w over the positive eigenvalues of the spectrum w, in
    their order; +0.0 or more, and at most ln len(w) for a density's."""
    s = -sum(x * math.log(x) for x in w.tolist() if x > 0.0)
    return max(0.0, s)


@dataclass(frozen=True)
class ConditionalState:
    """One pass of the conditional-entropy pipeline for a bipartite joint.

    entropy is S(A|B) = S(joint) - S(B); density is rho_{A|B} on the
    joint's support (Hermitian, eigenvalues may exceed 1, which is what
    makes the entropy negative); spectrum holds its eigenvalues, ascending,
    and is computed on first use only.  joint is the state conditioned.
    """

    entropy: float
    density: np.ndarray
    joint: BipartiteState

    @cached_property
    def spectrum(self) -> np.ndarray:
        return linalg.eigvalsh(self.density)

    def trotter_distance(self, n: int, eps: float = 0.0) -> float:
        """Frobenius distance from :func:`trotter_conditional_density` of
        the joint to density; inf or nan past the float range."""
        with np.errstate(over="ignore", invalid="ignore"):
            approx = trotter_conditional_density(self.joint, n, eps)
            return linalg.frobenius(approx - self.density)


@dataclass(frozen=True)
class BlockConditionalState:
    """One pass of the conditional-entropy pipeline for a cq state, held
    register block by register block.

    entropy is S(A|B) of the embedding; values[i] holds the eigenvalues of
    rho_{A|B}'s i-th block, in the ascending order of branch i's spectrum:
    w_ij / tr Psi_i on the joint's support, 0.0 off it.  spectrum holds all
    d*n of them, ascending.  cq is the state conditioned.
    """

    entropy: float
    values: np.ndarray
    cq: ClassicalQuantumState

    @cached_property
    def spectrum(self) -> np.ndarray:
        return np.sort(self.values, axis=None)

    def trotter_distance(self, n: int, eps: float = 0.0) -> float:
        """The distance of ConditionalState.trotter_distance for the
        embedding, one d x d block at a time: rho_B is diagonal over the
        blocks, so block i of the product is (rho_i^(1/n) b_i^(-1/n))^n,
        with rho_i = p_i Psi_i and b_i = p_i tr Psi_i after the same eps
        mixing.  One stacked eigh of the branches gives every block's
        eigenvectors.
        """
        p = np.array([p for p, _ in self.cq.branches])
        mats = np.array([state.mat for _, state in self.cq.branches])
        w, v = linalg.eigh(mats)
        lam = p[:, None] * w
        b = p * np.trace(mats, axis1=1, axis2=2).real
        if eps > 0.0:
            # eps * I/(d*n) puts eps/(d*n) on each eigenvalue and eps/n on each b_i
            lam = (1.0 - eps) * lam + eps / lam.size
            b = (1.0 - eps) * b + eps / b.size
        roots, inv_roots_b = _trotter_roots(lam, b, n)
        v_dag = np.swapaxes(v, 1, 2).conj()
        product = ((v * roots[:, None, :]) @ v_dag) * inv_roots_b[:, None, None]
        density = (v * self.values[:, None, :]) @ v_dag
        with np.errstate(over="ignore", invalid="ignore"):
            return linalg.frobenius(np.linalg.matrix_power(product, n) - density)


def _require_contained(leak: float) -> None:
    """NumericalError for a leak out of id (x) supp(rho_B) above tolerance."""
    if leak > SUPPORT_CONTAINMENT_TOL:
        raise NumericalError(f"joint support leaks out of id (x) supp(rho_B) by {leak:.3e}")


def _require_paths_agree(primary: float, dual: float) -> None:
    """NumericalError for entropy paths that disagree beyond tolerance."""
    if abs(primary - dual) > DUAL_PATH_TOL:
        raise NumericalError(f"conditional-entropy paths disagree: {primary} vs {dual}")


def require_trotter_n(n: int) -> None:
    """InvalidState for a Trotter n above MAX_TROTTER_N."""
    if n > MAX_TROTTER_N:
        raise InvalidState(f"Trotter n {n} is above the cap of {MAX_TROTTER_N}")


def _trotter_roots(lam: np.ndarray, b: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """lam ** (1/n) and b ** (-1/n) by Python's ``**`` on each value, for the
    spectra lam of a full-rank joint and b of its rho_B.  1 <= n <= MAX_TROTTER_N
    is trusted: the CLI checks n >= 1 and :func:`require_trotter_n` before it
    reads a file."""
    thr = linalg.SUPPORT_CUTOFF
    if lam.min() <= thr * lam.max() or b.min() <= thr * b.max():
        raise NumericalError(
            "rank-deficient state; pass eps > 0 to regularize before the product"
        )
    # int by int division is correctly rounded for any n; 1.0 / n raises
    # OverflowError once n is past the float range
    roots = np.array([x ** (1 / n) for x in lam.ravel().tolist()]).reshape(lam.shape)
    return roots, np.array([x ** (-1 / n) for x in b.tolist()])


def cq_conditional(cq: ClassicalQuantumState) -> float:
    """Branch-averaged entropy sum_i p_i S(Psi_i); never negative."""
    return sum(p * von_neumann(state.eigenvalues) for p, state in cq.branches)


def cq_conditional_state(cq: ClassicalQuantumState) -> BlockConditionalState:
    """:func:`conditional_state` of a cq state's embedding, read off the
    validated branch spectra w_ij: the joint's eigenvalues are p_i w_ij and
    rho_B = diag(p_i tr Psi_i).  The supports and both cross-checks are
    those of :func:`conditional_state`.  No d*n matrix is built, so the
    d*n cap (checked where the file is decoded) is not needed here.
    """
    p = np.array([p for p, _ in cq.branches])
    diagonals = np.array([np.diagonal(state.mat) for _, state in cq.branches])
    w = np.array([state.eigenvalues for _, state in cq.branches])
    lam = p[:, None] * w
    tau = diagonals.sum(axis=1).real
    t = p * tau
    keep = linalg.support(lam)
    keep_b = linalg.support(t, scale=float(lam.max()))
    # a block the joint's support reaches but rho_B's does not leaks whole
    _require_contained(math.sqrt(keep[~keep_b].sum()))
    values = np.where(keep, w / tau[:, None], 0.0)

    primary = von_neumann(np.sort(lam, axis=None)) - von_neumann(np.sort(t))
    _require_paths_agree(primary, -float(np.sum(lam[keep] * np.log(values[keep]))))
    return BlockConditionalState(entropy=primary, values=values, cq=cq)


def trotter_conditional_density(
    bi: BipartiteState, n: int, eps: float = 0.0
) -> np.ndarray:
    """Finite-n product approximant [rho^(1/n) (id (x) rho_B)^(-1/n)]^n.

    Requires a full-rank joint (and marginal); pass eps > 0 to mix with
    eps * I/d first when the input is rank-deficient.  Converges to
    ``conditional_state(bi).density`` as n grows.  rho and rho_B are each
    decomposed once; the full-rank check reads those spectra, and each root
    is V diag(w ** (+-1/n)) V^dag with Python's ``**`` on every eigenvalue.
    """
    rho = bi.joint.mat
    d = rho.shape[0]
    if eps > 0.0:
        rho = (1.0 - eps) * rho + eps * np.eye(d) / d
    rho_b = linalg.partial_trace(rho, bi.dim_a, bi.dim_b, keep="B")
    w, v = linalg.eigh(rho)
    w_b, v_b = linalg.eigh(rho_b)
    roots, inv_roots_b = _trotter_roots(w, w_b, n)
    root = (v * roots) @ linalg.dag(v)
    inv_root_b = (v_b * inv_roots_b) @ linalg.dag(v_b)
    return np.linalg.matrix_power(root @ _id_kron(bi.dim_a, inv_root_b), n)


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
    rho_b = linalg.partial_trace(rho, bi.dim_a, bi.dim_b, keep="B")
    w, v = linalg.eigh(rho)
    keep = linalg.support(w)
    w, basis = w[keep], v[:, keep]
    log_b, proj_b = linalg.support_log(rho_b, scale=float(w[-1]))
    proj_joint = basis @ linalg.dag(basis)
    embed_proj = _id_kron(bi.dim_a, proj_b)
    _require_contained(linalg.frobenius(proj_joint - embed_proj @ proj_joint @ embed_proj))
    log_joint = (basis * np.log(w)) @ linalg.dag(basis)
    exponent = log_joint - _id_kron(bi.dim_a, log_b)
    compressed = linalg.dag(basis) @ exponent @ basis
    compressed = (compressed + linalg.dag(compressed)) / 2
    mu, u = linalg.eigh(compressed)
    vecs = basis @ u
    density = (vecs * np.exp(mu)) @ linalg.dag(vecs)

    primary = von_neumann(bi.joint.eigenvalues) - von_neumann(linalg.spectrum(rho_b))
    _require_paths_agree(primary, -float(np.trace(rho @ ((vecs * mu) @ linalg.dag(vecs))).real))
    return ConditionalState(entropy=primary, density=density, joint=bi)


def generalized_conditional(bi: BipartiteState) -> float:
    """S(A|B) alone: the entropy of :func:`conditional_state`, negative
    exactly for the entangled ("anti-qubit") joints."""
    return conditional_state(bi).entropy
