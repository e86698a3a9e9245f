"""Shared fixtures and independent oracle helpers for the test suite.

The helpers here deliberately avoid the library's own code paths where they
serve as oracles: partial traces are index-summed by explicit loops, and
expected entropies come straight from scalar arithmetic.  save_state and
its encode_matrix are the one writer of state files: the program only
reads them.  cq_embed is
the reference for the program's block-by-block cq route: it builds the
whole embedded joint, which the program never does.
"""

import json
import math

import numpy as np
import pytest

from chronon_lab import linalg
from chronon_lab.states import (
    BipartiteState,
    ClassicalQuantumState,
    DensityMatrix,
    StateVector,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def dagger(a):
    return a.conj().T


def random_hermitian(dim, rng):
    k = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (k + dagger(k)) / 2


def random_unitary(dim, rng):
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * ph


def random_density_mat(dim, rng, pure=False):
    if pure:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        return np.outer(v, v.conj())
    k = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = k @ dagger(k)
    return rho / np.trace(rho).real


def random_density(dim, rng, pure=False):
    return DensityMatrix(random_density_mat(dim, rng, pure=pure))


def random_cq(rng, dim=2, branches=3):
    probs = rng.random(branches)
    probs /= probs.sum()
    return ClassicalQuantumState(
        tuple((float(p), random_density(dim, rng)) for p in probs)
    )


def random_separable(rng, dim_a=2, dim_b=2, terms=3):
    """Convex mixture of product states."""
    weights = rng.random(terms)
    weights /= weights.sum()
    joint = np.zeros((dim_a * dim_b, dim_a * dim_b), dtype=complex)
    for w in weights:
        joint += w * np.kron(
            random_density_mat(dim_a, rng), random_density_mat(dim_b, rng)
        )
    return BipartiteState(joint=DensityMatrix(joint), dim_a=dim_a, dim_b=dim_b)


def random_entangled_pure(rng, dim=2):
    v = rng.normal(size=dim * dim) + 1j * rng.normal(size=dim * dim)
    v /= np.linalg.norm(v)
    return BipartiteState(
        joint=DensityMatrix(np.outer(v, v.conj())), dim_a=dim, dim_b=dim
    )


def bell_state():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / math.sqrt(2)
    return BipartiteState(
        joint=DensityMatrix(np.outer(v, v.conj())), dim_a=2, dim_b=2
    )


def partial_trace_oracle(joint, dim_a, dim_b, keep):
    """Brute-force index-sum partial trace, independent of the library."""
    joint = np.asarray(joint)
    if keep == "A":
        out = np.zeros((dim_a, dim_a), dtype=complex)
        for i in range(dim_a):
            for k in range(dim_a):
                for j in range(dim_b):
                    out[i, k] += joint[i * dim_b + j, k * dim_b + j]
        return out
    out = np.zeros((dim_b, dim_b), dtype=complex)
    for j in range(dim_b):
        for l in range(dim_b):
            for i in range(dim_a):
                out[j, l] += joint[i * dim_b + j, i * dim_b + l]
    return out


def entropy_oracle(eigenvalues):
    """-sum w ln w over positive weights, plain scalar arithmetic."""
    return -sum(w * math.log(w) for w in eigenvalues if w > 1e-15)


def encode_matrix(m):
    """The JSON matrix object of a number, vector or matrix."""
    m = np.atleast_2d(np.asarray(m, dtype=np.complex128))
    data = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def save_state(path, state):
    """Write a state vector, density, cq or bipartite state to path as the
    JSON state file that ``serialization.load_state`` reads."""
    if isinstance(state, StateVector):
        obj = {"kind": "state_vector", "matrix": encode_matrix(state.amplitudes.reshape(-1, 1))}
    elif isinstance(state, DensityMatrix):
        obj = {"kind": "density", "matrix": encode_matrix(state.mat)}
    elif isinstance(state, ClassicalQuantumState):
        branches = [{"p": p, "matrix": encode_matrix(s.mat)} for p, s in state.branches]
        obj = {"kind": "cq", "branches": branches}
    else:
        obj = {"kind": "bipartite", "dimA": state.dim_a, "dimB": state.dim_b,
               "matrix": encode_matrix(state.joint.mat)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cq_embed(cq):
    """Embed a classical-quantum state as a bipartite joint.

    The classical register becomes the second tensor factor, realized as
    diagonal projectors |i><i| in the computational basis, so that the
    generalized conditional entropy of the embedding (conditioning on the
    second factor) equals the branch-averaged entropy.  The joint is
    block-diagonal across register sectors; tracing out the register
    returns the mixture sum_i p_i Psi_i.  A joint dimension above
    ``linalg.MAX_DIM`` raises InvalidState before the joint is allocated.
    """
    n, d = len(cq.branches), cq.branches[0][1].dim
    linalg.require_within_cap(d * n, "tensor product dimension")
    joint = np.zeros((d * n, d * n), dtype=np.complex128)
    for i, (p, state) in enumerate(cq.branches):
        # entry ((s, i), (t, i)) sits at (s*n + i, t*n + i); adding onto the
        # zeros turns a -0.0 into +0.0, bit for bit sum_i p_i Psi_i (x) |i><i|
        joint[i::n, i::n] += p * state.mat
    return BipartiteState(joint=DensityMatrix(joint), dim_a=d, dim_b=n)
