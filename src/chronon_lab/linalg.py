"""Dense complex linear algebra, up to dimension MAX_DIM (4096).

All operations are pure functions of ndarray inputs and are safe to call
concurrently.  Matrices are complex128 throughout; Hermitian eigenproblems
go through LAPACK's ``eigh``, ascending-sorted by contract.

Inputs are checked once, at the boundary: by the five state types of
:mod:`chronon_lab.states`, and a file's sizes where it is decoded.  The
matrices derived from a state are plain arrays, trusted like every array
given here; :func:`spectrum`, the call ``DensityMatrix`` makes for its
own, reads their eigenvalues.  :func:`eigh` and :func:`eigvalsh` are the
program's only entry points to the Hermitian eigensolvers, and both turn
a solver that fails to converge into NumericalError.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidState, NumericalError

MAX_DIM = 4096  # largest matrix or tensor-product dimension accepted
SUPPORT_CUTOFF = 1e-12  # support threshold, relative to a largest eigenvalue


def require_within_cap(dim: int, what: str) -> None:
    """InvalidState naming `what` if dim is above MAX_DIM."""
    if dim > MAX_DIM:
        raise InvalidState(f"{what} {dim} is above the cap of {MAX_DIM}")


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def require_square(a) -> np.ndarray:
    """a as a finite square complex128 matrix, else InvalidState."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise InvalidState(f"expected a matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise InvalidState("matrix contains NaN or Inf entries")
    if m.shape[0] != m.shape[1]:
        raise InvalidState(f"matrix is {m.shape[0]}x{m.shape[1]}")
    return m


def dag(a: np.ndarray) -> np.ndarray:
    return np.asarray(a).conj().T


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition ``(w, v)``, as ``np.linalg.eigh`` returns
    it: real eigenvalues w ascending, and the matching orthonormal
    eigenvectors as the columns of v.  An eigensolver that fails to
    converge raises NumericalError."""
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}") from exc


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending, as ``np.linalg.eigvalsh``
    returns them.  An eigensolver that fails to converge raises
    NumericalError."""
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}") from exc


def spectrum(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of m's Hermitian part, halved first so no entry overflows."""
    return eigvalsh(m / 2 + dag(m) / 2)


def support(w: np.ndarray, scale: float | None = None) -> np.ndarray:
    """Mask of the support within the spectrum w of a PSD Hermitian matrix.

    Eigenvalues above SUPPORT_CUTOFF times scale form the support; scale
    defaults to the largest eigenvalue.  Nothing is checked: ``states``
    judged the spectrum's negativity when its density or cq state was built.
    """
    if scale is None:
        scale = float(w.max())
    return w > SUPPORT_CUTOFF * scale


def support_log(
    rho: np.ndarray, scale: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Matrix log restricted to the :func:`support` at scale of a PSD
    Hermitian matrix, from a single eigendecomposition; the log vanishes
    off the support.  Returns ``(logm, projector)``, both zero for an empty
    support.
    """
    w, v = eigh(rho)
    keep = support(w, scale)
    vk = v[:, keep]
    return (vk * np.log(w[keep])) @ dag(vk), vk @ dag(vk)


def partial_trace(joint: np.ndarray, dim_a: int, dim_b: int, keep: str) -> np.ndarray:
    """Trace out one tensor factor of a (dim_a*dim_b)-dimensional operator.

    keep='A' returns the first factor's reduced operator, keep='B' the
    second's.  The total trace is preserved exactly.
    """
    r = joint.reshape(dim_a, dim_b, dim_a, dim_b)
    return np.einsum("ijkj->ik" if keep == "A" else "ijil->jl", r)
