"""Dense complex linear algebra at desk scale (d <= ~64).

All operations are pure functions of ndarray inputs and are safe to call
concurrently.  Matrices are complex128 throughout; Hermitian eigenproblems
go through LAPACK's ``eigh``, which at these dimensions is as robust as a
Jacobi sweep and ascending-sorted by contract.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    DomainError,
    NegativeEigenvalue,
    NotHermitian,
    NotSquare,
    SizeOverflow,
)

DEFAULT_MAX_DIM = 4096
SUPPORT_CUTOFF = 1e-12  # support threshold, relative to the largest eigenvalue
HERMITICITY_RTOL = 1e-9

_MAX_DIM_ENV = "CHRONON_MAX_DIM"


def max_tensor_dim() -> int:
    """Dimension cap for tensor products; override with CHRONON_MAX_DIM."""
    raw = os.environ.get(_MAX_DIM_ENV)
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        cap = int(raw)
    except ValueError as exc:
        raise SizeOverflow(f"{_MAX_DIM_ENV}={raw!r} is not an integer") from exc
    if cap < 1:
        raise SizeOverflow(f"{_MAX_DIM_ENV} must be positive, got {cap}")
    return cap


def require_within_cap(dim: int, what: str) -> None:
    """SizeOverflow naming `what` if dim exceeds :func:`max_tensor_dim`."""
    cap = max_tensor_dim()
    if dim > cap:
        raise SizeOverflow(f"{what} {dim} exceeds the {_MAX_DIM_ENV} cap {cap}")


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-D complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise NotSquare(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise DomainError("matrix contains NaN or Inf entries")
    return m


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def require_square(a: np.ndarray) -> np.ndarray:
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise NotSquare(f"matrix is {a.shape[0]}x{a.shape[1]}")
    return a


def require_hermitian(a: np.ndarray) -> np.ndarray:
    a = require_square(a)
    dev = frobenius(a - a.conj().T)
    if dev > HERMITICITY_RTOL * max(1.0, frobenius(a)):
        raise NotHermitian(f"||A - A^dag||_F = {dev:.3e} exceeds tolerance")
    return a


def dag(a: np.ndarray) -> np.ndarray:
    return np.asarray(a).conj().T


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    eigenvalues are real and ascending; eigenvectors holds the matching
    orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eig_hermitian(a: np.ndarray) -> Spectrum:
    """Hermitian eigendecomposition with ascending eigenvalues."""
    a = require_hermitian(a)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver failed: {exc}") from exc
    return Spectrum(eigenvalues=w, eigenvectors=v)


def matrix_func(a: np.ndarray, f: Callable[[float], float]) -> np.ndarray:
    """Spectral application of a real scalar function: V diag(f(w)) V^dag.

    Raises DomainError if f is undefined at any eigenvalue: either f returns
    a non-finite value there, or the call raises ValueError, OverflowError
    or ZeroDivisionError, as ``math.log(0.0)``, ``math.exp(1000.0)`` and
    ``0.0 ** -1.0`` do.  The message names the eigenvalue, and a raised
    exception is chained as the cause.  Other exceptions from f propagate
    unchanged; a non-real result such as ``(-1e-17) ** 0.5`` ends as the
    TypeError numpy raises when converting it to float.
    """
    spec = eig_hermitian(a)
    values = []
    for w in spec.eigenvalues.tolist():
        try:
            values.append(f(w))
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise DomainError(
                f"scalar function undefined at eigenvalue {w!r}: {exc}"
            ) from exc
    fw = np.array(values, dtype=float)
    if not np.all(np.isfinite(fw)):
        bad = spec.eigenvalues[~np.isfinite(fw)]
        raise DomainError(f"scalar function undefined at eigenvalue(s) {bad}")
    v = spec.eigenvectors
    return (v * fw) @ dag(v)


def support_spectrum(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors spanning the support of a PSD Hermitian
    matrix.

    Eigenvalues above SUPPORT_CUTOFF times the largest eigenvalue form the
    support.  Returns ``(values, columns)``, ascending, from a single
    eigendecomposition.  Eigenvalues below ``-SUPPORT_CUTOFF`` raise
    NegativeEigenvalue.
    """
    spec = eig_hermitian(rho)
    w, v = spec.eigenvalues, spec.eigenvectors
    if w[0] < -SUPPORT_CUTOFF:
        raise NegativeEigenvalue(f"eigenvalue {w[0]:.3e} below -cutoff")
    keep = w > SUPPORT_CUTOFF * max(float(w[-1]), 0.0)
    return w[keep], v[:, keep]


def support_log(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Matrix log restricted to the support of a PSD Hermitian matrix.

    The support is that of :func:`support_spectrum`; the log vanishes off
    it.  Returns ``(logm, projector)``, both zero for an empty support.
    """
    w, vk = support_spectrum(rho)
    logm = (vk * np.log(w)) @ dag(vk)
    proj = vk @ dag(vk)
    return logm, proj


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with a configurable dimension cap."""
    a = as_matrix(a)
    b = as_matrix(b)
    out_rows = a.shape[0] * b.shape[0]
    out_cols = a.shape[1] * b.shape[1]
    require_within_cap(max(out_rows, out_cols), "tensor product dimension")
    return np.kron(a, b)


def partial_trace(joint: np.ndarray, dim_a: int, dim_b: int, keep: str) -> np.ndarray:
    """Trace out one tensor factor of a (dim_a*dim_b)-dimensional operator.

    keep='A' returns the first factor's reduced operator, keep='B' the
    second's.  The total trace is preserved exactly.
    """
    joint = require_hermitian(joint)
    if dim_a < 1 or dim_b < 1:
        raise DimensionMismatch("factor dimensions must be positive")
    if joint.shape[0] != dim_a * dim_b:
        raise DimensionMismatch(
            f"joint dim {joint.shape[0]} != dim_a*dim_b = {dim_a * dim_b}"
        )
    r = joint.reshape(dim_a, dim_b, dim_a, dim_b)
    if keep == "A":
        return np.einsum("ijkj->ik", r)
    if keep == "B":
        return np.einsum("ijil->jl", r)
    raise DimensionMismatch(f"keep must be 'A' or 'B', got {keep!r}")


def trace_real(a: np.ndarray) -> float:
    return float(np.trace(a).real)


def xlnx(x: float) -> float:
    """x * ln(x) with the continuous extension 0 * ln 0 := 0."""
    return x * math.log(x) if x > 0.0 else 0.0
