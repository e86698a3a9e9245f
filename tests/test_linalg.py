import math

import numpy as np
import pytest

from chronon_lab import linalg
from chronon_lab.errors import (
    DimensionMismatch,
    DomainError,
    NegativeEigenvalue,
    NotHermitian,
    NotSquare,
    SizeOverflow,
)

from conftest import dagger, partial_trace_oracle, random_density_mat, random_hermitian


class TestEigHermitian:
    def test_diagonal_sorted_ascending(self):
        w, v = linalg.eig_hermitian(np.diag([3.0, 1.0]).astype(complex))
        assert np.allclose(w, [1.0, 3.0])
        # eigenvectors form a permuted identity
        assert np.allclose(np.abs(v), [[0, 1], [1, 0]])

    def test_identity(self):
        w, _ = linalg.eig_hermitian(np.eye(4, dtype=complex))
        assert np.allclose(w, np.ones(4))

    def test_pauli_x(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        w, _ = linalg.eig_hermitian(sx)
        assert np.allclose(w, [-1.0, 1.0])

    def test_reconstruction_random(self, rng):
        for _ in range(25):
            d = int(rng.integers(2, 9))
            a = random_hermitian(d, rng)
            w, v = linalg.eig_hermitian(a)
            err = linalg.frobenius((v * w) @ dagger(v) - a)
            assert err <= 1e-10 * max(1.0, linalg.frobenius(a))
            unit = linalg.frobenius(dagger(v) @ v - np.eye(d))
            assert unit <= 1e-10

    def test_rejects_non_square(self):
        with pytest.raises(NotSquare):
            linalg.eig_hermitian(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            linalg.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestMatrixFunc:
    def test_log_of_diag(self):
        a = np.diag([1.0, math.e]).astype(complex)
        assert np.allclose(linalg.matrix_func(a, math.log), np.diag([0.0, 1.0]))

    def test_identity_function(self, rng):
        a = random_hermitian(5, rng)
        assert linalg.frobenius(linalg.matrix_func(a, lambda x: x) - a) <= 1e-10

    def test_entropy_kernel_scalar_oracle(self):
        # expected values from plain scalar arithmetic on -x ln x
        a = np.diag([0.25, 0.75]).astype(complex)
        out = linalg.matrix_func(a, lambda x: -x * math.log(x))
        expected = np.diag([-0.25 * math.log(0.25), -0.75 * math.log(0.75)])
        assert np.allclose(out, expected, atol=1e-12)
        assert abs(out[0, 0].real - 0.34657359) < 1e-7
        assert abs(out[1, 1].real - 0.21576155) < 1e-7

    def test_exp_log_roundtrip(self, rng):
        for _ in range(10):
            a = random_hermitian(4, rng)
            a *= 5.0 / max(1.0, np.abs(np.linalg.eigvalsh(a)).max())
            back = linalg.matrix_func(linalg.matrix_func(a, math.exp), math.log)
            assert linalg.frobenius(back - a) <= 1e-8

    def test_domain_error_on_log_of_zero(self):
        with pytest.raises(DomainError):
            linalg.matrix_func(np.diag([0.0, 1.0]).astype(complex), math.log)

    @pytest.mark.parametrize(
        "diag, f, cause, named",
        [
            ([1000.0, 0.0], math.exp, OverflowError, r"eigenvalue 1000\.0\b"),
            ([0.0, 1.0], lambda x: x ** -1.0, ZeroDivisionError, r"eigenvalue 0\.0\b"),
            ([-1.0, 1.0], math.log, ValueError, r"eigenvalue -1\.0\b"),
        ],
        ids=["exp-overflow", "reciprocal-of-zero", "log-of-negative"],
    )
    def test_domain_error_names_eigenvalue_and_chains_cause(
        self, diag, f, cause, named
    ):
        with pytest.raises(DomainError, match=named) as info:
            linalg.matrix_func(np.diag(diag).astype(complex), f)
        assert type(info.value.__cause__) is cause

    def test_domain_error_on_non_finite_result(self):
        with pytest.raises(DomainError, match=r"eigenvalue\(s\) \[2\.\]"):
            linalg.matrix_func(
                np.diag([1.0, 2.0]).astype(complex),
                lambda x: float("inf") if x > 1.5 else x,
            )


class TestSupportLog:
    def test_maximally_mixed(self):
        logm, proj = linalg.support_log(np.eye(2, dtype=complex) / 2)
        assert np.allclose(logm, -math.log(2) * np.eye(2))
        assert np.allclose(proj, np.eye(2))

    def test_pure_projector(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        logm, proj = linalg.support_log(p)
        assert np.allclose(logm, np.zeros((2, 2)))
        assert np.allclose(proj, p)

    def test_rank_deficient_scalar_oracle(self):
        rho = np.diag([0.9, 0.1, 0.0]).astype(complex)
        logm, proj = linalg.support_log(rho)
        assert np.allclose(logm, np.diag([math.log(0.9), math.log(0.1), 0.0]))
        assert abs(np.trace(proj).real - 2.0) < 1e-12

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NegativeEigenvalue):
            linalg.support_log(np.diag([1.0, -1e-6]).astype(complex))


class TestTensor:
    def test_identities(self):
        assert np.allclose(linalg.tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal(self):
        out = linalg.tensor(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        assert np.allclose(out, np.diag([3.0, 4.0, 6.0, 8.0]))

    def test_projector_index_bookkeeping(self):
        # |0><0| x |1><1| puts the single 1 at flat index 0*2+1 = 1
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        out = linalg.tensor(p0, p1)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        assert np.allclose(out, expected)

    def test_trace_multiplicative(self, rng):
        for _ in range(10):
            a = random_hermitian(3, rng)
            b = random_hermitian(2, rng)
            lhs = np.trace(linalg.tensor(a, b))
            rhs = np.trace(a) * np.trace(b)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_size_cap(self, monkeypatch):
        monkeypatch.setenv("CHRONON_MAX_DIM", "3")
        with pytest.raises(SizeOverflow):
            linalg.tensor(np.eye(2), np.eye(2))

    def test_size_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("CHRONON_MAX_DIM", "8")
        assert linalg.tensor(np.eye(2), np.eye(4)).shape == (8, 8)


class TestPartialTrace:
    def test_product_recovery(self, rng):
        for _ in range(10):
            rho_a = random_density_mat(2, rng)
            rho_b = random_density_mat(3, rng)
            joint = np.kron(rho_a, rho_b)
            out = linalg.partial_trace(joint, 2, 3, keep="A")
            assert linalg.frobenius(out - rho_a) <= 1e-12

    def test_bell_marginal(self):
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1 / math.sqrt(2)
        out = linalg.partial_trace(np.outer(v, v.conj()), 2, 2, keep="A")
        assert np.allclose(out, np.eye(2) / 2)

    def test_keep_b_against_brute_force(self):
        joint = np.kron(np.diag([0.3, 0.7]), np.diag([0.5, 0.5])).astype(complex)
        out = linalg.partial_trace(joint, 2, 2, keep="B")
        oracle = partial_trace_oracle(joint, 2, 2, keep="B")
        assert np.allclose(out, oracle)
        assert np.allclose(out, np.diag([0.5, 0.5]))

    def test_random_against_brute_force(self, rng):
        joint = random_density_mat(6, rng)
        for keep in ("A", "B"):
            out = linalg.partial_trace(joint, 2, 3, keep=keep)
            assert np.allclose(out, partial_trace_oracle(joint, 2, 3, keep))
            assert abs(np.trace(out).real - 1.0) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            linalg.partial_trace(np.eye(6, dtype=complex) / 6, 2, 2, keep="A")
