import math

import numpy as np
import pytest

from chronon_lab import linalg
from chronon_lab.errors import NumericalError

from conftest import dagger, partial_trace_oracle, random_density_mat, random_hermitian


class TestEigHermitian:
    def test_diagonal_sorted_ascending(self):
        w, v = linalg.eigh(np.diag([3.0, 1.0]).astype(complex))
        assert np.allclose(w, [1.0, 3.0])
        # eigenvectors form a permuted identity
        assert np.allclose(np.abs(v), [[0, 1], [1, 0]])

    def test_identity(self):
        w, _ = linalg.eigh(np.eye(4, dtype=complex))
        assert np.allclose(w, np.ones(4))

    def test_pauli_x(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        w, _ = linalg.eigh(sx)
        assert np.allclose(w, [-1.0, 1.0])

    def test_reconstruction_random(self, rng):
        for _ in range(25):
            d = int(rng.integers(2, 9))
            a = random_hermitian(d, rng)
            w, v = linalg.eigh(a)
            err = linalg.frobenius((v * w) @ dagger(v) - a)
            assert err <= 1e-10 * max(1.0, linalg.frobenius(a))
            unit = linalg.frobenius(dagger(v) @ v - np.eye(d))
            assert unit <= 1e-10
            assert np.array_equal(linalg.eigvalsh(a), np.linalg.eigvalsh(a))

    @pytest.mark.parametrize("name", ["eigh", "eigvalsh"])
    def test_solver_failure_is_numerical_error(self, name, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        # looked up on np.linalg at call time, so a wrapper set there is used
        monkeypatch.setattr(np.linalg, name, fail)
        with pytest.raises(NumericalError, match="^eigensolver failed: Eigenvalues did not converge$"):
            getattr(linalg, name)(np.eye(2, dtype=complex))


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
