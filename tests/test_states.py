import math

import numpy as np
import pytest

from chronon_lab import linalg
from chronon_lab.errors import InvalidState
from chronon_lab.linalg import frobenius, partial_trace
from chronon_lab.states import (
    BipartiteState,
    ClassicalQuantumState,
    CorrelationBasis,
    DensityMatrix,
    StateVector,
    measurement_probability,
    reduce_over_apparatus,
)

from conftest import cq_embed, partial_trace_oracle, random_density, random_unitary


def basis_vec(dim, idx):
    v = np.zeros(dim, dtype=complex)
    v[idx] = 1.0
    return StateVector(v)


def computational_basis(dim, size=None):
    size = dim if size is None else size
    return tuple(basis_vec(dim, i) for i in range(size))


class TestStateTypes:
    def test_state_vector_normalization(self):
        with pytest.raises(InvalidState):
            StateVector(np.array([1.0, 1.0]))

    def test_density_matrix_validation(self):
        with pytest.raises(InvalidState, match=r"^trace 1\.4 != 1$"):
            DensityMatrix(np.diag([0.7, 0.7]).astype(complex))
        with pytest.raises(InvalidState, match=r"^density matrix not Hermitian \(dev 1\.414e\+00\)$"):
            DensityMatrix(np.array([[0.5, 0.5], [-0.5, 0.5]], dtype=complex))
        with pytest.raises(InvalidState, match=r"^negative eigenvalue -5\.000e-01$"):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))
        with pytest.raises(InvalidState, match=r"^matrix contains NaN or Inf entries$"):
            DensityMatrix(np.diag([1.0, complex(0.0, math.nan)]))
        with pytest.raises(InvalidState, match=r"^matrix is 2x3$"):
            DensityMatrix(np.zeros((2, 3)))
        with pytest.raises(InvalidState, match=r"^expected a matrix, got ndim=1$"):
            DensityMatrix(np.ones(2) / 2)

    def test_cq_probabilities_sum(self):
        good = ClassicalQuantumState(
            ((0.25, random_density(2, np.random.default_rng(0))),
             (0.75, random_density(2, np.random.default_rng(1)))))
        assert abs(sum(p for p, _ in good.branches) - 1.0) < 1e-12
        with pytest.raises(InvalidState):
            ClassicalQuantumState(((0.5, random_density(2, np.random.default_rng(2))),))

    def test_bipartite_dims(self):
        with pytest.raises(InvalidState):
            BipartiteState(joint=DensityMatrix(np.eye(4, dtype=complex) / 4), dim_a=3, dim_b=2)

    def test_basis_size_mismatch(self):
        with pytest.raises(InvalidState, match="system vectors vs"):
            CorrelationBasis(computational_basis(2), computational_basis(2, 1))

    def test_basis_orthogonality_enforced(self):
        v = StateVector(np.array([1.0, 0.0], dtype=complex))
        w = StateVector(np.array([1.0, 1.0], dtype=complex) / math.sqrt(2))
        with pytest.raises(InvalidState):
            CorrelationBasis((v, w), computational_basis(2))

    def test_basis_operator_dimension_cap(self, monkeypatch):
        # the operator acts on system (x) apparatus: 2 x 3 = 6 dimensions
        monkeypatch.setattr(linalg, "MAX_DIM", 6)
        assert CorrelationBasis(computational_basis(2), computational_basis(3, 2)).dim == 6
        monkeypatch.setattr(linalg, "MAX_DIM", 5)
        # the second pair repeats one vector per side: the cap fires before
        # the pairwise orthogonality checks
        for system, apparatus in [(computational_basis(2), computational_basis(3, 2)),
                                  (computational_basis(2, 1) * 2, computational_basis(3, 1) * 2)]:
            with pytest.raises(InvalidState, match="tensor product dimension 6 is above the cap of 5"):
                CorrelationBasis(system, apparatus)


def outer_product_oracle(basis):
    """Brute-force sum of outer products: the projector M, built entry by entry."""
    d = basis.dim
    oracle = np.zeros((d, d), dtype=complex)
    for psi, a in zip(basis.system_basis, basis.apparatus_basis):
        v = np.kron(psi.amplitudes, a.amplitudes)
        for i in range(d):
            for j in range(d):
                oracle[i, j] += v[i] * v[j].conjugate()
    return oracle


def random_vector(dim, rng):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(v / np.linalg.norm(v))


class TestMeasurementOperator:
    """M = sum_I |psi_I A_I><psi_I A_I| is never built; its properties are
    read through P(xi) = <xi|M|xi>."""

    def test_computational_pair_projector(self):
        basis = CorrelationBasis(computational_basis(2), computational_basis(2))
        probs = [measurement_probability(basis_vec(4, k), basis) for k in range(4)]
        assert probs == [1.0, 0.0, 0.0, 1.0]  # (0,0) and (1,1) pairs

    def test_single_pair_rank_one(self, rng):
        # sum_k <u_k|M|u_k> over any orthonormal basis of the space is tr M
        basis = CorrelationBasis(computational_basis(2, 1), computational_basis(2, 1))
        u = random_unitary(4, rng)
        trace = sum(measurement_probability(StateVector(u[:, k]), basis) for k in range(4))
        assert abs(trace - 1.0) < 1e-12

    def test_rotated_basis_against_outer_product_oracle(self, rng):
        h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2)
        basis = CorrelationBasis(tuple(StateVector(h[:, i]) for i in range(2)),
                                 computational_basis(2))
        oracle = outer_product_oracle(basis)
        for _ in range(10):
            xi = random_vector(4, rng)
            expected = np.vdot(xi.amplitudes, oracle @ xi.amplitudes).real
            assert abs(measurement_probability(xi, basis) - expected) < 1e-12

    def test_projector_properties_random_bases(self, rng):
        for _ in range(20):
            u_s = random_unitary(3, rng)
            u_a = random_unitary(3, rng)
            size = int(rng.integers(1, 4))
            basis = CorrelationBasis(
                tuple(StateVector(u_s[:, i]) for i in range(size)),
                tuple(StateVector(u_a[:, i]) for i in range(size)),
            )
            # M fixes each pair's product vector, and its trace is its rank
            for psi, a in zip(basis.system_basis, basis.apparatus_basis):
                pair = StateVector(np.kron(psi.amplitudes, a.amplitudes))
                assert abs(measurement_probability(pair, basis) - 1.0) <= 1e-10
            u = random_unitary(9, rng)
            trace = sum(measurement_probability(StateVector(u[:, k]), basis) for k in range(9))
            assert abs(trace - size) <= 1e-10


class TestMeasurementProbability:
    @pytest.fixture
    def basis(self):
        return CorrelationBasis(computational_basis(2), computational_basis(2))

    def test_correct_pointer_reads_one(self, basis):
        xi = StateVector(np.kron([0, 1], [0, 1]).astype(complex))
        assert measurement_probability(xi, basis) == pytest.approx(1.0, abs=1e-12)

    def test_wrong_pointer_reads_zero(self, basis):
        xi = StateVector(np.kron([0, 1], [1, 0]).astype(complex))
        assert measurement_probability(xi, basis) == pytest.approx(0.0, abs=1e-12)

    def test_half_weight_superposition(self, basis):
        # (psi_1 x A_1 + psi_1 x A_2)/sqrt(2): only the first term lies in M
        xi = StateVector((np.kron([1, 0], [1, 0]) + np.kron([1, 0], [0, 1])).astype(complex) / math.sqrt(2))
        assert measurement_probability(xi, basis) == pytest.approx(0.5, abs=1e-12)

    def test_global_phase_invariance(self, basis, rng):
        xi = np.kron([1, 0], [1, 0]).astype(complex)
        for _ in range(10):
            phase = math.tau * rng.random()
            rotated = StateVector(np.exp(1j * phase) * xi)
            assert measurement_probability(rotated, basis) == pytest.approx(1.0, abs=1e-10)

    def test_local_unitary_invariance(self, basis, rng):
        # relational invariance: rotating system and apparatus frames, the
        # bases with them, leaves <xi|M|xi> unchanged
        for _ in range(10):
            xi = random_vector(4, rng)
            u_s, u_a = random_unitary(2, rng), random_unitary(2, rng)
            rotated = CorrelationBasis(
                tuple(StateVector(u_s @ v.amplitudes) for v in basis.system_basis),
                tuple(StateVector(u_a @ v.amplitudes) for v in basis.apparatus_basis),
            )
            p0 = measurement_probability(xi, basis)
            p1 = measurement_probability(StateVector(np.kron(u_s, u_a) @ xi.amplitudes), rotated)
            assert abs(p0 - p1) <= 1e-10

    def test_dim_mismatch(self, basis):
        with pytest.raises(InvalidState, match="operator dim 4 != state dim 2"):
            measurement_probability(StateVector(np.array([1.0, 0.0])), basis)

    def test_non_projector_rejected(self):
        # each factor's vectors pass as unit vectors (|norm - 1| <= 1e-10),
        # but their products sum to M with M^2 != M at 5e-11 and not at 2e-11
        xi = basis_vec(4, 0)
        for delta, ok in ((2e-11, True), (5e-11, False)):
            scaled = tuple(StateVector((1.0 + delta) * v.amplitudes) for v in computational_basis(2))
            if ok:
                assert measurement_probability(xi, CorrelationBasis(scaled, scaled)) == 1.0
            else:
                with pytest.raises(InvalidState, match="^operator is not a projector$"):
                    CorrelationBasis(scaled, scaled)


class TestReduceOverApparatus:
    def test_product_state(self):
        psi = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
        app = np.array([1.0, 0.0], dtype=complex)
        rho = reduce_over_apparatus(StateVector(np.kron(psi, app)), 2, 2)
        assert frobenius(rho - np.outer(psi, psi.conj())) < 1e-12

    @pytest.mark.parametrize("weights", [(0.5, 0.5), (0.25, 0.75)])
    def test_correlated_state_weights(self, weights):
        c = np.sqrt(weights)
        xi = c[0] * np.kron([1, 0], [1, 0]) + c[1] * np.kron([0, 1], [0, 1])
        rho = reduce_over_apparatus(StateVector(xi.astype(complex)), 2, 2)
        assert np.allclose(rho, np.diag(weights), atol=1e-12)

    def test_against_partial_trace_oracle(self, rng):
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        v /= np.linalg.norm(v)
        rho = reduce_over_apparatus(StateVector(v), 2, 3)
        oracle = partial_trace_oracle(np.outer(v, v.conj()), 2, 3, keep="A")
        assert frobenius(rho - oracle) < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(InvalidState, match=r"dim_s\*dim_a = 6 != state dim 4"):
            reduce_over_apparatus(StateVector(np.array([1.0, 0, 0, 0])), 2, 3)


class TestCqEmbed:
    def test_single_branch_is_product(self, rng):
        rho = random_density(3, rng)
        bi = cq_embed(ClassicalQuantumState(((1.0, rho),)))
        assert bi.dim_a == 3 and bi.dim_b == 1
        assert frobenius(bi.joint.mat - rho.mat) < 1e-12

    def test_orthogonal_branches_block_assembly_oracle(self):
        p0 = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        p1 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
        bi = cq_embed(ClassicalQuantumState(((0.5, p0), (0.5, p1))))
        # explicit assembly: entry ((s,i),(s',i')) = delta_{ii'} p_i (Psi_i)_{ss'}
        expected = np.zeros((4, 4), dtype=complex)
        for i, (p, mat) in enumerate([(0.5, p0.mat), (0.5, p1.mat)]):
            for s in range(2):
                for t in range(2):
                    expected[s * 2 + i, t * 2 + i] += p * mat[s, t]
        assert frobenius(bi.joint.mat - expected) < 1e-12
        assert np.linalg.matrix_rank(bi.joint.mat) == 2

    def test_register_marginal_is_mixture(self, rng):
        for _ in range(5):
            probs = rng.random(3)
            probs /= probs.sum()
            branches = tuple((float(p), random_density(2, rng)) for p in probs)
            cq = ClassicalQuantumState(branches)
            bi = cq_embed(cq)
            marg = partial_trace(bi.joint.mat, bi.dim_a, bi.dim_b, keep="A")
            assert frobenius(marg - cq.mixture()) <= 1e-12

    def test_joint_dimension_cap(self, rng, monkeypatch):
        monkeypatch.setattr(linalg, "MAX_DIM", 3)
        cq = ClassicalQuantumState(((0.5, random_density(2, rng)), (0.5, random_density(2, rng))))
        with pytest.raises(InvalidState, match="tensor product dimension 4 is above the cap of 3"):
            cq_embed(cq)

    def test_joint_dimension_equal_to_cap_passes(self, rng, monkeypatch):
        monkeypatch.setattr(linalg, "MAX_DIM", 8)
        cq = ClassicalQuantumState(((0.5, random_density(2, rng)), (0.5, random_density(2, rng)),
                                    (0.0, random_density(2, rng)), (0.0, random_density(2, rng))))
        assert cq_embed(cq).joint.dim == 8

    def test_register_sectors_are_diagonal(self, rng):
        cq = ClassicalQuantumState(
            ((0.4, random_density(2, rng)), (0.6, random_density(2, rng)))
        )
        joint = cq_embed(cq).joint.mat
        # off-diagonal register blocks must vanish
        for s in range(2):
            for t in range(2):
                assert joint[s * 2 + 0, t * 2 + 1] == 0
                assert joint[s * 2 + 1, t * 2 + 0] == 0
