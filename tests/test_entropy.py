import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronon_lab.entropy import (
    MAX_TROTTER_N,
    _id_kron,
    conditional_state,
    cq_conditional,
    cq_conditional_state,
    generalized_conditional,
    trotter_conditional_density,
    von_neumann,
)
from chronon_lab.errors import InvalidState, NumericalError
from chronon_lab.linalg import frobenius, partial_trace, support_log
from chronon_lab.states import (
    BipartiteState,
    ClassicalQuantumState,
    DensityMatrix,
)

from conftest import (
    bell_state,
    cq_embed,
    entropy_oracle,
    random_cq,
    random_density,
    random_density_mat,
    random_separable,
    random_unitary,
)

LN2 = math.log(2.0)
# (dim_a, dim_b) with both factors >= 2 and joint dimension <= 16
FACTOR_DIMS = [(a, b) for a in range(2, 9) for b in range(2, 9) if a * b <= 16]


class TestVonNeumann:
    def test_pure_state_zero(self):
        assert von_neumann(DensityMatrix(np.diag([1.0, 0.0]).astype(complex))) == 0.0

    def test_maximally_mixed(self):
        s = von_neumann(DensityMatrix(np.eye(2, dtype=complex) / 2))
        assert s == pytest.approx(LN2, abs=1e-12)

    def test_scalar_oracle(self):
        s = von_neumann(DensityMatrix(np.diag([0.25, 0.75]).astype(complex)))
        assert s == pytest.approx(entropy_oracle([0.25, 0.75]), abs=1e-12)
        assert s == pytest.approx(0.562335, abs=1e-6)

    def test_range(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 6))
            s = von_neumann(random_density(d, rng))
            assert 0.0 <= s <= math.log(d) + 1e-12

    def test_unitary_invariance(self, rng):
        for _ in range(100):
            rho = random_density_mat(4, rng)
            u = random_unitary(4, rng)
            s0 = von_neumann(DensityMatrix(rho))
            s1 = von_neumann(DensityMatrix(u @ rho @ u.conj().T))
            assert abs(s0 - s1) <= 1e-10

    def test_reads_the_validated_spectrum(self, rng):
        # the spectrum kept by DensityMatrix validation is the matrix's own
        for d in (2, 4, 8):
            rho = random_density(d, rng)
            assert np.allclose(rho.eigenvalues, np.linalg.eigvalsh(rho.mat), rtol=0, atol=1e-14)
            assert von_neumann(rho) == pytest.approx(
                entropy_oracle(np.linalg.eigvalsh(rho.mat)), abs=1e-12
            )


class TestCqConditional:
    def test_pure_branches_zero(self, rng):
        cq = ClassicalQuantumState(
            ((0.3, random_density(2, rng, pure=True)),
             (0.7, random_density(2, rng, pure=True)))
        )
        assert cq_conditional(cq) == pytest.approx(0.0, abs=1e-12)

    def test_half_mixed_branch(self):
        cq = ClassicalQuantumState(
            ((0.5, DensityMatrix(np.diag([1.0, 0.0]).astype(complex))),
             (0.5, DensityMatrix(np.eye(2, dtype=complex) / 2)))
        )
        assert cq_conditional(cq) == pytest.approx(0.5 * LN2, abs=1e-12)
        assert cq_conditional(cq) == pytest.approx(0.346574, abs=1e-6)

    def test_identical_branches_collapse(self, rng):
        rho = random_density(3, rng)
        cq = ClassicalQuantumState(((0.2, rho), (0.8, rho)))
        assert cq_conditional(cq) == pytest.approx(von_neumann(rho), abs=1e-12)

    def test_never_exceeds_mixture_entropy(self, rng):
        for _ in range(50):
            cq = random_cq(rng)
            assert cq_conditional(cq) <= von_neumann(cq.mixture()) + 1e-9


@pytest.mark.parametrize("dim_a", range(1, 9))
def test_id_kron_matches_kron_bit_for_bit(dim_a, rng):
    # planted +0.0 and -0.0 in both parts: 0.0 * x takes the sign of x, so a
    # product that skipped the zero blocks or reordered a sum would differ
    for n in range(1, 9):
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        for part in (x.real, x.imag):
            draw = rng.random((n, n))
            part[draw < 0.25] = 0.0
            part[draw > 0.75] = -0.0
        assert _id_kron(dim_a, x).tobytes() == np.kron(np.eye(dim_a), x).tobytes()


class TestConditionalDensity:
    def test_product_state(self, rng):
        rho_a = random_density_mat(2, rng)
        rho_b = random_density_mat(2, rng)
        bi = BipartiteState(
            joint=DensityMatrix(np.kron(rho_a, rho_b)), dim_a=2, dim_b=2
        )
        cond = conditional_state(bi).density
        assert frobenius(cond - np.kron(rho_a, np.eye(2))) <= 1e-8

    def test_bell_doubles_its_projector(self):
        bi = bell_state()
        cond = conditional_state(bi).density
        assert frobenius(cond - 2.0 * bi.joint.mat) <= 1e-10
        w = np.linalg.eigvalsh(cond)
        assert w[-1] == pytest.approx(2.0, abs=1e-10)

    def test_spectrum_is_the_density_spectrum_computed_once(self, rng):
        cs = conditional_state(BipartiteState(joint=random_density(4, rng), dim_a=2, dim_b=2))
        assert "spectrum" not in vars(cs)  # nothing decomposed until asked
        assert np.array_equal(cs.spectrum, np.linalg.eigvalsh(cs.density))
        assert cs.spectrum is cs.spectrum

    def test_cq_embedding_block_diagonal(self, rng):
        cq = random_cq(rng, dim=2, branches=2)
        bi = cq_embed(cq)
        cond = conditional_state(bi).density
        # register sectors stay uncoupled
        for s in range(2):
            for t in range(2):
                assert abs(cond[s * 2 + 0, t * 2 + 1]) < 1e-10
                assert abs(cond[s * 2 + 1, t * 2 + 0]) < 1e-10


def _rank_density(dim, rank, rng) -> DensityMatrix:
    k = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = k @ k.conj().T
    return DensityMatrix(m / np.trace(m).real)


def _outcome(compute):
    """compute()'s value, or the type and text of the error it raised."""
    try:
        return compute()
    except (InvalidState, NumericalError) as exc:
        return type(exc).__name__, str(exc)


class TestBlockConditionalState:
    """The block-by-block cq route against the embedded joint it replaces
    (``cq_embed`` in conftest, then the bipartite pipeline)."""

    # derandomized: on the Trotter distance the reference's own rounding,
    # from one eigh of the whole regularized joint, reaches ~1e-12 when
    # eps I/(d n) is the smallest eigenvalue; the block route stays within
    # 2e-16 of the closed form there
    @given(st.integers(min_value=1, max_value=4), st.data())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_matches_the_embedded_joint(self, dim, data):
        ranks = data.draw(st.lists(st.integers(1, dim), min_size=1, max_size=6), label="ranks")
        zero = data.draw(st.sampled_from([None, *range(len(ranks))]), label="p = 0 branch")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        p = rng.uniform(0.05, 1.0, size=len(ranks))
        if zero is not None and len(ranks) > 1:
            p[zero] = 0.0
        p /= p.sum()
        cq = ClassicalQuantumState(
            tuple((float(q), _rank_density(dim, r, rng)) for q, r in zip(p, ranks))
        )
        ref = conditional_state(cq_embed(cq))
        cs = cq_conditional_state(cq)
        assert abs(cs.entropy - ref.entropy) <= 1e-12
        assert cs.spectrum.shape == (dim * len(ranks),)
        assert np.abs(cs.spectrum - ref.spectrum).max() <= 1e-12
        for n in (1, 2, 4):
            for eps in (0.0, 1e-3):
                expected = _outcome(lambda: frobenius(
                    trotter_conditional_density(cq_embed(cq), n, eps) - ref.density))
                got = _outcome(lambda: cs.trotter_distance(n, eps))
                if isinstance(expected, tuple) or isinstance(got, tuple):
                    assert got == expected, (n, eps)
                else:
                    assert abs(got - expected) <= 1e-12, (n, eps)

    def test_spectrum_is_the_branch_spectra_on_the_support(self):
        # the golden cq input: Psi_0 = |0><0| (rank 1) and Psi_1 with
        # eigenvalues 1/8 and 7/8; Psi_0's null direction is exactly 0.0
        psi0 = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        psi1 = DensityMatrix(np.array([[0.75, 0.25 + 0.125j], [0.25 - 0.125j, 0.25]]))
        cs = cq_conditional_state(ClassicalQuantumState(((0.5, psi0), (0.5, psi1))))
        assert cs.values.tolist() == [[0.0, 1.0], psi1.eigenvalues.tolist()]
        assert cs.spectrum.tolist() == sorted([0.0, 1.0, *psi1.eigenvalues.tolist()])

    def test_trotter_block_is_the_regularized_branch_over_its_weight(self, rng):
        # rho_B commutes with the embedding, so every n gives the block
        # rho_i / b_i: the product is exact up to rounding
        cq = random_cq(rng, dim=3, branches=4)
        cs = cq_conditional_state(cq)
        eps, n_total = 1e-3, 12
        closed = 0.0
        for (p, psi), values in zip(cq.branches, cs.values):
            _, v = np.linalg.eigh(psi.mat)
            reg = (1 - eps) * p * psi.mat + eps / n_total * np.eye(3)
            b = (1 - eps) * p * np.trace(psi.mat).real + eps / 4
            closed += frobenius(reg / b - (v * values) @ v.conj().T) ** 2
        for n in (1, 3, 16):
            assert cs.trotter_distance(n, eps) == pytest.approx(math.sqrt(closed), abs=1e-14)

    def test_rejects_n_above_the_cap(self, rng):
        cs = cq_conditional_state(random_cq(rng))
        assert math.isfinite(cs.trotter_distance(MAX_TROTTER_N, 1e-6))
        with pytest.raises(InvalidState, match=f"^Trotter n {MAX_TROTTER_N + 1} is above the cap"):
            cs.trotter_distance(MAX_TROTTER_N + 1)


class TestTrotterConditionalDensity:
    def test_product_exact_at_any_n(self, rng):
        rho_a = random_density_mat(2, rng)
        rho_b = random_density_mat(2, rng)
        bi = BipartiteState(
            joint=DensityMatrix(np.kron(rho_a, rho_b)), dim_a=2, dim_b=2
        )
        for n in (1, 3, 10):
            approx = trotter_conditional_density(bi, n)
            assert frobenius(approx - np.kron(rho_a, np.eye(2))) <= 1e-10

    def test_convergence_to_closed_form(self, rng):
        bi = BipartiteState(joint=random_density(4, rng), dim_a=2, dim_b=2)
        cond = conditional_state(bi).density
        dists = [
            frobenius(trotter_conditional_density(bi, n) - cond)
            for n in (1, 4, 16, 64, 256, 1024)
        ]
        assert all(a > b for a, b in zip(dists, dists[1:]))
        assert dists[-1] < dists[0] / 100

    @given(
        st.sampled_from(FACTOR_DIMS),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_distance_shrinks_as_n_doubles(self, dims, seed):
        # Cerf-Adami (PRL 79, 5194 (1997)): the product approximant tends
        # to the conditional density; on full-rank joints it gets closer
        # each time n doubles
        dim_a, dim_b = dims
        rng = np.random.default_rng(seed)
        bi = BipartiteState(random_density(dim_a * dim_b, rng), dim_a, dim_b)
        cond = conditional_state(bi).density
        dists = [frobenius(trotter_conditional_density(bi, 2**k) - cond) for k in range(7)]
        assert all(a > b for a, b in zip(dists, dists[1:])), dists

    def test_rank_deficient_needs_regularization(self):
        bi = bell_state()
        with pytest.raises(NumericalError, match="rank-deficient state"):
            trotter_conditional_density(bi, 8)

    def test_regularized_bell_limit(self):
        bi = bell_state()
        approx = trotter_conditional_density(bi, 4096, eps=1e-6)
        assert frobenius(approx - 2.0 * bi.joint.mat) <= 1e-3

    def test_rejects_n_above_the_cap(self):
        # the cap is checked before the full-rank check
        with pytest.raises(InvalidState, match=f"^Trotter n {MAX_TROTTER_N + 1} is above the cap"):
            trotter_conditional_density(bell_state(), MAX_TROTTER_N + 1)


class TestGeneralizedConditional:
    def test_product_returns_first_factor_entropy(self, rng):
        rho_a = random_density_mat(2, rng)
        rho_b = random_density_mat(3, rng)
        bi = BipartiteState(
            joint=DensityMatrix(np.kron(rho_a, rho_b)), dim_a=2, dim_b=3
        )
        expected = entropy_oracle(np.linalg.eigvalsh(rho_a))
        assert generalized_conditional(bi) == pytest.approx(expected, abs=1e-10)

    def test_bell_is_minus_ln2(self):
        assert generalized_conditional(bell_state()) == pytest.approx(-LN2, abs=1e-9)

    def test_matches_cq_conditional(self, rng):
        for _ in range(100):
            cq = random_cq(rng, dim=2, branches=int(rng.integers(2, 4)))
            eq4 = cq_conditional(cq)
            gen = generalized_conditional(cq_embed(cq))
            assert abs(eq4 - gen) <= 1e-8

    def test_explicit_dual_path_trace(self, rng):
        # recompute -tr(rho log rho_{A|B}) by hand and compare
        for _ in range(20):
            bi = random_separable(rng)
            cond = conditional_state(bi).density
            log_cond, _ = support_log(cond)
            dual = -float(np.trace(bi.joint.mat @ log_cond).real)
            assert abs(generalized_conditional(bi) - dual) <= 1e-8

    def test_separable_states_nonnegative(self, rng):
        for _ in range(100):
            bi = random_separable(rng, terms=int(rng.integers(1, 5)))
            assert generalized_conditional(bi) >= -1e-9

    @given(
        st.sampled_from(FACTOR_DIMS),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_bounded_by_ln_dim_a(self, dims, rank, seed):
        # -ln d_A <= S(A|B) <= ln d_A on random joints of any rank
        dim_a, dim_b = dims
        d = dim_a * dim_b
        rng = np.random.default_rng(seed)
        k = rng.normal(size=(d, min(rank, d))) + 1j * rng.normal(size=(d, min(rank, d)))
        joint = k @ k.conj().T
        bi = BipartiteState(DensityMatrix(joint / np.trace(joint).real), dim_a, dim_b)
        bound = math.log(dim_a) + 1e-9
        assert -bound <= generalized_conditional(bi) <= bound

    def test_marginal_entropy_subtraction(self, rng):
        # S(A|B) = S(joint) - S(B) with the marginal taken by brute force
        bi = BipartiteState(joint=random_density(6, rng), dim_a=2, dim_b=3)
        s_joint = entropy_oracle(np.linalg.eigvalsh(bi.joint.mat))
        rho_b = partial_trace(bi.joint.mat, 2, 3, keep="B")
        s_b = entropy_oracle(np.linalg.eigvalsh(rho_b))
        assert generalized_conditional(bi) == pytest.approx(s_joint - s_b, abs=1e-10)

