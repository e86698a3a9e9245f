import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronon_lab import speed_limits, sweeps
from chronon_lab.entropy import EntropyValue, conditional_state
from chronon_lab.errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    NegativeTime,
    NonpositiveEntropy,
    NonpositiveTemperature,
    SizeOverflow,
)
from chronon_lab.linalg import eig_hermitian
from chronon_lab.speed_limits import (
    REFINE_TIME_RESOLUTION,
    SCAN_GRID_POINTS,
    ThermalContext,
    antiqubit_process_velocity,
    ml_bound_shifted,
    orthogonalization_time,
    process_velocity,
    state_count,
    time_quantum,
)
from chronon_lab.states import BipartiteState, DensityMatrix, StateVector
from chronon_lab.sweeps import _eigenpair_state, random_state_vector, rng_for

from conftest import bell_state, entropy_oracle, random_density_mat, random_hermitian

LN2 = math.log(2.0)
NATURAL = ThermalContext()
HBAR_ONE = ThermalContext.hbar_one()


class TestThermalContext:
    def test_defaults_are_natural(self):
        assert (NATURAL.T, NATURAL.h, NATURAL.k, NATURAL.c) == (1.0, 1.0, 1.0, 1.0)

    def test_hbar_one_sets_planck(self):
        assert HBAR_ONE.h == pytest.approx(2 * math.pi)

    def test_rejects_nonpositive(self):
        with pytest.raises(NonpositiveTemperature):
            ThermalContext(T=0.0)
        with pytest.raises(NonpositiveTemperature):
            ThermalContext(h=-1.0)


class TestTimeQuantum:
    def test_ln2_natural(self):
        dt = time_quantum(EntropyValue(LN2), NATURAL)
        assert dt.dt == pytest.approx(1.0 / (4 * LN2), rel=1e-12)
        assert dt.dt == pytest.approx(0.360674, abs=1e-6)

    def test_si_constants_arithmetic_oracle(self):
        h, k, temp = 6.62607e-34, 1.380649e-23, 300.0
        ctx = ThermalContext(T=temp, h=h, k=k, c=2.99792458e8)
        expected = h / (4.0 * k * temp * LN2)  # direct substitution
        dt = time_quantum(EntropyValue(LN2), ctx)
        assert dt.dt == pytest.approx(expected, rel=1e-12)
        assert dt.dt == pytest.approx(5.77e-14, rel=1e-3)

    def test_zero_entropy_signals_no_flow(self):
        with pytest.raises(NonpositiveEntropy):
            time_quantum(EntropyValue(0.0), NATURAL)

    def test_inverse_of_velocity(self, rng):
        for _ in range(20):
            s = EntropyValue(float(rng.random()) + 0.05)
            ctx = ThermalContext(T=float(rng.random()) + 0.5, h=2.0, k=0.7)
            product = time_quantum(s, ctx).dt * process_velocity(s, ctx)
            assert product == pytest.approx(1.0, rel=1e-12)


class TestMlBoundShifted:
    def test_hbar_one_convention_oracle(self):
        # E_mean = 0.5, E0 = 0 with h = 2 pi gives exactly pi
        dt = ml_bound_shifted(0.5, 0.0, HBAR_ONE)
        assert dt.dt == pytest.approx(math.pi, rel=1e-12)

    def test_degenerate_spectrum(self):
        with pytest.raises(DegenerateSpectrum):
            ml_bound_shifted(1.0, 1.0, NATURAL)

    def test_energy_shift_gauge_invariance(self):
        a = ml_bound_shifted(0.9, 0.1, NATURAL).dt
        b = ml_bound_shifted(0.9 + 5.0, 0.1 + 5.0, NATURAL).dt
        assert a == pytest.approx(b, rel=1e-15)


class TestProcessVelocity:
    def test_zero_entropy_zero_velocity(self):
        assert process_velocity(EntropyValue(0.0), NATURAL) == 0.0

    def test_ln2_natural(self):
        assert process_velocity(EntropyValue(LN2), NATURAL) == pytest.approx(2.772589, abs=1e-6)

    def test_linear_in_temperature(self):
        v1 = process_velocity(EntropyValue(LN2), ThermalContext(T=1.0))
        v2 = process_velocity(EntropyValue(LN2), ThermalContext(T=2.0))
        assert v2 == pytest.approx(2 * v1, rel=1e-12)


class TestStateCount:
    def test_zero_time(self):
        assert state_count(EntropyValue(LN2), 0.0, NATURAL) == 0.0

    def test_unit_time(self):
        assert state_count(EntropyValue(LN2), 1.0, NATURAL) == pytest.approx(2.772589, abs=1e-6)

    def test_linear_in_time(self):
        th1 = state_count(EntropyValue(0.4), 1.3, NATURAL)
        th2 = state_count(EntropyValue(0.4), 2.6, NATURAL)
        assert th2 == pytest.approx(2 * th1, rel=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(NegativeTime):
            state_count(EntropyValue(LN2), -0.1, NATURAL)


class TestOrthogonalizationTime:
    def test_two_level_analytic(self):
        # overlap (1 + exp(-it))/2 vanishes first at t = pi; bound attained
        h_op = np.diag([0.0, 1.0]).astype(complex)
        psi0 = StateVector(np.array([1.0, 1.0]) / math.sqrt(2))
        res = orthogonalization_time(eig_hermitian(h_op), psi0, t_max=8.0)
        assert res.t_orth == pytest.approx(math.pi, rel=1e-6)
        assert res.bound == pytest.approx(math.pi, rel=1e-12)
        # sampled trace follows |cos(t/2)| on the grid
        ts = np.linspace(0.0, 8.0, len(res.overlap_trace))
        analytic = np.abs((1 + np.exp(-1j * ts)) / 2)
        assert np.allclose(res.overlap_trace, analytic, atol=1e-10)

    def test_eigenvector_never_orthogonalizes(self):
        h_op = np.diag([0.0, 1.0]).astype(complex)
        res = orthogonalization_time(
            eig_hermitian(h_op), StateVector(np.array([1.0, 0.0])), t_max=50.0
        )
        assert res.t_orth is None
        assert res.bound == math.inf
        assert np.allclose(res.overlap_trace, 1.0)

    def test_found_times_respect_bound(self, rng):
        # random 4-level Hamiltonians, eigenpair superpositions always orthogonalize
        checked = 0
        for _ in range(100):
            h_op = random_hermitian(4, rng)
            w, v = np.linalg.eigh(h_op)
            i, j = sorted(rng.choice(4, size=2, replace=False))
            if w[j] - w[i] < 0.2:
                continue
            psi = (v[:, i] + v[:, j]) / math.sqrt(2)
            res = orthogonalization_time(eig_hermitian(h_op), StateVector(psi), t_max=40.0)
            if res.t_orth is None:
                continue
            checked += 1
            assert res.t_orth >= res.bound - 1e-9
            # independent analytic first zero for a two-eigenvector state
            assert res.t_orth == pytest.approx(math.pi / (w[j] - w[i]), rel=1e-6)
        assert checked >= 60

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            orthogonalization_time(
                eig_hermitian(np.eye(3, dtype=complex)), StateVector(np.array([1.0, 0.0])), 1.0
            )


_golden_min = speed_limits._golden_min  # the unpatched refiner


def reference_orthogonalization(h_op, psi0, t_max, tol=1e-9):
    """The scan before bracket pruning: refine every grid-local minimum.

    Returns (t_orth, bound, refinements).  Kept as the oracle that the
    pruned scan must match bit for bit.
    """
    w, v = np.linalg.eigh(h_op)
    weights = np.abs(v.conj().T @ psi0.amplitudes) ** 2
    e_mean = float(weights @ w)
    e0 = float(w[0])
    gap = e_mean - e0
    bound = math.inf
    if gap > 1e-15 * max(1.0, abs(e0), abs(e_mean)):
        bound = ml_bound_shifted(e_mean, e0, HBAR_ONE).dt
    ts = np.linspace(0.0, t_max, SCAN_GRID_POINTS)
    trace = np.abs((weights[None, :] * np.exp(-1j * np.outer(ts, w))).sum(axis=1))

    def overlap(t):
        return abs(np.sum(weights * np.exp(-1j * w * t)))

    t_orth, refinements = None, 0
    for i in range(1, len(ts) - 1):
        if trace[i] <= trace[i - 1] and trace[i] <= trace[i + 1]:
            refinements += 1
            t_star = _golden_min(overlap, ts[i - 1], ts[i + 1], REFINE_TIME_RESOLUTION)
            if overlap(t_star) <= tol:
                t_orth = t_star
                break
    if t_orth is None and trace[-1] <= tol:
        t_orth = float(ts[-1])
    return t_orth, bound, refinements


def sweep_trial(dim, seed, eigenpair):
    """Hamiltonian and initial state drawn as one ml_bound_sweep trial."""
    rng = rng_for(seed)
    h_op = sweeps.random_hermitian(dim, rng)
    psi = _eigenpair_state(eig_hermitian(h_op), rng) if eigenpair else None
    if psi is None:
        psi = random_state_vector(dim, rng)
    return h_op, StateVector(psi)


class TestScanPruning:
    @given(
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.booleans(),
        st.sampled_from([5.0, 60.0, 200.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_pruned_scan_equals_unpruned_reference(self, dim, seed, eigenpair, t_max):
        h_op, psi0 = sweep_trial(dim, seed, eigenpair)
        res = orthogonalization_time(eig_hermitian(h_op), psi0, t_max=t_max)
        t_ref, bound_ref, _ = reference_orthogonalization(h_op, psi0, t_max)
        assert res.t_orth == t_ref
        assert res.bound == bound_ref

    @pytest.mark.parametrize("dim", [2, 5, 16])
    def test_overlap_is_lipschitz_in_the_energy_spread(self, dim, rng):
        # |A(t) - A(s)| <= L |t - s| with L = sum_k w_k |E_k - E_mean|
        h_op = random_hermitian(dim, rng)
        psi0 = StateVector(random_state_vector(dim, rng))
        w, v = np.linalg.eigh(h_op)
        weights = np.abs(v.conj().T @ psi0.amplitudes) ** 2
        lipschitz = float(weights @ np.abs(w - weights @ w))
        t = rng.uniform(0.0, 60.0, size=500)
        # far pairs, then near pairs where the bound is locally tight
        s = np.concatenate(
            [rng.uniform(0.0, 60.0, size=250), t[250:] + rng.normal(0.0, 1e-3, size=250)]
        )

        def overlap(x):
            return np.abs(np.exp(-1j * np.outer(x, w)) @ weights)

        assert np.all(np.abs(overlap(t) - overlap(s)) <= lipschitz * np.abs(t - s) + 1e-12)

    def test_pruning_refines_far_fewer_brackets(self, monkeypatch):
        # a fixed d = 16 random-state trial with many shallow grid minima
        h_op, psi0 = sweep_trial(16, 0, eigenpair=False)
        t_ref, bound_ref, reference_refinements = reference_orthogonalization(h_op, psi0, 60.0)
        calls = 0

        def counting(*args):
            nonlocal calls
            calls += 1
            return _golden_min(*args)

        monkeypatch.setattr(speed_limits, "_golden_min", counting)
        res = orthogonalization_time(eig_hermitian(h_op), psi0, t_max=60.0)
        assert (res.t_orth, res.bound) == (t_ref, bound_ref)
        assert reference_refinements >= 90
        assert 10 * calls <= reference_refinements


class TestAntiqubitVelocity:
    def test_bell_state_zero(self):
        assert antiqubit_process_velocity(conditional_state(bell_state()), NATURAL) == pytest.approx(0.0, abs=1e-9)

    def test_product_scalar_oracle(self, rng):
        rho_a = np.diag([0.75, 0.25]).astype(complex)
        bi = BipartiteState(
            joint=DensityMatrix(np.kron(rho_a, random_density_mat(2, rng))),
            dim_a=2,
            dim_b=2,
        )
        expected = 4.0 * (entropy_oracle([0.75, 0.25]) - (-math.log(0.75)))
        v = antiqubit_process_velocity(conditional_state(bi), NATURAL)
        assert v == pytest.approx(expected, abs=1e-9)
        assert v == pytest.approx(1.098612, abs=1e-6)

    def test_maximally_mixed_product_zero(self, rng):
        bi = BipartiteState(
            joint=DensityMatrix(np.kron(np.eye(2) / 2, random_density_mat(2, rng))),
            dim_a=2,
            dim_b=2,
        )
        assert antiqubit_process_velocity(conditional_state(bi), NATURAL) == pytest.approx(0.0, abs=1e-9)

    def test_temperature_scaling(self):
        bi = bell_state()
        v1 = antiqubit_process_velocity(conditional_state(bi), ThermalContext(T=2.0))
        assert v1 == pytest.approx(0.0, abs=1e-9)


class TestSweepBudgets:
    def test_total_trial_cap(self, monkeypatch):
        monkeypatch.setattr(sweeps, "MAX_SWEEP_TRIALS", 6)
        assert len(sweeps.ml_bound_sweep([2, 3], 3, 0).trials) == 6
        with pytest.raises(SizeOverflow, match="sweep needs 8 trials, above the cap of 6"):
            sweeps.ml_bound_sweep([2, 3], 4, 0)

    def test_dimension_cap(self, monkeypatch):
        monkeypatch.setattr(sweeps, "MAX_SWEEP_DIM", 3)
        assert len(sweeps.ml_bound_sweep([3, 2], 1, 0).trials) == 2
        with pytest.raises(SizeOverflow, match="sweep dimension 4 is above the cap of 3"):
            sweeps.ml_bound_sweep([2, 4], 1, 0)


class TestMlBoundSweep:
    @given(
        st.lists(st.integers(min_value=2, max_value=8), min_size=1, max_size=4),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_found_time_beats_the_bound(self, dims, trials, seed):
        result = sweeps.ml_bound_sweep(dims, trials, seed)
        assert result.violations == 0
        assert all(t.slack >= -sweeps.SLACK_TOL for t in result.trials if t.slack is not None)

    def test_counts_read_from_trials(self):
        def trial(slack):
            t_orth = None if slack is None else 1.0 + slack
            return sweeps.MlTrial(dim=2, kind="eigenpair", t_orth=t_orth, bound=1.0, slack=slack)

        result = sweeps.MlSweepResult(
            trials=(trial(None), trial(0.25), trial(-2e-9), trial(-0.5e-9), trial(-3e-9))
        )
        assert (result.found, result.violations, result.min_slack) == (4, 2, -3e-9)
        assert sweeps.MlSweepResult(trials=(trial(None),)).min_slack is None
