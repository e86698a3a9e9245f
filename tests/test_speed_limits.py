import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chronon_lab import linalg, speed_limits, sweeps
from chronon_lab.entropy import conditional_state
from chronon_lab.errors import InvalidState
from chronon_lab.speed_limits import (
    REFINE_TIME_RESOLUTION,
    SCAN_GRID_POINTS,
    antiqubit_process_velocity,
    ml_bound_shifted,
    orthogonalization_time,
    process_velocity,
    require_entropy,
    require_positive,
    state_count,
    time_quantum,
)
from chronon_lab.states import BipartiteState, DensityMatrix, StateVector
from chronon_lab.sweeps import _eigenpair_state, random_state_vector, rng_for

from conftest import bell_state, entropy_oracle, random_density_mat, random_hermitian

LN2 = math.log(2.0)
_POSITIVE = st.floats(min_value=1e-6, max_value=1e6)


class TestNaturalUnits:
    """h = k = 1 (hbar = 1 in dynamics): each formula is its plain
    expression, bit for bit."""

    @given(_POSITIVE, _POSITIVE)
    @settings(max_examples=200, deadline=None)
    def test_time_quantum_is_one_over_4TS(self, s, temp):
        assert time_quantum(s, temp) == 1.0 / (4.0 * temp * s)

    @given(_POSITIVE)
    @settings(max_examples=100, deadline=None)
    def test_velocity_is_4S(self, s):
        assert process_velocity(s) == 4.0 * s
        assert state_count(s, 3.0) == 4.0 * s * 3.0

    @pytest.mark.parametrize("temp", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_temperature(self, temp):
        with pytest.raises(InvalidState, match="T must be positive and finite, got"):
            require_positive("T", temp)
        with pytest.raises(InvalidState, match="T must be positive and finite, got"):
            time_quantum(LN2, temp)

    @pytest.mark.parametrize("s, temp, dt", [(1e-300, 1e-300, "inf"), (1e300, 1e300, "0.0")])
    def test_quantum_out_of_range_rejected(self, s, temp, dt):
        # 4 T S underflows to 0 (1/0 is inf) or overflows to inf (1/inf is 0)
        with pytest.raises(InvalidState, match=f"quantum must be positive and finite, got {dt}"):
            time_quantum(s, temp)


class TestRequireEntropy:
    @pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, s):
        with pytest.raises(InvalidState) as info:
            require_entropy(s)
        assert str(info.value) == f"entropy must be finite, got {s}"

    def test_allows_negative(self):
        # a generalized conditional entropy may be negative
        assert require_entropy(-LN2) == -LN2


class TestTimeQuantum:
    def test_ln2_natural(self):
        dt = time_quantum(LN2, 1.0)
        assert dt == pytest.approx(1.0 / (4 * LN2), rel=1e-12)
        assert dt == pytest.approx(0.360674, abs=1e-6)

    def test_zero_entropy_signals_no_flow(self):
        with pytest.raises(InvalidState, match="time quantum undefined for entropy 0.0"):
            time_quantum(0.0, 1.0)

    def test_inverse_of_velocity(self, rng):
        for _ in range(20):
            s = float(rng.random()) + 0.05
            product = time_quantum(s, 1.0) * process_velocity(s)
            assert product == pytest.approx(1.0, rel=1e-12)


class TestMlBoundShifted:
    def test_hbar_one_convention_oracle(self):
        # E_mean = 0.5, E0 = 0 with h = 2 pi gives exactly pi
        assert ml_bound_shifted(0.5, 0.0) == math.pi

    def test_degenerate_spectrum(self, monkeypatch):
        # E_mean = E0: the one caller reports the bound inf and never calls
        # ml_bound_shifted, which trusts E_mean > E0
        monkeypatch.setattr(speed_limits, "ml_bound_shifted", None)
        psi0 = np.array([1.0, 1.0]) / math.sqrt(2)
        res = orthogonalization_time(linalg.eigh(np.eye(2, dtype=complex)), psi0, t_max=1.0)
        assert res.bound == math.inf

    def test_energy_shift_gauge_invariance(self):
        a = ml_bound_shifted(0.9, 0.1)
        b = ml_bound_shifted(0.9 + 5.0, 0.1 + 5.0)
        assert a == pytest.approx(b, rel=1e-15)


class TestProcessVelocity:
    def test_zero_entropy_zero_velocity(self):
        assert process_velocity(0.0) == 0.0

    def test_ln2_natural(self):
        assert process_velocity(LN2) == pytest.approx(2.772589, abs=1e-6)

    @pytest.mark.parametrize("s, message", [
        (-1.0, "entropy must be >= 0, got -1.0"),
        (-5e-324, "entropy must be >= 0, got -5e-324"),
        (math.inf, "entropy must be finite, got inf"),
        (-math.inf, "entropy must be finite, got -inf"),
        (math.nan, "entropy must be finite, got nan"),
    ])
    def test_rejects_bad_entropy(self, s, message):
        with pytest.raises(InvalidState) as info:
            process_velocity(s)
        assert str(info.value) == message


class TestStateCount:
    def test_zero_time(self):
        assert state_count(LN2, 0.0) == 0.0

    def test_unit_time(self):
        assert state_count(LN2, 1.0) == pytest.approx(2.772589, abs=1e-6)

    def test_linear_in_time(self):
        th1 = state_count(0.4, 1.3)
        th2 = state_count(0.4, 2.6)
        assert th2 == pytest.approx(2 * th1, rel=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidState, match="t must be >= 0"):
            state_count(LN2, -0.1)

    def test_entropy_checked_before_time(self):
        with pytest.raises(InvalidState, match="^entropy must be finite, got inf$"):
            state_count(math.inf, -0.1)
        with pytest.raises(InvalidState, match="^entropy must be >= 0, got -1.0$"):
            state_count(-1.0, -0.1)


class TestOrthogonalizationTime:
    def test_two_level_analytic(self):
        # overlap (1 + exp(-it))/2 vanishes first at t = pi; bound attained
        h_op = np.diag([0.0, 1.0]).astype(complex)
        psi0 = StateVector(np.array([1.0, 1.0]) / math.sqrt(2))
        res = orthogonalization_time(linalg.eigh(h_op), psi0.amplitudes, t_max=8.0)
        assert res.t_orth == pytest.approx(math.pi, rel=1e-6)
        assert res.bound == pytest.approx(math.pi, rel=1e-12)

    def test_eigenvector_never_orthogonalizes(self):
        h_op = np.diag([0.0, 1.0]).astype(complex)
        res = orthogonalization_time(
            linalg.eigh(h_op), StateVector(np.array([1.0, 0.0])).amplitudes, t_max=50.0
        )
        assert res.t_orth is None
        assert res.bound == math.inf

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
            res = orthogonalization_time(linalg.eigh(h_op), StateVector(psi).amplitudes, t_max=40.0)
            if res.t_orth is None:
                continue
            checked += 1
            assert res.t_orth >= res.bound - 1e-9
            # independent analytic first zero for a two-eigenvector state
            assert res.t_orth == pytest.approx(math.pi / (w[j] - w[i]), rel=1e-6)
        assert checked >= 60


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
        bound = ml_bound_shifted(e_mean, e0)
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
    psi = _eigenpair_state(linalg.eigh(h_op), rng) if eigenpair else None
    if psi is None:
        psi = random_state_vector(dim, rng)
    return h_op, StateVector(psi)


def assert_matches_reference(h_op, psi0, t_max):
    """The scan's (t_orth, bound) equal the unpruned reference's, bit for bit."""
    res = orthogonalization_time(linalg.eigh(h_op), psi0.amplitudes, t_max=t_max)
    t_ref, bound_ref, _ = reference_orthogonalization(h_op, psi0, t_max)
    assert res.t_orth == t_ref
    assert res.bound == bound_ref
    return res


def two_level(gap):
    """H = diag(0, gap) and the equal superposition, with |a(t)| = |cos(gap t / 2)|."""
    return np.diag([0.0, gap]).astype(complex), StateVector(np.array([1.0, 1.0]) / math.sqrt(2))


class TestScanPruning:
    @given(
        st.integers(min_value=2, max_value=sweeps.MAX_SWEEP_DIM),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.booleans(),
        st.sampled_from([0.5, 5.0, 60.0, 200.0, 1000.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_pruned_scan_equals_unpruned_reference(self, dim, seed, eigenpair, t_max):
        assert_matches_reference(*sweep_trial(dim, seed, eigenpair), t_max)

    @pytest.mark.parametrize("t_max", [0.5, 5.0, 60.0, 1000.0])
    def test_zero_at_t_max_found_by_the_last_row(self, t_max):
        # the overlap falls to zero only at t_max itself: no interior minimum
        res = assert_matches_reference(*two_level(math.pi / t_max), t_max)
        assert res.t_orth == t_max

    @pytest.mark.parametrize("dim", [2, 16])
    def test_eigenstate_never_orthogonalizes(self, dim, rng):
        # M2 = 0 and a zero slope: every block's bound is |a| = 1
        h_op = random_hermitian(dim, rng)
        psi0 = StateVector(np.linalg.eigh(h_op)[1][:, dim // 2])
        assert assert_matches_reference(h_op, psi0, 60.0).t_orth is None

    @pytest.mark.parametrize("offset", [0.0, 0.5, -0.5, 1.0])
    def test_zero_on_a_block_boundary(self, offset):
        # the first zero sits offset grid steps after grid row 37 * 64, where
        # row 37 of the 64 x 64 phase table starts
        t_max = 60.0
        step = t_max / (SCAN_GRID_POINTS - 1)
        t_zero = (37 * 64 + offset) * step
        res = assert_matches_reference(*two_level(math.pi / t_zero), t_max)
        assert res.t_orth == pytest.approx(t_zero, rel=1e-9)

    @pytest.mark.parametrize("t_max", [5.0, 60.0, 200.0])
    def test_degenerate_energies(self, t_max, rng):
        # E = 0, 0, 1, 1, 2 in a random basis; the equal superposition of
        # both degenerate pairs has |a(t)| = |cos(t / 2)|, first zero at pi
        q, _ = np.linalg.qr(random_hermitian(5, rng) + 1j * np.eye(5))
        h_op = q @ np.diag([0.0, 0.0, 1.0, 1.0, 2.0]) @ q.conj().T
        psi0 = StateVector(q[:, :4].sum(axis=1) / 2.0)
        res = assert_matches_reference(h_op, psi0, t_max)
        assert res.t_orth == pytest.approx(math.pi, rel=1e-6)
        # the same spectrum from a random state
        assert_matches_reference(h_op, StateVector(random_state_vector(5, rng)), t_max)

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
        res = orthogonalization_time(linalg.eigh(h_op), psi0.amplitudes, t_max=60.0)
        assert (res.t_orth, res.bound) == (t_ref, bound_ref)
        assert reference_refinements >= 90
        assert 10 * calls <= reference_refinements

    def test_coarse_pass_leaves_most_rows_unevaluated(self, monkeypatch):
        # the same trial: rows whose phase-table bound stays above the
        # threshold are never evaluated
        h_op, psi0 = sweep_trial(16, 0, eigenpair=False)
        t_ref, bound_ref, _ = reference_orthogonalization(h_op, psi0, 60.0)
        overlap_rows = speed_limits._overlap_rows
        rows = 0

        def counting(weights, energies, ts):
            nonlocal rows
            rows += len(ts)
            return overlap_rows(weights, energies, ts)

        monkeypatch.setattr(speed_limits, "_overlap_rows", counting)
        res = orthogonalization_time(linalg.eigh(h_op), psi0.amplitudes, t_max=60.0)
        assert (res.t_orth, res.bound) == (t_ref, bound_ref)
        assert 0 < rows < SCAN_GRID_POINTS / 4


def degenerate_trial(dim, rng):
    """A Hamiltonian whose energies come in equal pairs (all equal at d = 2)
    in a random basis, and a random state."""
    q, _ = np.linalg.qr(random_hermitian(dim, rng) + 1j * np.eye(dim))
    energies = np.repeat(rng.normal(size=(dim + 1) // 2), 2)[:dim]
    h_op = q @ np.diag(energies) @ q.conj().T
    return h_op, StateVector(random_state_vector(dim, rng))


class TestRowBound:
    """The row floor from the two phase tables is a lower bound on the
    computed overlap at every grid row."""

    @pytest.mark.parametrize("kind", ["random", "eigenpair", "degenerate"])
    @pytest.mark.parametrize("t_max", [0.5, 60.0, 1000.0])
    @pytest.mark.parametrize("dim", [2, 16, 64])
    def test_row_floor_is_a_lower_bound(self, dim, t_max, kind, rng):
        if kind == "degenerate":
            h_op, psi0 = degenerate_trial(dim, rng)
        else:
            h_op, psi0 = sweep_trial(dim, int(rng.integers(2**32)), kind == "eigenpair")
        energies, vectors = linalg.eigh(h_op)
        weights = np.abs(vectors.conj().T @ psi0.amplitudes) ** 2
        ts = speed_limits._scan_grid(t_max)
        terms = speed_limits._terms(weights, energies, float(weights @ energies), t_max)

        # the tables' value at row 64 p + q against a direct sum at
        # ts[64 p] + ts[q], within the rounding the floor takes off for it
        floors = speed_limits._row_floors(terms, weights, energies, ts)
        margin = 2.0 * terms.rounding + terms.lipschitz * 16 * np.finfo(float).eps * t_max
        table_times = (ts[::64, None] + ts[None, :64]).ravel()
        direct = np.abs(np.exp(-1j * np.outer(table_times, energies)) @ weights)
        assert np.all(np.abs(floors + margin - direct) <= terms.rounding)

        # each row's floor lies at or below the computed row
        rows = speed_limits._overlap_rows(weights, energies, ts)
        assert len(floors) == SCAN_GRID_POINTS
        assert np.all(floors <= rows)


_DIMS = st.integers(min_value=2, max_value=16)
_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


class TestAnalyticOracles:
    """Closed forms and bounds every scan result must meet (hbar = 1)."""

    @given(_DIMS, _SEEDS)
    @settings(max_examples=100, deadline=None)
    def test_eigenpair_time_is_pi_over_the_gap(self, dim, seed):
        # |<psi0|psi(t)>| = |cos((E_j - E_i) t / 2)| first vanishes at pi/(E_j - E_i)
        rng = rng_for(seed)
        w, v = linalg.eigh(sweeps.random_hermitian(dim, rng))
        psi = _eigenpair_state((w, v), rng)
        assume(psi is not None)
        i, j = sorted(np.argsort(np.abs(v.conj().T @ psi) ** 2)[-2:])
        res = orthogonalization_time((w, v), StateVector(psi).amplitudes, t_max=60.0)
        assert res.t_orth == pytest.approx(math.pi / (w[j] - w[i]), rel=1e-9)

    @given(_DIMS, _SEEDS, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_found_times_meet_mandelstam_tamm(self, dim, seed, eigenpair):
        # a found time is orthogonal to tolerance, and no earlier than
        # arccos|a(t)| / dE with dE the energy spread (Mandelstam-Tamm)
        h_op, psi0 = sweep_trial(dim, seed, eigenpair)
        w, v = linalg.eigh(h_op)
        res = orthogonalization_time((w, v), psi0.amplitudes, t_max=60.0)
        if res.t_orth is not None:
            weights = np.abs(v.conj().T @ psi0.amplitudes) ** 2
            spread = math.sqrt(weights @ (w - weights @ w) ** 2)
            overlap = abs(np.sum(weights * np.exp(-1j * w * res.t_orth)))
            assert overlap <= speed_limits.ORTHOGONALITY_TOL
            assert res.t_orth >= math.acos(overlap) / spread - sweeps.SLACK_TOL


class TestAntiqubitVelocity:
    def test_bell_state_zero(self):
        assert antiqubit_process_velocity(conditional_state(bell_state())) == pytest.approx(0.0, abs=1e-9)

    def test_product_scalar_oracle(self, rng):
        rho_a = np.diag([0.75, 0.25]).astype(complex)
        bi = BipartiteState(
            joint=DensityMatrix(np.kron(rho_a, random_density_mat(2, rng))),
            dim_a=2,
            dim_b=2,
        )
        expected = 4.0 * (entropy_oracle([0.75, 0.25]) - (-math.log(0.75)))
        v = antiqubit_process_velocity(conditional_state(bi))
        assert v == pytest.approx(expected, abs=1e-9)
        assert v == pytest.approx(1.098612, abs=1e-6)

    def test_maximally_mixed_product_zero(self, rng):
        bi = BipartiteState(
            joint=DensityMatrix(np.kron(np.eye(2) / 2, random_density_mat(2, rng))),
            dim_a=2,
            dim_b=2,
        )
        assert antiqubit_process_velocity(conditional_state(bi)) == pytest.approx(0.0, abs=1e-9)


class TestSweepBudgets:
    def test_total_trial_cap(self, monkeypatch):
        monkeypatch.setattr(sweeps, "MAX_SWEEP_TRIALS", 6)
        assert len(sweeps.ml_bound_sweep([2, 3], 3, 0).trials) == 6
        with pytest.raises(InvalidState, match="sweep needs 8 trials, above the cap of 6"):
            sweeps.ml_bound_sweep([2, 3], 4, 0)

    def test_dimension_cap(self, monkeypatch):
        monkeypatch.setattr(sweeps, "MAX_SWEEP_DIM", 3)
        assert len(sweeps.ml_bound_sweep([3, 2], 1, 0).trials) == 2
        with pytest.raises(InvalidState, match="sweep dimension 4 is above the cap of 3"):
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
        assert all(slack >= -sweeps.SLACK_TOL for _, slack in result.trials if slack is not None)

    def test_counts_read_from_trials(self):
        def trial(slack):
            t_orth = None if slack is None else 1.0 + slack
            return t_orth, slack

        result = sweeps.MlSweepResult(
            trials=(trial(None), trial(0.25), trial(-2e-9), trial(-0.5e-9), trial(-3e-9))
        )
        assert (result.found, result.violations, result.min_slack) == (4, 2, -3e-9)
        assert sweeps.MlSweepResult(trials=(trial(None),)).min_slack is None
