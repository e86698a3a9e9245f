import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronon_lab.errors import InvalidState
from chronon_lab.relativity import (
    Boost,
    check_bound_invariance,
    gamma,
    transform_temperature,
)
from chronon_lab.speed_limits import time_quantum


class TestGamma:
    def test_rest_frame(self):
        assert gamma(Boost(0.0)) == 1.0

    def test_three_four_five(self):
        assert gamma(Boost(0.6)) == pytest.approx(1.25, rel=1e-15)

    def test_lightspeed_rejected(self):
        with pytest.raises(InvalidState, match="must be < c = 1.0"):
            Boost(1.0)
        with pytest.raises(InvalidState, match="must be < c = 1.5"):
            Boost(2.0, c=1.5)

    @given(st.floats(min_value=-0.99, max_value=0.99))
    @settings(max_examples=100, deadline=None)
    def test_even_and_at_least_one(self, v):
        g = gamma(Boost(v))
        assert g >= 1.0
        assert g == pytest.approx(gamma(Boost(-v)), rel=1e-14)
        assert g * gamma(Boost(-v)) >= 1.0
        if abs(v) > 1e-6:
            assert g * gamma(Boost(-v)) > 1.0


class TestTransforms:
    def test_temperature_identity_at_rest(self):
        assert transform_temperature(Boost(0.0), -0.5) == 1.0

    def test_temperature_sqrt_convention(self):
        # gamma = 4 with exponent -1/2 halves the temperature
        v = math.sqrt(1.0 - 1.0 / 16.0)
        assert transform_temperature(Boost(v), -0.5) == pytest.approx(0.5, rel=1e-12)

    def test_temperature_planck_convention(self):
        v = math.sqrt(1.0 - 1.0 / 4.0)  # gamma = 2
        assert transform_temperature(Boost(v), -1.0) == pytest.approx(0.5, rel=1e-12)

    def test_entropy_is_identity(self):
        # entropy is frame-invariant: both frames of the check carry one S
        for v in (0.0, 0.6, 0.95):
            rep = check_bound_invariance(1.0, Boost(v))
            assert rep.boosted.S == rep.rest.S

    def test_time_quantum_at_rest(self):
        rep = check_bound_invariance(1.0, Boost(0.0))
        assert rep.boosted.dt_min == pytest.approx(rep.rest.dt_min, rel=1e-15)

    def test_time_quantum_dilation_factor(self):
        # temperature exponent -1: our quantum is gamma times the other frame's
        rep = check_bound_invariance(1.0, Boost(0.6), temp_exponent=-1.0)
        assert rep.rest.dt_min == pytest.approx(1.25 * rep.boosted.dt_min, rel=1e-12)

    def test_time_quantum_substitution_oracle(self):
        # exponent -1/2 at gamma = 4: push T through the quantum formula by hand
        v = math.sqrt(1.0 - 1.0 / 16.0)
        rep = check_bound_invariance(1.0, Boost(v), temp_exponent=-0.5)
        t_bar = 2.0  # T = gamma^-1/2 T_bar with T = 1 and gamma = 4
        assert rep.rest.T == 1.0
        assert rep.boosted.T == pytest.approx(t_bar, rel=1e-12)
        expected = time_quantum(rep.rest.S, t_bar)
        assert rep.boosted.dt_min == pytest.approx(expected, rel=1e-12)
        assert rep.rest.dt_min == pytest.approx(2.0 * rep.boosted.dt_min, rel=1e-12)

    def test_path_independence(self):
        # the rest quantum is gamma^(-e) times the boosted one, which equals
        # the quantum recomputed from the boosted temperature
        for v, exp in ((0.3, -1.0), (0.8, -0.5), (0.95, -2.0)):
            b = Boost(v)
            rep = check_bound_invariance(1.0, b, temp_exponent=exp)
            dt_bar = rep.boosted.dt_min
            assert rep.rest.dt_min == pytest.approx(gamma(b) ** -exp * dt_bar, rel=1e-12)
            recomputed = time_quantum(rep.boosted.S, rep.boosted.T)
            assert dt_bar == pytest.approx(recomputed, rel=1e-12)


class TestBoundInvariance:
    def test_rest_frame_trivial(self):
        rep = check_bound_invariance(1.0, Boost(0.0))
        assert rep.passed
        assert rep.rest.velocity() == pytest.approx(rep.boosted.velocity(), rel=1e-15)

    @pytest.mark.parametrize("v", [0.6, math.sqrt(3) / 2, math.sqrt(1 - 1e-2)])
    def test_certified_pair_invariant(self, v):
        rep = check_bound_invariance(
            1.0, Boost(v),
            length_exponent=-1.0, temp_exponent=-1.0,
        )
        assert rep.rel_diff <= 1e-12
        assert rep.passed
        assert rep.gamma_power == 0.0

    def test_mismatched_pair_reports_gamma_power(self):
        # the text's length convention against the dilation temperature
        # convention leaves a gamma^(1/2) residue
        b = Boost(0.6)
        rep = check_bound_invariance(
            1.0, b,
            length_exponent=-0.5, temp_exponent=-1.0,
        )
        assert rep.gamma_power == pytest.approx(0.5)
        assert not rep.passed
        assert rep.boosted.velocity() / rep.rest.velocity() == pytest.approx(
            rep.gamma ** 0.5, rel=1e-12
        )

    def test_equal_exponent_pairs_always_cancel(self):
        # any pair with equal exponents cancels identically in the ratio
        rep = check_bound_invariance(
            2.0, Boost(0.9),
            length_exponent=-0.5, temp_exponent=-0.5,
        )
        assert rep.gamma_power == 0.0
        assert rep.rel_diff <= 1e-12

    def test_rest_velocity_is_classical_bound(self):
        from chronon_lab.gaussian import bound_classical_velocity

        rep = check_bound_invariance(1.3, Boost(0.5))
        assert rep.rest.velocity() == pytest.approx(
            bound_classical_velocity(1.3), rel=1e-9
        )
