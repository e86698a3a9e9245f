import math

import numpy as np
import pytest
from scipy.integrate import quad

from chronon_lab import gaussian
from chronon_lab.errors import InvalidState
from chronon_lab.gaussian import (
    bound_classical_velocity,
    bound_process_velocity,
    bound_resolution_velocity,
    max_G,
    max_H,
    partition_entropy_G,
    scaled_function_H,
    tabulate,
)
from chronon_lab.relativity import check_bound_invariance
from chronon_lab.speed_limits import process_velocity

LN2 = math.log(2.0)


def erf_quadrature(x):
    """Independent oracle: adaptive quadrature of the defining integral."""
    val, _ = quad(lambda t: 2.0 / math.sqrt(math.pi) * math.exp(-t * t), 0.0, x,
                  epsabs=1e-15)
    return val


def erf_half_root_bisection():
    """Independent oracle: bisection root of erf(x) = 1/2."""
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if erf_quadrature(mid) < 0.5:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# The partition entropy takes erf from math.erf; these check that function
# against the quadrature oracle the maxima tests rely on.
erf = math.erf


class TestErf:
    def test_zero(self):
        assert erf(0.0) == 0.0

    def test_asymptote(self):
        assert abs(erf(6.0) - 1.0) <= 1e-12

    def test_against_quadrature(self):
        assert erf(0.5) == pytest.approx(erf_quadrature(0.5), abs=1e-12)
        assert erf(0.5) == pytest.approx(0.5204998778, abs=1e-10)

    @pytest.mark.parametrize("x", [0.1, 0.7, 1.3, 2.5])
    def test_odd_function(self, x):
        assert erf(-x) == pytest.approx(-erf(x), abs=1e-15)

    def test_range(self):
        for x in np.linspace(-5, 5, 101):
            assert -1.0 < erf(float(x)) < 1.0 or abs(abs(erf(float(x))) - 1.0) < 1e-10


class TestPartitionEntropy:
    def test_zero_radius(self):
        assert partition_entropy_G(0.0) == 0.0

    def test_half_weight_gives_ln2(self):
        x_half = erf_half_root_bisection()
        assert partition_entropy_G(x_half) == pytest.approx(LN2, abs=1e-10)

    def test_tail_vanishes(self):
        assert partition_entropy_G(6.0) <= 1e-12

    def test_bounded_by_ln2(self):
        for x in np.linspace(0.0, 6.0, 301):
            s = partition_entropy_G(float(x))
            assert 0.0 <= s <= LN2 + 1e-12

    def test_unimodal_on_bracket(self):
        # finite-difference slope changes sign exactly once over a dense grid
        # (differences inside round-off of zero are not sign-relevant)
        xs = np.linspace(0.0, 6.0, 10_000)
        vals = np.array([partition_entropy_G(float(x)) for x in xs])
        diffs = np.diff(vals)
        signs = np.sign(diffs[np.abs(diffs) > 1e-14])
        changes = np.count_nonzero(np.diff(signs) != 0)
        assert changes == 1


class TestScaledFunction:
    def test_zero(self):
        assert scaled_function_H(0.0) == 0.0

    def test_scalar_oracle_at_0p8(self):
        p = erf_quadrature(0.8)
        expected = -(p * math.log(p) + (1 - p) * math.log(1 - p)) * 0.8
        assert scaled_function_H(0.8) == pytest.approx(expected, abs=1e-10)
        assert scaled_function_H(0.8) == pytest.approx(0.4567, abs=1e-4)

    def test_tail_vanishes(self):
        assert scaled_function_H(6.0) <= 1e-10


class TestMaxima:
    def test_max_g_is_ln2(self):
        x_star, value = max_G()
        assert value == pytest.approx(LN2, abs=1e-9)
        assert x_star == pytest.approx(erf_half_root_bisection(), abs=1e-6)
        assert abs(erf(x_star) - 0.5) <= 1e-8

    def test_max_g_local_certificate(self):
        x_star, value = max_G()
        assert partition_entropy_G(x_star - 0.1) < value
        assert partition_entropy_G(x_star + 0.1) < value

    def test_max_h_value(self):
        x_star, value = max_H()
        assert value == pytest.approx(0.4579, abs=5e-4)
        assert x_star == pytest.approx(0.85, abs=0.02)

    def test_max_h_grid_certificate(self):
        x_star, value = max_H()
        grid = np.linspace(0.0, 6.0, 1000)
        assert all(scaled_function_H(float(x)) <= value + 1e-12 for x in grid)

    def test_maxima_searched_once_per_process(self):
        gaussian._argmax.cache_clear()
        first = (max_G(), max_H())
        assert (max_G(), max_H()) == first
        info = gaussian._argmax.cache_info()
        assert (info.misses, info.hits) == (2, 2)
        x_h = gaussian._argmax.__wrapped__(scaled_function_H)
        assert first[1] == (x_h, scaled_function_H(x_h))

    def test_argmax_scale_invariance(self):
        # the R-parameterized objective S(Psi_R) * R peaks at sigma * x_star
        x_star, _ = max_H()
        for sigma in (0.5, 1.0, 2.7):
            radii = np.linspace(1e-4, 6.0 * sigma, 4001)
            vals = [
                partition_entropy_G(float(r) / sigma) * float(r)
                for r in radii
            ]
            r_best = radii[int(np.argmax(vals))]
            assert r_best == pytest.approx(sigma * x_star, rel=2e-3)


class TestTabulate:
    def test_rows_match_the_pointwise_functions(self):
        columns = tabulate(257)
        assert [len(c) for c in columns] == [257, 257, 257]
        rows = list(zip(*(c.tolist() for c in columns)))
        assert rows[0][0] == 0.0 and rows[-1][0] == 6.0
        for x, g, h in rows:
            assert g == partition_entropy_G(x)
            assert h == scaled_function_H(x)

    def test_grid_cap(self, monkeypatch):
        monkeypatch.setattr(gaussian, "MAX_GRID", 16)
        assert len(tabulate(16)[0]) == 16
        with pytest.raises(InvalidState, match="grid of 17 points is above the cap of 16"):
            tabulate(17)


class TestVelocityBounds:
    def test_process_bound_natural(self):
        assert bound_process_velocity() == 4.0 * LN2  # 4 ln 2 kT/h at h = k = T = 1
        assert bound_process_velocity() == pytest.approx(2.772589, abs=1e-6)

    def test_process_bound_composition_identity(self):
        _, g_max = max_G()
        assert bound_process_velocity() == pytest.approx(
            process_velocity(g_max), rel=1e-9
        )

    def test_classical_bound_constant(self):
        v = bound_classical_velocity(1.0)
        assert v == 4.0 * max_H()[1]
        assert v == pytest.approx(1.832, abs=2e-3)

    def test_classical_bound_scales_with_sigma(self):
        v1 = bound_classical_velocity(1.0)
        v3 = bound_classical_velocity(3.0)
        assert v3 == pytest.approx(3 * v1, rel=1e-12)

    def test_resolution_bound(self):
        assert bound_resolution_velocity(1.0) == 1.0
        assert bound_resolution_velocity(0.5) == 2.0
        assert bound_resolution_velocity(0.3) == 1.0 / 0.3

    def test_resolution_bound_monotone(self):
        vals = [bound_resolution_velocity(s) for s in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_resolution_bound_rejects_nonpositive(self):
        with pytest.raises(InvalidState, match="sigma_x0 must be positive"):
            bound_resolution_velocity(0.0)

    def test_packet_validation(self):
        with pytest.raises(InvalidState, match="sigma_k0 must be positive and finite"):
            bound_classical_velocity(-1.0)
        with pytest.raises(InvalidState, match="sigma_k0 must be positive and finite"):
            check_bound_invariance(-1.0, 0.5, -1.0, -1.0)
