import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronon_lab import flow as flow_mod
from chronon_lab.errors import InvalidState
from chronon_lab.flow import (
    SystemSpec,
    clock_ratio,
    dilation_from_conditioning,
    simulate_flow,
    simultaneity_offset,
)
from chronon_lab.serialization import load_flow_config
from chronon_lab.speed_limits import time_quantum
from chronon_lab.states import ClassicalQuantumState, DensityMatrix

from conftest import entropy_oracle

LN2 = math.log(2.0)
FLOW_ENTROPIES = (0.31, LN2, 2 * LN2, 1.3)


def reference_ticks(systems, temp, horizon):
    """Per-tick loop: one (time, quantum, id) row per n with n * dt <= horizon,
    sorted by (time, id)."""
    ticks = []
    for spec in systems:
        if spec.entropy <= 0.0:
            continue
        dt = time_quantum(spec.entropy, temp)
        for n in range(1, math.floor(horizon / dt) + 1):
            t = n * dt
            if t <= horizon:
                ticks.append((t, dt, spec.id))
    ticks.sort(key=lambda tick: (tick[0], tick[2]))
    return tuple(ticks)


def tick_rows(flow):
    """The flow's columns as (time, quantum, id) rows, Python floats."""
    assert flow.ticks.dtype == np.float64 and flow.ticks.shape == flow.system.shape
    return tuple(
        (t, flow.systems[i][1], flow.systems[i][0])
        for t, i in zip(flow.ticks.tolist(), flow.system.tolist())
    )


@st.composite
def flow_cases(draw):
    """1-5 systems with repeating ids and equal quanta, a temperature, and
    a horizon from below one tick to about 2000 ticks of one system's
    quantum, either on a tick time or between two."""
    alphabet = draw(st.sampled_from(("ab", "abc")))
    systems = draw(st.lists(
        st.builds(
            SystemSpec,
            st.sampled_from(alphabet),
            st.sampled_from(FLOW_ENTROPIES),
        ),
        min_size=1,
        max_size=5,
    ))
    temp = draw(st.sampled_from((1.0, 2.0, 0.37)))
    dt = time_quantum(draw(st.sampled_from(systems)).entropy, temp)
    n = draw(st.integers(min_value=0, max_value=2000))
    if n > 0 and draw(st.booleans()):
        horizon = n * dt
    else:
        horizon = (n + draw(st.floats(min_value=0.01, max_value=0.99))) * dt
    return systems, temp, horizon


class TestSimulateFlow:
    def test_single_system_arithmetic_oracle(self):
        flow = simulate_flow([SystemSpec("s", LN2)], 1.0, horizon=1.1)
        dt = 1.0 / (4.0 * LN2)
        times = flow.ticks.tolist()
        assert times == pytest.approx([dt, 2 * dt, 3 * dt], rel=1e-12)
        assert times == pytest.approx([0.360674, 0.721348, 1.082022], abs=1e-6)
        assert flow.systems == (("s", dt),)
        assert flow.system.tolist() == [0, 0, 0]

    def test_inactive_system_contributes_nothing(self):
        flow = simulate_flow(
            [SystemSpec("on", LN2), SystemSpec("off", 0.0)],
            1.0,
            horizon=1.0,
        )
        assert [sid for sid, _ in flow.systems] == ["on"]
        assert len(flow.ticks) == 2 and set(flow.system.tolist()) == {0}

    def test_all_inactive_rejected(self):
        with pytest.raises(InvalidState, match="no system has positive entropy"):
            simulate_flow([SystemSpec("off", 0.0)], 1.0, horizon=1.0)

    def test_identical_systems_tie_broken_by_id(self):
        flow = simulate_flow(
            [SystemSpec("b", LN2), SystemSpec("a", LN2)],
            1.0,
            horizon=0.8,
        )
        ids = [flow.systems[i][0] for i in flow.system.tolist()]
        assert ids == ["a", "b", "a", "b"]
        assert flow.ticks[0] == flow.ticks[1]

    def test_shared_id_keeps_config_order(self):
        # "a" at S = 1 and at S = 2 tick together at t = 0.25 (0.25 and
        # 2 * 0.125 are exact); the config order decides, as in list.sort
        flow = simulate_flow(
            [SystemSpec("b", 1.0), SystemSpec("a", 1.0),
             SystemSpec("a", 2.0)],
            1.0,
            horizon=0.25,
        )
        assert tick_rows(flow) == ((0.125, 0.125, "a"), (0.25, 0.25, "a"),
                                   (0.25, 0.125, "a"), (0.25, 0.25, "b"))

    def test_tick_times_exact_multiples(self):
        # bitwise equality: n * dt, no accumulated drift
        spec = SystemSpec("s", 0.31)
        flow = simulate_flow([spec], 1.0, horizon=50.0)
        dt = time_quantum(spec.entropy, 1.0)
        for n, t in enumerate(flow.ticks.tolist(), start=1):
            assert t == n * dt

    def test_consecutive_gaps_equal_quantum(self):
        spec = SystemSpec("s", 1.3)
        flow = simulate_flow([spec], 1.0, horizon=20.0)
        dt = time_quantum(spec.entropy, 1.0)
        assert np.allclose(np.diff(flow.ticks), dt, rtol=1e-12)

    def test_merged_ordering(self):
        flow = simulate_flow(
            [SystemSpec("fast", 2 * LN2), SystemSpec("slow", LN2)],
            1.0,
            horizon=2.0,
        )
        times = flow.ticks.tolist()
        assert times == sorted(times)

    def test_tick_budget_counts_every_system(self, monkeypatch):
        # floor(1.1 / dt) = 3 ticks per system at S = ln 2: 6 in all
        systems = [SystemSpec("a", LN2), SystemSpec("b", LN2)]
        monkeypatch.setattr(flow_mod, "MAX_TICKS", 6)
        assert len(simulate_flow(systems, 1.0, horizon=1.1).ticks) == 6
        monkeypatch.setattr(flow_mod, "MAX_TICKS", 5)
        with pytest.raises(InvalidState, match="needs 6 ticks"):
            simulate_flow(systems, 1.0, horizon=1.1)

    @given(flow_cases())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_per_tick_loop(self, case):
        systems, temp, horizon = case
        flow = simulate_flow(systems, temp, horizon)
        assert tick_rows(flow) == reference_ticks(systems, temp, horizon)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.inf, math.nan])
    def test_horizon_must_be_positive_and_finite(self, horizon, tmp_path):
        # checked where the config is decoded; simulate_flow trusts it
        path = tmp_path / "flow.json"
        path.write_text(json.dumps({"systems": [{"id": "s", "entropyNats": LN2}],
                                    "horizon": horizon}))
        with pytest.raises(InvalidState, match="horizon must be positive and finite"):
            load_flow_config(str(path))


class TestSystemSpec:
    @pytest.mark.parametrize("sid, s, message", [
        ("a", math.inf, "entropy must be finite, got inf"),
        ("a", math.nan, "entropy must be finite, got nan"),
        # the entropy is checked before the id
        (None, math.inf, "entropy must be finite, got inf"),
        ("x,y", -math.inf, "entropy must be finite, got -inf"),
        ("x,y", -1.0, "system id 'x,y' holds a comma, quote, CR or LF"),
        ("a", -1.0, "system 'a': per-measurement entropy must be >= 0"),
    ])
    def test_checks_in_order(self, sid, s, message):
        with pytest.raises(InvalidState) as info:
            SystemSpec(sid, s)
        assert str(info.value) == message


class TestClockRatio:
    def test_equal_entropies(self):
        s = SystemSpec("a", 0.4)
        assert clock_ratio(s, SystemSpec("b", 0.4)) == pytest.approx(1.0)

    def test_inverse_proportionality(self):
        s1 = SystemSpec("a", LN2)
        s2 = SystemSpec("b", 2 * LN2)
        assert clock_ratio(s1, s2) == pytest.approx(2.0, rel=1e-12)

    def test_context_independent(self):
        # the ratio is a pure entropy ratio; temperature cancels
        s1 = SystemSpec("a", 0.9)
        s2 = SystemSpec("b", 0.3)
        r = clock_ratio(s1, s2)
        for temp in (1.0, 2.0, 300.0):
            dt1 = time_quantum(s1.entropy, temp)
            dt2 = time_quantum(s2.entropy, temp)
            assert dt1 / dt2 == pytest.approx(r, rel=1e-12)

    @given(st.floats(min_value=0.01, max_value=5.0), st.floats(min_value=0.01, max_value=5.0))
    @settings(max_examples=100, deadline=None)
    def test_reciprocal_pairs(self, a, b):
        s1, s2 = SystemSpec("a", a), SystemSpec("b", b)
        assert clock_ratio(s1, s2) * clock_ratio(s2, s1) == pytest.approx(1.0, abs=1e-12)

    def test_zero_entropy_rejected(self):
        with pytest.raises(InvalidState, match="clock ratio requires both entropies > 0"):
            clock_ratio(SystemSpec("a", 0.0), SystemSpec("b", 1.0))


class TestDilation:
    def test_identical_branches_equal_quanta(self, rng):
        from conftest import random_density

        rho = random_density(2, rng)
        cq = ClassicalQuantumState(((0.5, rho), (0.5, rho)))
        dt_cond, dt_marg = dilation_from_conditioning(cq, 1.0)
        assert dt_cond == pytest.approx(dt_marg, rel=1e-12)

    def test_orthogonal_pure_branches_stop_conditional_flow(self):
        cq = ClassicalQuantumState(
            ((0.5, DensityMatrix(np.diag([1.0, 0.0]).astype(complex))),
             (0.5, DensityMatrix(np.diag([0.0, 1.0]).astype(complex))))
        )
        with pytest.raises(InvalidState, match="time quantum undefined for entropy 0.0"):
            dilation_from_conditioning(cq, 1.0)
        # the marginal flow alone would still tick at 1/(4 ln 2)
        from chronon_lab.entropy import von_neumann

        dt_marg = time_quantum(von_neumann(cq.mixture()), 1.0)
        assert dt_marg == pytest.approx(1.0 / (4 * LN2), rel=1e-12)

    def test_half_mixed_branch_oracle(self):
        cq = ClassicalQuantumState(
            ((0.5, DensityMatrix(np.diag([1.0, 0.0]).astype(complex))),
             (0.5, DensityMatrix(np.eye(2, dtype=complex) / 2)))
        )
        dt_cond, dt_marg = dilation_from_conditioning(cq, 1.0)
        assert dt_cond == pytest.approx(1.0 / (4 * 0.5 * LN2), rel=1e-12)
        assert dt_cond == pytest.approx(0.721348, abs=1e-6)
        # mixture is diag(0.75, 0.25); its entropy from scalar arithmetic
        expected_marg = 1.0 / (4.0 * entropy_oracle([0.75, 0.25]))
        assert dt_marg == pytest.approx(expected_marg, rel=1e-12)
        assert dt_cond >= dt_marg

    @given(
        st.integers(min_value=2, max_value=4),
        st.lists(st.booleans(), min_size=1, max_size=5),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_conditioning_never_shortens_the_quantum(self, dim, pure, seed):
        # cq_conditional <= S(mixture), so dt_conditional >= dt_marginal;
        # pure[i] makes branch i pure
        from chronon_lab.entropy import cq_conditional, von_neumann
        from conftest import random_density

        rng = np.random.default_rng(seed)
        weights = rng.random(len(pure)) + 0.05
        cq = ClassicalQuantumState(tuple(
            (float(w), random_density(dim, rng, pure=p))
            for w, p in zip(weights / weights.sum(), pure)
        ))
        s_cond = cq_conditional(cq)
        assert s_cond <= von_neumann(cq.mixture()) + 1e-12
        if not all(pure):  # all-pure branches stop the conditional flow
            dt_cond, dt_marg = dilation_from_conditioning(cq, 1.0)
            assert dt_cond >= dt_marg * (1 - 1e-12)

    def test_conditioning_never_speeds_the_clock(self, rng):
        from conftest import random_cq

        for _ in range(50):
            cq = random_cq(rng)
            dt_cond, dt_marg = dilation_from_conditioning(cq, 1.0)
            assert dt_cond >= dt_marg - 1e-12


class TestSimultaneity:
    def test_equal_counts(self):
        assert simultaneity_offset(3.0, 3.0, 2.0) == 0.0

    def test_division_oracle(self):
        v_max = 4.0 * LN2  # process velocity at S = ln 2 in natural units
        assert simultaneity_offset(0.0, 10.0, v_max) == pytest.approx(10.0 / v_max, rel=1e-12)
        assert simultaneity_offset(0.0, 10.0, 2.772589) == pytest.approx(3.606738, abs=1e-5)

    @given(
        st.floats(min_value=-50, max_value=50),
        st.floats(min_value=-50, max_value=50),
        st.floats(min_value=0.01, max_value=100),
    )
    @settings(max_examples=100, deadline=None)
    def test_antisymmetric(self, t1, t2, v):
        assert simultaneity_offset(t1, t2, v) == -simultaneity_offset(t2, t1, v)

    def test_nonpositive_velocity_rejected(self):
        with pytest.raises(InvalidState, match="v_max must be positive"):
            simultaneity_offset(0.0, 1.0, 0.0)
