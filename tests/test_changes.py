"""The seven change regimes, checked against hand-computed values."""

import math

import numpy as np
import pytest

from dynopt.gdbg.changes import (
    CHAOS_A,
    DIM_MAX,
    DIM_MIN,
    LARGE_STEP_ALPHA_MAX,
    RECURRENT_PERIOD,
    SMALL_STEP_ALPHA,
    ChangeType,
    DimensionWalk,
    DynamicParam,
    change_param,
    clamp,
)

from conftest import FakeRng


def height_param(value=50.0, phase=0.0):
    return DynamicParam(value=value, min=10.0, max=100.0, severity=5.0, phase=phase)


class TestChangeType:
    def test_labels_roundtrip(self):
        for label in ("T1", "T2", "T3", "T4", "T5", "T6", "T7"):
            assert ChangeType.from_label(label).value == label

    def test_lowercase_accepted(self):
        assert ChangeType.from_label(" t3 ") is ChangeType.RANDOM

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            ChangeType.from_label("T9")


class TestDynamicParam:
    def test_initial_value_clamped(self):
        assert DynamicParam(500.0, 10.0, 100.0, 1.0).value == 100.0
        assert DynamicParam(-3.0, 10.0, 100.0, 1.0).value == 10.0

    def test_range(self):
        assert height_param().range == 90.0

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            DynamicParam(5.0, 10.0, 10.0, 1.0)


BOUNDS = [(10.0, 100.0), (1.0, 10.0), (-math.pi, math.pi), (0.0, 1.0), (-1.0, 0.0)]


def clamp_cases():
    for lo, hi in BOUNDS:
        for value in (lo - 7.5, lo, (lo + hi) / 2.0, hi, hi + 7.5,
                      math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf),
                      -0.0, 0.0, math.inf, -math.inf, math.nan):
            yield value, lo, hi


class TestClamp:
    def test_equals_numpy_clip_bit_for_bit(self):
        for value, lo, hi in clamp_cases():
            expected = float(np.clip(value, lo, hi))
            got = clamp(value, lo, hi)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(expected).tobytes(), (
                value, lo, hi)

    def test_nan_stays_nan(self):
        assert math.isnan(clamp(math.nan, 10.0, 100.0))
        assert math.isnan(DynamicParam(math.nan, 10.0, 100.0, 1.0).value)

    def test_integer_inputs_give_a_float(self):
        assert type(DynamicParam(5, 10, 100, 1.0).value) is float
        assert DynamicParam(5, 10, 100, 1.0).value == 10.0

    def test_change_param_clamps_at_both_bounds(self):
        p = height_param(99.0)
        change_param(p, ChangeType.SMALL_STEP, FakeRng(uniform=[1.0]))
        assert p.value == 100.0
        p = height_param(11.0)
        change_param(p, ChangeType.SMALL_STEP, FakeRng(uniform=[-1.0]))
        assert p.value == 10.0


class TestSmallStep:
    def test_hand_value(self):
        # delta = 0.04 * 90 * 0.1 * 5 = 1.8
        p = height_param()
        change_param(p, ChangeType.SMALL_STEP, FakeRng(uniform=[0.1]))
        assert abs(p.value - 51.8) < 1e-12

    def test_negative_draw_moves_down(self):
        p = height_param()
        change_param(p, ChangeType.SMALL_STEP, FakeRng(uniform=[-1.0]))
        assert abs(p.value - (50.0 - 18.0)) < 1e-12

    def test_step_bounded_by_alpha(self):
        rng = np.random.default_rng(7)
        limit = SMALL_STEP_ALPHA * 90.0 * 5.0
        for _ in range(400):
            p = height_param()
            change_param(p, ChangeType.SMALL_STEP, rng)
            assert abs(p.value - 50.0) <= limit + 1e-12

    def test_stays_in_range(self):
        rng = np.random.default_rng(11)
        p = height_param()
        for _ in range(1000):
            change_param(p, ChangeType.SMALL_STEP, rng)
            assert 10.0 <= p.value <= 100.0


class TestLargeStep:
    def test_hand_value_positive(self):
        # step = 0.04 + 0.06 * 0.5 = 0.07; delta = 90 * 0.07 * 5 = 31.5
        p = height_param()
        change_param(p, ChangeType.LARGE_STEP, FakeRng(uniform=[0.5]))
        assert abs(p.value - 81.5) < 1e-9

    def test_hand_value_negative(self):
        p = height_param()
        change_param(p, ChangeType.LARGE_STEP, FakeRng(uniform=[-0.5]))
        assert abs(p.value - 18.5) < 1e-9

    def test_sign_term_creates_minimum_jump(self):
        # even a tiny draw jumps by at least the alpha * span * severity floor
        p = height_param()
        change_param(p, ChangeType.LARGE_STEP, FakeRng(uniform=[1e-12]))
        assert p.value - 50.0 > SMALL_STEP_ALPHA * 90.0 * 5.0 * 0.999

    def test_step_bounded_by_alpha_max(self):
        rng = np.random.default_rng(13)
        limit = LARGE_STEP_ALPHA_MAX * 90.0 * 5.0
        for _ in range(400):
            p = height_param()
            change_param(p, ChangeType.LARGE_STEP, rng)
            assert abs(p.value - 50.0) <= limit + 1e-12


class TestRandom:
    def test_hand_value(self):
        p = height_param()
        change_param(p, ChangeType.RANDOM, FakeRng(standard_normal=[0.4]))
        assert abs(p.value - 52.0) < 1e-12

    def test_t7_shares_value_dynamics(self):
        p1, p2 = height_param(), height_param()
        change_param(p1, ChangeType.RANDOM, FakeRng(standard_normal=[-1.25]))
        change_param(p2, ChangeType.RANDOM_DIM, FakeRng(standard_normal=[-1.25]))
        assert p1.value == p2.value == 50.0 - 6.25

    def test_clamped_into_range(self):
        p = height_param()
        change_param(p, ChangeType.RANDOM, FakeRng(standard_normal=[100.0]))
        assert p.value == 100.0


class TestChaotic:
    def test_hand_value(self):
        # offset 40: 10 + 3.67 * 40 * (1 - 40/90) = 91.5555...
        p = height_param()
        change_param(p, ChangeType.CHAOTIC, FakeRng())
        assert abs(p.value - 91.55555555555557) < 1e-9

    def test_consumes_no_randomness(self):
        rng = FakeRng()
        p = height_param(value=30.0)
        change_param(p, ChangeType.CHAOTIC, rng)
        assert rng.exhausted()

    def test_map_constant(self):
        assert CHAOS_A == 3.67

    def test_orbit_stays_in_range(self):
        p = height_param(value=23.456)
        for _ in range(1000):
            change_param(p, ChangeType.CHAOTIC, FakeRng())
            assert 10.0 <= p.value <= 100.0


class TestRecurrent:
    def test_hand_values(self):
        # angle pi/2 peaks the sine, 3pi/2 bottoms it, 0 sits midway
        for t, expected in ((0, 55.0), (3, 100.0), (9, 10.0)):
            p = height_param()
            change_param(p, ChangeType.RECURRENT, FakeRng(), t=t)
            assert abs(p.value - expected) < 1e-9

    def test_phase_shifts_cycle(self):
        p = height_param(phase=math.pi / 2.0)
        change_param(p, ChangeType.RECURRENT, FakeRng(), t=0)
        assert abs(p.value - 100.0) < 1e-9

    def test_exactly_periodic(self):
        assert RECURRENT_PERIOD == 12
        p = height_param(phase=1.234)
        values = []
        for t in range(1, 37):
            change_param(p, ChangeType.RECURRENT, FakeRng(), t=t)
            values.append(p.value)
        for t in range(12):
            assert values[t] == values[t + 12] == values[t + 24]

    def test_value_independent_of_current_state(self):
        p1 = height_param(value=10.0, phase=0.7)
        p2 = height_param(value=99.0, phase=0.7)
        change_param(p1, ChangeType.RECURRENT, FakeRng(), t=5)
        change_param(p2, ChangeType.RECURRENT, FakeRng(), t=5)
        assert p1.value == p2.value


class TestRecurrentNoisy:
    def test_hand_value(self):
        # T5 value at t=0 is 55; noise adds 0.8 * z
        p = height_param()
        change_param(p, ChangeType.RECURRENT_NOISY, FakeRng(standard_normal=[1.5]), t=0)
        assert abs(p.value - (55.0 + 1.2)) < 1e-9

    def test_stays_in_range(self):
        rng = np.random.default_rng(17)
        p = height_param(phase=0.3)
        for t in range(1, 501):
            change_param(p, ChangeType.RECURRENT_NOISY, rng, t=t)
            assert 10.0 <= p.value <= 100.0


class TestDimensionWalk:
    def test_first_step_up(self):
        walk = DimensionWalk(10)
        assert walk.step() == 11

    def test_reverses_at_upper_bound(self):
        walk = DimensionWalk(DIM_MAX)
        assert walk.step() == 14
        assert walk.sign == -1

    def test_reverses_at_lower_bound(self):
        walk = DimensionWalk(DIM_MIN, sign=-1)
        assert walk.step() == 6
        assert walk.sign == 1

    def test_full_sweep_visits_all_dimensions(self):
        walk = DimensionWalk(10)
        seen = {10}
        for _ in range(40):
            seen.add(walk.step())
            assert DIM_MIN <= walk.dim <= DIM_MAX
        assert seen == set(range(DIM_MIN, DIM_MAX + 1))
