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
    change_values,
    walk_dimension,
)

from conftest import FakeRng

# (low, high, severity) of the generator's three changing families
HEIGHTS = (10.0, 100.0, 5.0)
WIDTHS = (1.0, 10.0, 0.5)
ANGLE = (-math.pi, math.pi, 1.0)


def heights(value=50.0, phase=0.0, n=1):
    """A height family of ``n`` equal values sharing one phase."""
    return np.full(n, float(value)), np.full(n, float(phase))


def change(family, kind, rng, t=0):
    """Change a height family once; the first value after the change."""
    values, phases = family
    change_values(values, phases, *HEIGHTS, kind, rng, t)
    return float(values[0])


class TestChangeType:
    def test_labels_roundtrip(self):
        for label in ("T1", "T2", "T3", "T4", "T5", "T6", "T7"):
            assert ChangeType(label).value == label
        assert ChangeType("T3") is ChangeType.RANDOM

    @pytest.mark.parametrize("label", ["t3", " T3 ", "T3 "])
    def test_lowercase_or_padded_label_rejected(self, label):
        with pytest.raises(ValueError):
            ChangeType(label)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            ChangeType("T9")


class TestChangeValues:
    @pytest.mark.parametrize("kind", list(ChangeType))
    @pytest.mark.parametrize("bounds", [HEIGHTS, WIDTHS, ANGLE],
                             ids=["heights", "widths", "angle"])
    def test_family_equals_one_value_calls(self, kind, bounds):
        # one sized draw per family is the stream of n scalar draws, and
        # every float step is the one a one-value family takes
        low, high, _ = bounds
        n = 13
        rng = np.random.default_rng(29)
        start = rng.uniform(low, high, n)
        phases = rng.uniform(0.0, 2.0 * math.pi, n)
        family, single = start.copy(), start.copy()
        family_rng, single_rng = np.random.default_rng(31), np.random.default_rng(31)
        for t in range(1, 40):
            change_values(family, phases, *bounds, kind, family_rng, t)
            for i in range(n):
                change_values(single[i:i + 1], phases[i:i + 1], *bounds, kind, single_rng, t)
            assert family.tobytes() == single.tobytes(), (kind, t)
        assert family_rng.random() == single_rng.random()

    def test_clips_at_both_bounds(self):
        assert change(heights(99.0), ChangeType.SMALL_STEP, FakeRng(uniform=[1.0])) == 100.0
        assert change(heights(11.0), ChangeType.SMALL_STEP, FakeRng(uniform=[-1.0])) == 10.0


class TestSmallStep:
    def test_hand_value(self):
        # delta = 0.04 * 90 * 0.1 * 5 = 1.8
        value = change(heights(), ChangeType.SMALL_STEP, FakeRng(uniform=[0.1]))
        assert abs(value - 51.8) < 1e-12

    def test_negative_draw_moves_down(self):
        value = change(heights(), ChangeType.SMALL_STEP, FakeRng(uniform=[-1.0]))
        assert abs(value - (50.0 - 18.0)) < 1e-12

    def test_step_bounded_by_alpha(self):
        values, phases = heights(n=400)
        limit = SMALL_STEP_ALPHA * 90.0 * 5.0
        change_values(values, phases, *HEIGHTS, ChangeType.SMALL_STEP,
                      np.random.default_rng(7))
        assert np.all(np.abs(values - 50.0) <= limit + 1e-12)

    def test_stays_in_range(self):
        rng = np.random.default_rng(11)
        family = heights()
        for _ in range(1000):
            value = change(family, ChangeType.SMALL_STEP, rng)
            assert 10.0 <= value <= 100.0


class TestLargeStep:
    def test_hand_value_positive(self):
        # step = 0.04 + 0.06 * 0.5 = 0.07; delta = 90 * 0.07 * 5 = 31.5
        value = change(heights(), ChangeType.LARGE_STEP, FakeRng(uniform=[0.5]))
        assert abs(value - 81.5) < 1e-9

    def test_hand_value_negative(self):
        value = change(heights(), ChangeType.LARGE_STEP, FakeRng(uniform=[-0.5]))
        assert abs(value - 18.5) < 1e-9

    def test_sign_term_creates_minimum_jump(self):
        # even a tiny draw jumps by at least the alpha * span * severity floor
        value = change(heights(), ChangeType.LARGE_STEP, FakeRng(uniform=[1e-12]))
        assert value - 50.0 > SMALL_STEP_ALPHA * 90.0 * 5.0 * 0.999

    def test_step_bounded_by_alpha_max(self):
        values, phases = heights(n=400)
        limit = LARGE_STEP_ALPHA_MAX * 90.0 * 5.0
        change_values(values, phases, *HEIGHTS, ChangeType.LARGE_STEP,
                      np.random.default_rng(13))
        assert np.all(np.abs(values - 50.0) <= limit + 1e-12)


class TestRandom:
    def test_hand_value(self):
        value = change(heights(), ChangeType.RANDOM, FakeRng(standard_normal=[0.4]))
        assert abs(value - 52.0) < 1e-12

    def test_t7_shares_value_dynamics(self):
        v1 = change(heights(), ChangeType.RANDOM, FakeRng(standard_normal=[-1.25]))
        v2 = change(heights(), ChangeType.RANDOM_DIM, FakeRng(standard_normal=[-1.25]))
        assert v1 == v2 == 50.0 - 6.25

    def test_clamped_into_range(self):
        value = change(heights(), ChangeType.RANDOM, FakeRng(standard_normal=[100.0]))
        assert value == 100.0


class TestChaotic:
    def test_hand_value(self):
        # offset 40: 10 + 3.67 * 40 * (1 - 40/90) = 91.5555...
        value = change(heights(), ChangeType.CHAOTIC, FakeRng())
        assert abs(value - 91.55555555555557) < 1e-9

    def test_consumes_no_randomness(self):
        rng = FakeRng()
        change(heights(value=30.0), ChangeType.CHAOTIC, rng)
        assert rng.exhausted()

    def test_map_constant(self):
        assert CHAOS_A == 3.67

    def test_orbit_stays_in_range(self):
        family = heights(value=23.456)
        for _ in range(1000):
            value = change(family, ChangeType.CHAOTIC, FakeRng())
            assert 10.0 <= value <= 100.0


class TestRecurrent:
    def test_hand_values(self):
        # angle pi/2 peaks the sine, 3pi/2 bottoms it, 0 sits midway
        for t, expected in ((0, 55.0), (3, 100.0), (9, 10.0)):
            value = change(heights(), ChangeType.RECURRENT, FakeRng(), t=t)
            assert abs(value - expected) < 1e-9

    def test_phase_shifts_cycle(self):
        value = change(heights(phase=math.pi / 2.0), ChangeType.RECURRENT, FakeRng(), t=0)
        assert abs(value - 100.0) < 1e-9

    def test_exactly_periodic(self):
        assert RECURRENT_PERIOD == 12
        family = heights(phase=1.234)
        values = [change(family, ChangeType.RECURRENT, FakeRng(), t=t) for t in range(1, 37)]
        for t in range(12):
            assert values[t] == values[t + 12] == values[t + 24]

    def test_value_independent_of_current_state(self):
        v1 = change(heights(value=10.0, phase=0.7), ChangeType.RECURRENT, FakeRng(), t=5)
        v2 = change(heights(value=99.0, phase=0.7), ChangeType.RECURRENT, FakeRng(), t=5)
        assert v1 == v2


class TestRecurrentNoisy:
    def test_hand_value(self):
        # T5 value at t=0 is 55; noise adds 0.8 * z
        value = change(heights(), ChangeType.RECURRENT_NOISY,
                       FakeRng(standard_normal=[1.5]), t=0)
        assert abs(value - (55.0 + 1.2)) < 1e-9

    def test_stays_in_range(self):
        rng = np.random.default_rng(17)
        family = heights(phase=0.3)
        for t in range(1, 501):
            value = change(family, ChangeType.RECURRENT_NOISY, rng, t=t)
            assert 10.0 <= value <= 100.0


class TestDimensionWalk:
    def test_first_step_up(self):
        assert walk_dimension(10, 1) == 11

    def test_reverses_at_upper_bound(self):
        assert [walk_dimension(DIM_MAX, t) for t in (1, 2)] == [14, 13]

    def test_reverses_at_lower_bound(self):
        # from 10: up to DIM_MAX at t = 5, down to DIM_MIN at t = 15
        assert [walk_dimension(10, t) for t in (14, 15, 16, 17)] == [6, 5, 6, 7]

    def test_full_sweep_visits_all_dimensions(self):
        seen = {walk_dimension(10, t) for t in range(41)}
        assert seen == set(range(DIM_MIN, DIM_MAX + 1))

    @pytest.mark.parametrize("start", range(DIM_MIN, DIM_MAX + 1))
    def test_equals_step_by_step_reversing_walk(self, start):
        dim, sign = start, 1
        for t in range(1, 201):
            if not DIM_MIN <= dim + sign <= DIM_MAX:
                sign = -sign
            dim += sign
            assert walk_dimension(start, t) == dim, t
        assert walk_dimension(start, 0) == start

