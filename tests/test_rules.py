"""Update rules against hand-computed anchor values."""

import math

import numpy as np
import pytest

from dynopt.optimizers import rules


class TestLogisticStep:
    def test_anchor_from_initial_state(self):
        # 4 * 0.70 * 0.30 = 0.84
        assert abs(rules.logistic_step(0.70) - 0.84) < 1e-12

    def test_second_step(self):
        w1 = rules.logistic_step(0.70)
        assert abs(rules.logistic_step(w1) - 0.5376) < 1e-12

    def test_fixed_point(self):
        assert rules.logistic_step(0.75) == 0.75

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_states_outside_open_interval(self, bad):
        with pytest.raises(ValueError):
            rules.logistic_step(bad)

    def test_orbit_stays_inside_unit_interval(self):
        w = 0.70
        for _ in range(10_000):
            w = rules.logistic_step(w)
            assert 0.0 < w < 1.0


class TestChaoticOperator:
    def test_full_draw(self):
        # c4 = 1 - 0.0 = 1: u = 3 * 0.96 * 0.04
        u = rules.chaotic_operator(0.96, 0.0)
        assert abs(u - 0.1152) < 1e-12

    def test_half_draw(self):
        u = rules.chaotic_operator(0.96, 0.5)
        assert abs(u - 0.0576) < 1e-12

    def test_peak_state(self):
        assert rules.chaotic_operator(0.5, 0.0) == 0.75

    def test_never_zero(self):
        # the unit draw is mapped onto (0, 1], so u stays strictly positive
        rng = np.random.default_rng(97)
        for _ in range(1000):
            assert rules.chaotic_operator(0.96, rng.random()) > 0.0

    @pytest.mark.parametrize("bad", [0.0, 1.0, 2.0])
    def test_rejects_degenerate_state(self, bad):
        with pytest.raises(ValueError):
            rules.chaotic_operator(bad, 0.5)


class TestContractionExpansion:
    def test_start_equals_max_iterations(self):
        assert rules.contraction_expansion(0, 100) == 100.0

    def test_midpoint_anchor(self):
        # 0.5 * 50 / 50.5
        assert abs(rules.contraction_expansion(50, 100) - 0.49504950495049505) < 1e-12

    def test_zero_at_schedule_end(self):
        for horizon in (1, 17, 100, 892):
            assert rules.contraction_expansion(horizon, horizon) == 0.0

    def test_strictly_decreasing_and_nonnegative(self):
        horizon = 37
        values = [rules.contraction_expansion(l, horizon) for l in range(horizon + 1)]
        assert all(v >= 0.0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_schedule_bounds_enforced(self):
        with pytest.raises(ValueError):
            rules.contraction_expansion(-1, 10)
        with pytest.raises(ValueError):
            rules.contraction_expansion(11, 10)
        with pytest.raises(ValueError):
            rules.contraction_expansion(0, 0)


class TestFollowerCoefficient:
    def test_start_anchor(self):
        # 0.75 * sin(pi/4) = 0.75 * sqrt(2)/2
        assert abs(rules.follower_coefficient(0, 40) - 0.5303300858899106) < 1e-12

    def test_midpoint_is_half_the_start(self):
        assert abs(rules.follower_coefficient(20, 40) - 0.2651650429449553) < 1e-12

    def test_zero_at_schedule_end(self):
        assert rules.follower_coefficient(40, 40) == 0.0

    def test_linear_in_iteration(self):
        c0 = rules.follower_coefficient(0, 100)
        for l in range(101):
            expected = c0 * (1.0 - l / 100.0)
            assert abs(rules.follower_coefficient(l, 100) - expected) < 1e-12

    def test_schedule_bounds_enforced(self):
        with pytest.raises(ValueError):
            rules.follower_coefficient(-1, 10)
        with pytest.raises(ValueError):
            rules.follower_coefficient(11, 10)
        with pytest.raises(ValueError):
            rules.follower_coefficient(5, 0)


class TestLocalAttractor:
    def test_hand_value(self):
        # r1 = 0.25, r2 = 0.75 -> (0.25*1 + 0.75*5) / 1.0 = 4.0
        assert rules.local_attractor(1.0, 5.0, 0.75, 0.25) == 4.0

    def test_equal_draws_give_midpoint(self):
        assert rules.local_attractor(2.0, 6.0, 0.5, 0.5) == 4.0

    def test_always_between_position_and_food(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            a = rules.local_attractor(-3.0, 7.0, rng.random(), rng.random())
            assert -3.0 <= a <= 7.0


class TestArrayForms:
    def test_chaotic_operator_draws_one_c4_per_coordinate(self):
        u = rules.chaotic_operator(0.5, np.array([0.0, 0.5]))
        assert u.tolist() == [0.75, 0.375]

    def test_attractor_draws_the_r1_block_then_the_r2_block(self):
        value = rules.local_attractor(
            np.array([1.0, 2.0]), np.array([5.0, 6.0]),
            np.array([0.75, 0.5]), np.array([0.25, 0.5]),
        )
        assert value.tolist() == [4.0, 4.0]

    def test_quantum_update_matches_scalar_calls_per_coordinate(self):
        x, attractor, bestmean = [1.0, -2.0], [1.0, 0.8125], [1.5, 3.0]
        c4, r, c3 = [0.75, 0.5], [0.625, 0.625], [0.1, 0.3]
        value = rules.quantum_update(
            np.array(x), np.array(attractor), 2.0, np.array(bestmean), 0.5,
            np.array(c4), np.array(r), np.array(c3),
        )
        for k in range(2):
            scalar = rules.quantum_update(
                x[k], attractor[k], 2.0, bestmean[k], 0.5, c4[k], r[k], c3[k],
            )
            assert value[k] == scalar
        assert value[0] == 1.0 + math.log(2.0)
        assert value[1] == 0.8125  # r equals u, so the jump vanishes

    def test_stacked_draws_equal_one_call_per_member(self):
        # swarm_update moves (chains, members, dim) stacks with one call
        rng = np.random.default_rng(107)
        x, food, bestmean = rng.uniform(-5.0, 5.0, (3, 4, 2)), rng.uniform(-5.0, 5.0, 2), 1.5
        d1, d2, d4, dr, d3 = rng.random((5, 3, 4, 2))
        attractor = rules.local_attractor(x, food, d1, d2)
        moved = rules.quantum_update(x, attractor, 2.0, bestmean, 0.96, d4, dr, d3)
        for idx in np.ndindex(3, 4):
            one = rules.local_attractor(x[idx], food, d1[idx], d2[idx])
            assert one.tobytes() == attractor[idx].tobytes()
            jump = rules.quantum_update(
                x[idx], one, 2.0, bestmean, 0.96, d4[idx], dr[idx], d3[idx]
            )
            assert jump.tobytes() == moved[idx].tobytes()


def salp_chain_by_ranks(chains, food, lower, upper, c1, draws):
    """The salp chain averaged one rank at a time, as a loop would.

    ``rules.salp_chain`` folds the averaging into one scaled accumulate;
    it must reproduce this loop bit for bit.
    """
    c2, side = draws[:, 0], draws[:, 1] >= 0.5
    step = c1 * ((upper - lower) * c2 + lower)
    chains[:, 0] = np.where(side, food + step, food - step)
    for rank in range(1, chains.shape[1]):
        cur = chains[:, rank]
        cur += chains[:, rank - 1]
        cur /= 2.0


def random_chain_start(rng, n, dim, kind):
    """Start positions: uniform, exact zeros and +-5, or tiny magnitudes."""
    if kind == 0:
        return rng.uniform(-5.0, 5.0, size=(n, dim))
    if kind == 1:
        return rng.choice([0.0, -0.0, 5.0, -5.0, 2.5], size=(n, dim))
    magnitude = 10.0 ** rng.uniform(-12.0, 0.0, size=(n, dim))
    tiny = rng.uniform(-1.0, 1.0, size=(n, dim)) * magnitude
    return np.where(rng.random((n, dim)) < 0.2, 0.0, tiny)


class TestSalpChain:
    def test_accumulate_equals_rank_loop(self):
        rng = np.random.default_rng(2024)
        for trial in range(3000):
            k, chain, dim = (int(v) for v in rng.integers([1, 1, 1], [7, 65, 16]))
            start = random_chain_start(rng, k * chain, dim, trial % 3)
            food = rng.uniform(-5.0, 5.0, size=dim)
            if trial % 4:
                lower, upper = -5.0, 5.0
            else:
                lower, upper = np.full(dim, -5.0), np.full(dim, 5.0)
            c1 = float(rng.uniform(0.0, 2.0))
            draws = rng.random((k, 2, dim))
            got, want = start.copy(), start.copy()
            # the chains are views: the moves land in the (k * chain, dim) swarms
            rules.salp_chain(got.reshape(k, chain, dim), food, lower, upper, c1, draws)
            salp_chain_by_ranks(
                want.reshape(k, chain, dim), food, lower, upper, c1, draws
            )
            assert got.tobytes() == want.tobytes(), (k, chain, dim)

    def test_coefficient_anchors(self):
        assert rules.salp_coefficient(0, 10) == 2.0
        assert rules.salp_coefficient(5, 10) == 2.0 * math.exp(-4.0)

    def test_leader_step_then_in_place_averaging(self):
        positions = np.array([[0.0], [5.0], [9.0]])
        rules.salp_chain(
            positions.reshape(1, 3, 1), np.array([1.0]),
            np.array([-5.0]), np.array([5.0]), 2.0, np.array([[[0.6], [0.7]]]),
        )
        # step = 2 * (10 * 0.6 - 5) = 2, and side 0.7 >= 0.5 adds it
        assert positions[:, 0].tolist() == [3.0, 4.0, 6.5]

    def test_k_chains_equal_k_single_chain_calls(self):
        start = np.random.default_rng(5).uniform(-5.0, 5.0, size=(12, 3))
        food, lower, upper = np.array([0.5, -1.0, 2.0]), np.full(3, -5.0), np.full(3, 5.0)
        lockstep, one_by_one = start.copy(), start.copy()
        draws = np.random.default_rng(7).random((3, 2, 3))
        rules.salp_chain(lockstep.reshape(3, 4, 3), food, lower, upper, 0.8, draws)
        for i, chain in enumerate(one_by_one.reshape(3, 1, 4, 3)):
            rules.salp_chain(chain, food, lower, upper, 0.8, draws[i:i + 1])
        assert lockstep.tobytes() == one_by_one.tobytes()


class TestQuantumUpdate:
    def test_hand_value(self):
        # w=0.5: u = 0.75*c4; c4=0.25 -> u=0.1875, r=0.375 -> ln(2);
        # step = 2 * 0.5 * ln 2, added since c3 = 0.9 > 0.5
        value = rules.quantum_update(
            x=1.0, attractor=1.0, b_l=2.0, bestmean=1.5, w=0.5,
            d4=0.75, dr=0.625, d3=0.1,
        )
        assert value == 1.0 + math.log(2.0)

    def test_matched_draws_return_attractor_exactly(self):
        # r == u makes the logarithm vanish, leaving A untouched
        # u = 0.375, r = 0.375
        value = rules.quantum_update(
            x=-2.0, attractor=0.8125, b_l=5.0, bestmean=3.0, w=0.5,
            d4=0.5, dr=0.625, d3=0.3,
        )
        assert value == 0.8125

    def test_low_coin_subtracts_the_step(self):
        plus = rules.quantum_update(1.0, 1.0, 2.0, 1.5, 0.5, 0.75, 0.625, 0.1)
        minus = rules.quantum_update(1.0, 1.0, 2.0, 1.5, 0.5, 0.75, 0.625, 0.9)
        assert plus == 1.0 + math.log(2.0)
        assert minus == 1.0 - math.log(2.0)

    @pytest.mark.parametrize("offset, sign", [(2.0**-53, 1.0), (0.0, -1.0),
                                              (-(2.0**-53), -1.0)])
    def test_coin_beside_the_threshold(self, offset, sign):
        # the step is added only where c3 = 1 - d3 exceeds C3_THRESHOLD
        c3 = rules.C3_THRESHOLD + offset
        d3 = 1.0 - c3
        assert 1.0 - d3 == c3
        value = rules.quantum_update(1.0, 1.0, 2.0, 1.5, 0.5, 0.75, 0.625, d3)
        assert value == 1.0 + sign * math.log(2.0)

    def test_zero_amplitude_pins_to_attractor(self):
        rng = np.random.default_rng(103)
        for _ in range(50):
            draws = rng.random(3)
            assert rules.quantum_update(4.0, 2.5, 0.0, -1.0, 0.96, *draws) == 2.5

    def test_draw_order_is_c4_then_r_then_c3(self):
        # recreate the same arithmetic from the three draws by hand
        draws = [0.2, 0.7, 0.4]
        x, attractor, b_l, bestmean, w = -1.0, 0.5, 1.25, 2.0, 0.96
        value = rules.quantum_update(x, attractor, b_l, bestmean, w, *draws)
        u = 3.0 * w * (1.0 - w) * (1.0 - draws[0])
        r = 1.0 - draws[1]
        c3 = 1.0 - draws[2]
        step = b_l * abs(bestmean - x) * math.log(r / u)
        expected = attractor + step if c3 > 0.5 else attractor - step
        assert value == expected


def follow(x_prev2, x_prev, x_i, attractor, c):
    """One follower moved by ``follower_chain``: a chain of two heads and it."""
    x = np.array([[x_prev2], [x_prev], [x_i]])
    rules.follower_chain(x, np.array([[0.0], [0.0], [attractor]]), c)
    return float(x[2, 0])


class TestFollowerUpdate:
    def test_hand_value(self):
        # 2 + 0.5*(0 - 0) + MOMENTUM*(2 - 1) = 2.5
        value = follow(x_prev2=1.0, x_prev=2.0, x_i=0.0, attractor=0.0, c=0.5)
        assert value == 2.5

    def test_zero_coefficients_follow_predecessor(self):
        # equal predecessors zero the momentum term
        assert follow(4.0, 4.0, 9.0, 7.0, 0.0) == 4.0

    def test_attraction_term(self):
        # pure attraction, equal predecessors: x_prev + c * (A - x_i)
        assert follow(0.0, 0.0, 1.0, 3.0, 0.5) == 1.0

    @pytest.mark.parametrize(
        "chain, k, dim", [(2, 1, 1), (3, 2, 4), (10, 5, 10), (25, 2, 50), (1, 3, 2)]
    )
    def test_chain_equals_the_rank_formula(self, chain, k, dim):
        rng = np.random.default_rng(107)
        x = rng.uniform(-5.0, 5.0, size=(chain, k, dim))
        attractor = rng.uniform(-5.0, 5.0, size=(chain, k, dim))
        c = rng.random()
        expected = x.copy()
        for rank in range(2, chain):  # past the two heads
            x_prev, x_prev2 = expected[rank - 1], expected[rank - 2]
            expected[rank] = (
                x_prev + c * (attractor[rank] - expected[rank])
                + rules.MOMENTUM * (x_prev - x_prev2)
            )
        moved = x.copy()
        rules.follower_chain(moved, attractor, c)
        assert moved.tobytes() == expected.tobytes()


class TestModuleConstants:
    def test_frozen_values(self):
        assert rules.LOGISTIC_D == 4.0
        assert rules.CHAOTIC_SCALE == 3.0
        assert rules.FOLLOWER_GAIN == 0.75
        assert (rules.W_FIXED, rules.W_INIT, rules.MOMENTUM) == (0.96, 0.70, 0.5)
        assert rules.C3_THRESHOLD == 0.5
        assert rules.LEADERS_PER_CHAIN == 2
