"""The multi-population quantum salp optimizer: structure and update rules."""

import copy
import dataclasses
import math

import numpy as np
import pytest

from dynopt.errors import ConfigError
from dynopt.gdbg import make_instance
from dynopt.gdbg.changes import DIM_MAX, DIM_MIN
from dynopt.optimizers import BudgetedRecorder, rules
from dynopt.optimizers.qcsso import PROBE_SIGMA_SCALE, Qcsso, QcssoConfig, row_norms

from conftest import FakeRng, SwitchableProblem, evaluate_one, record_returns, sphere_problem


# the follower gain at the start of a window, 0.75 * sin(pi/4)
C_START = rules.follower_coefficient(0, 1)


def make_opt(dim=5, budget=5600, config=None, seed=11, problem=None):
    problem = problem or sphere_problem(dimension=dim)
    return Qcsso(problem, seed=seed, budget=budget, config=config)


class TestConfig:
    def test_defaults(self):
        # every setting with its default: a new setting is added here on purpose
        assert dataclasses.asdict(QcssoConfig()) == {
            "population": 50, "subpopulations": 5, "w_mode": "fixed",
            "max_age_limit": 30, "min_age_limit": 10,
            "reinit_probability": 0.1, "exclusion_radius": 0.0,
        }

    def test_uneven_split_rejected(self):
        with pytest.raises(ConfigError):
            QcssoConfig(population=7, subpopulations=2)

    def test_unknown_w_mode_rejected(self):
        with pytest.raises(ConfigError):
            QcssoConfig(w_mode="linear")


class TestStructure:
    def test_default_chain_partition(self):
        opt = make_opt()
        assert len(opt._chains) == 5
        for c, members in enumerate(opt._chains):
            assert np.array_equal(members, np.arange(10 * c, 10 * c + 10))

    def test_small_partition(self):
        opt = make_opt(config=QcssoConfig(population=6, subpopulations=3))
        assert [m.tolist() for m in opt._chains] == [[0, 1], [2, 3], [4, 5]]

    def test_single_chain_of_three(self):
        opt = make_opt(config=QcssoConfig(population=3, subpopulations=1))
        assert [m.tolist() for m in opt._chains] == [[0, 1, 2]]

    def test_iteration_budget_from_window(self):
        opt = make_opt(budget=5600)
        assert opt.max_iterations == 100  # 5600 // (50 + 5 + 1)
        problem = sphere_problem()
        problem.frequency = 1120  # the window of a changing problem
        windowed = Qcsso(problem, seed=1, budget=5600)
        assert windowed.max_iterations == 20

    def test_initial_food_is_best_pbest(self):
        opt = make_opt()
        best = int(np.argmin(opt.pbest_fitness))
        assert opt.food_fitness == opt.pbest_fitness[best]
        assert np.array_equal(opt.food_position, opt.pbest_positions[best])

    def test_exclusion_radius_default_and_override(self):
        opt = make_opt(dim=4)
        assert abs(opt._exclusion_radius - 0.1 * 10.0 * 2.0) < 1e-12
        opt = make_opt(config=QcssoConfig(exclusion_radius=2.5))
        assert opt._exclusion_radius == 2.5
        # 0 takes the default; a negative or NaN radius is refused
        for radius in (-1.0, float("nan")):
            with pytest.raises(ConfigError, match="exclusion_radius"):
                QcssoConfig(exclusion_radius=radius)

    def test_probe_sigma_tracks_bounds(self):
        opt = make_opt(dim=3)
        assert PROBE_SIGMA_SCALE == 0.1
        assert opt._probe_sigma == 1.0  # a tenth of the box's side

    @pytest.mark.parametrize("dim", range(DIM_MIN, DIM_MAX + 1))
    def test_radius_and_sigma_follow_a_dimension_change(self, dim):
        problem = SwitchableProblem(dimension=4)
        opt = make_opt(problem=problem)
        problem.shift(dimension=dim)
        opt.sync_dimension()
        # ``0.1 * norm``, not ``norm / 10``: the two differ in the last bit
        # at some dimensions
        assert opt._exclusion_radius == 0.1 * float(np.linalg.norm(np.full(dim, 10.0)))
        assert opt._probe_sigma == 1.0


class TestContext:
    """The iteration's coefficients, as ``swarm_update`` reads them off the swarm."""

    def test_best_mean_is_mean_over_all_pbests(self):
        opt = make_opt(dim=2, budget=700,  # 700 // (4 + 2 + 1) = 100 iterations
                       config=QcssoConfig(population=4, subpopulations=2))
        opt.pbest_positions = np.array(
            [[0.0, 0.0], [1.0, 2.0], [2.0, 4.0], [5.0, 2.0]]
        )
        assert_update_uses(opt, w=0.96, b_l=100.0, c=C_START,
                           best_mean=np.array([2.0, 2.0]))

    def test_best_mean_sum_over_count_equals_mean(self):
        # swarm_update takes the pbest mean as add.reduce / n, without
        # mean's wrappers
        rng = np.random.default_rng(43)
        for n in (1, 2, 6, 50, 64):
            for dim in (1, 5, 10, 50):
                p = rng.uniform(-5.0, 5.0, size=(n, dim))
                fast = np.add.reduce(p, axis=0) / n
                assert fast.tobytes() == p.mean(axis=0).tobytes()

    def test_fixed_w(self):
        assert_update_uses(make_opt(), w=0.96, b_l=100.0, c=C_START)

    def test_schedule_values_at_start(self):
        opt = make_opt(budget=5600)
        assert opt.l_window == 0
        assert opt.max_iterations == 100
        assert abs(C_START - 0.5303300858899106) < 1e-12
        assert_update_uses(opt, w=0.96, b_l=100.0, c=C_START)

    def test_iteration_index_capped_at_horizon(self):
        opt = make_opt(budget=560)  # 560 // (50 + 5 + 1) = 10 iterations
        for _ in range(opt.max_iterations + 5):
            opt.iterate()
        assert opt.l_window == opt.max_iterations == 10
        assert_update_uses(opt, w=0.96, b_l=0.0, c=0.0)

    def test_past_horizon_heads_land_on_attractors(self):
        # B = 0: the heads land on their attractors; C = 0: a follower
        # takes its predecessor's place plus momentum only
        opt = make_opt(dim=1, config=QcssoConfig(population=6, subpopulations=2))
        opt.l_window = opt.max_iterations  # where ``iterate`` holds it
        opt.positions = np.array([[1.0], [2.0], [3.0], [-1.0], [-2.0], [-3.0]])
        opt.food_position = np.array([0.0])
        opt.rng = FakeRng(random=[0.5] * 24)  # attractor = (x + food) / 2
        opt.swarm_update()
        assert opt.positions[:, 0].tolist() == [0.5, 1.0, 1.25, -0.5, -1.0, -1.25]
        assert opt.rng.exhausted()

    def test_update_leaves_the_food_alone(self):
        opt = make_opt()
        food = opt.food_position
        before = food.copy()
        opt.salp_step(opt.k)
        opt.l_window = 1
        opt.swarm_update()
        assert opt.food_position is food
        assert food.tobytes() == before.tobytes()


class TestSsaBootstrap:
    def test_scripted_chain_moves(self):
        opt = make_opt(
            dim=1, config=QcssoConfig(population=4, subpopulations=2)
        )
        opt.positions = np.array([[0.0], [5.0], [0.0], [-4.0]])
        rng = FakeRng(random=[0.6, 0.7, 0.2, 0.3])
        opt.rng = rng
        opt.l_window, opt.max_iterations = 0, 10
        opt.food_position = np.array([1.0])
        opt.salp_step(opt.k)
        # c1 = 2 at l = 0; chain one: step = 2*(10*0.6 - 5) = 2, side up
        assert abs(opt.positions[0, 0] - 3.0) < 1e-12
        # follower averages its old position with the fresh leader, in place
        assert abs(opt.positions[1, 0] - 4.0) < 1e-12
        # chain two: step = 2*(10*0.2 - 5) = -6, side down: 1 - (-6) = 7
        assert abs(opt.positions[2, 0] - 7.0) < 1e-12
        assert abs(opt.positions[3, 0] - 1.5) < 1e-12
        assert rng.exhausted()

    def test_leader_shrinks_with_iteration(self):
        opt = make_opt(dim=1, config=QcssoConfig(population=2, subpopulations=1))
        opt.food_position = np.array([0.0])
        opt.max_iterations = 10
        for l, expected_c1 in ((0, 2.0), (5, 2.0 * math.exp(-4.0))):
            opt.rng = FakeRng(random=[1.0, 1.0])  # c2 = 1, side up
            opt.l_window = l
            opt.salp_step(opt.k)
            # step = c1 * (10*1 - 5) = 5 * c1
            assert abs(opt.positions[0, 0] - 5.0 * expected_c1) < 1e-12


class TestSwarmUpdate:
    def test_scripted_leaders_and_follower(self):
        opt = make_opt(dim=1, config=QcssoConfig(population=6, subpopulations=2))
        opt.positions = np.array([[1.0], [2.0], [3.0], [-1.0], [-2.0], [-3.0]])
        opt.pbest_positions = np.ones((6, 1))  # best mean 1
        opt.food_position = np.array([0.0])
        opt.l_window, opt.max_iterations = 0, 2  # B = 2, C = C_START
        opt.rng = FakeRng(random=[0.5] * 24)
        opt.swarm_update()

        # all unit draws are 0.5: attractor = (x + food)/2,
        # u = 3*0.96*0.04*0.5, r = 0.5, c3 = 0.5 (not above threshold)
        log_term = math.log(0.5 / (3.0 * 0.96 * (1.0 - 0.96) * 0.5))

        def leader(x):
            return (x + 0.0) / 2.0 - 2.0 * abs(1.0 - x) * log_term

        x0, x1 = leader(1.0), leader(2.0)
        assert abs(opt.positions[0, 0] - x0) < 1e-12
        assert abs(opt.positions[1, 0] - x1) < 1e-12
        # follower reads both predecessors after their in-place updates
        follower = x1 + C_START * (3.0 / 2.0 - 3.0) + 0.5 * (x1 - x0)
        assert abs(opt.positions[2, 0] - follower) < 1e-12

        x3, x4 = leader(-1.0), leader(-2.0)
        assert abs(opt.positions[3, 0] - x3) < 1e-12
        assert abs(opt.positions[4, 0] - x4) < 1e-12
        follower2 = x4 + C_START * (-3.0 / 2.0 + 3.0) + 0.5 * (x4 - x3)
        assert abs(opt.positions[5, 0] - follower2) < 1e-12
        assert opt.rng.exhausted()



def reference_swarm_update(opt, b_l, best_mean, w, c):
    """The swarm update as a loop over the members, straight from ``rules``.

    This is the stream order of an iteration, the shapes of the arrays the
    draws feed: r1 and r2 for every member, ``(2, k, chain, dim)``, then
    c4, r and c3 for every head, ``(3, k, heads, dim)``.
    """
    heads = min(rules.LEADERS_PER_CHAIN, opt.chain)
    d1, d2 = opt.rng.random((2, opt.k, opt.chain, opt.dim))
    d4, dr, d3 = opt.rng.random((3, opt.k, heads, opt.dim))
    for chain in range(opt.k):
        members = np.arange(chain * opt.chain, (chain + 1) * opt.chain)
        for rank, idx in enumerate(members):
            x = opt.positions[idx]
            attractor = rules.local_attractor(
                x, opt.food_position, d1[chain, rank], d2[chain, rank]
            )
            if rank < heads:
                opt.positions[idx] = rules.quantum_update(
                    x, attractor, b_l, best_mean, w,
                    d4[chain, rank], dr[chain, rank], d3[chain, rank],
                )
            else:
                x_prev = opt.positions[members[rank - 1]]
                x_prev2 = opt.positions[members[rank - 2]]
                opt.positions[idx] = (
                    x_prev + c * (attractor - x) + rules.MOMENTUM * (x_prev - x_prev2)
                )


def assert_update_uses(opt, w, b_l, c, best_mean=None):
    """``swarm_update`` moves a copy of ``opt`` exactly as the member loop
    moves another copy with these coefficients; ``opt`` is left as it was.

    ``best_mean`` defaults to the mean of the pbests.
    """
    if best_mean is None:
        best_mean = opt.pbest_positions.mean(axis=0)
    fast, slow = copy.deepcopy(opt), copy.deepcopy(opt)
    fast.swarm_update()
    reference_swarm_update(slow, b_l, best_mean, w, c)
    assert fast.positions.tobytes() == slow.positions.tobytes()
    assert fast.rng.bit_generator.state == slow.rng.bit_generator.state


class TestSwarmUpdateMatchesMemberLoop:
    """The lockstep update equals the member loop bit for bit, stream included."""

    @pytest.mark.parametrize("function_id", ["F1(10)", "F3"])  # max and min
    # chains of 50, 10 and 5 members, then of two heads and of one
    @pytest.mark.parametrize("subpopulations", [1, 5, 10, 25, 50])
    @pytest.mark.parametrize("w_mode", ["fixed", "chaotic"])
    def test_positions_and_stream(self, function_id, subpopulations, w_mode):
        cfg = QcssoConfig(subpopulations=subpopulations, w_mode=w_mode)
        inst = make_instance(function_id, "T1", 5, {"change_frequency": 5000})
        opt = Qcsso(inst, seed=9, budget=10**6, config=cfg)
        for _ in range(3):  # a bootstrap, then two lockstep updates
            opt.iterate()
        assert inst.maximize is (function_id == "F1(10)")
        assert opt.l_window == 3
        w = rules.W_FIXED
        if w_mode == "chaotic":  # the state has advanced once per iteration
            w = rules.logistic_step(rules.logistic_step(rules.logistic_step(rules.W_INIT)))
        assert_update_uses(
            opt, w=w,
            b_l=rules.contraction_expansion(3, opt.max_iterations),
            c=rules.follower_coefficient(3, opt.max_iterations),
        )


class TestMemory:
    def test_update_pbests_keeps_best(self):
        opt = make_opt(dim=2, config=QcssoConfig(population=4, subpopulations=2))
        opt.pbest_fitness = np.array([1.0, 2.0, 3.0, 4.0])
        opt.pbest_positions = np.zeros((4, 2))
        opt.fitness = np.array([0.5, 5.0, 2.5, 4.0])
        opt.positions = np.ones((4, 2))
        opt.update_pbests()
        assert opt.subpop_best_indices().tolist() == [0, 2]  # the chain bests
        assert opt.pbest_fitness.tolist() == [0.5, 2.0, 2.5, 4.0]
        assert np.array_equal(opt.pbest_positions[0], [1.0, 1.0])
        assert np.array_equal(opt.pbest_positions[1], [0.0, 0.0])
        assert np.array_equal(opt.pbest_positions[3], [0.0, 0.0])  # ties do not improve

    def test_food_equals_best_pbest_exactly_every_iteration(self):
        opt = make_opt()
        for _ in range(15):
            opt.iterate()
            best = int(np.argmin(opt.pbest_fitness))
            assert opt.food_fitness == opt.pbest_fitness[best]
            assert np.array_equal(opt.food_position, opt.pbest_positions[best])

    def test_food_monotone_on_static_problem(self):
        opt = make_opt()
        history = []
        for _ in range(20):
            opt.iterate()
            history.append(opt.food_fitness)
        assert all(a >= b for a, b in zip(history, history[1:]))

    def test_positions_stay_in_bounds(self):
        opt = make_opt()
        for _ in range(10):
            opt.iterate()
            assert np.all(opt.positions >= opt.lower - 1e-12)
            assert np.all(opt.positions <= opt.upper + 1e-12)
            assert np.all(opt.pbest_positions >= opt.lower - 1e-12)
            assert np.all(opt.pbest_positions <= opt.upper + 1e-12)

    def test_seeded_determinism(self):
        runs = []
        for _ in range(2):
            opt = make_opt(seed=123)
            trace = []
            for _ in range(8):
                opt.iterate()
                trace.append(opt.food_fitness)
            runs.append(trace)
        assert runs[0] == runs[1]
        other = make_opt(seed=124)
        other_trace = []
        for _ in range(8):
            other.iterate()
            other_trace.append(other.food_fitness)
        assert other_trace != runs[0]


class TestOverlapSearch:
    def small(self, radius=0.0):
        cfg = QcssoConfig(
            population=4, subpopulations=2, exclusion_radius=radius
        )
        opt = make_opt(dim=1, config=cfg)
        opt.pbest_positions = np.array([[1.0], [3.0], [2.0], [4.0]])
        opt.pbest_fitness = np.array([1.0, 9.0, 4.0, 16.0])
        opt.positions = opt.pbest_positions.copy()
        opt.ages = np.zeros(4, dtype=int)
        return opt

    def test_probe_improves_a_subpop_best(self):
        opt = self.small()
        # sigma = 1: first probe lands on the origin, second runs off-domain
        opt.rng = FakeRng(standard_normal=[-1.0, 10.0])
        excluded = opt.overlap_search(opt.subpop_best_indices())
        assert opt.pbest_positions[0, 0] == 0.0
        assert opt.pbest_fitness[0] == 0.0
        # the second best is unchanged: its clipped probe scored 25 > 4
        assert opt.pbest_positions[2, 0] == 2.0
        assert opt.pbest_fitness[2] == 4.0
        assert excluded == []
        assert opt.rng.exhausted()

    def test_probe_is_clipped_to_bounds(self):
        opt = self.small()
        opt.rng = FakeRng(standard_normal=[0.0, 10.0])
        opt.overlap_search(opt.subpop_best_indices())
        # idx 2 probe: 2 + 10 clipped to 5, worth 25, rejected
        assert opt.pbest_fitness[2] == 4.0

    def test_equal_probe_does_not_replace(self):
        opt = self.small()
        opt.rng = FakeRng(standard_normal=[0.0, 0.0])
        before = opt.pbest_positions.copy()
        opt.overlap_search(opt.subpop_best_indices())
        assert np.array_equal(opt.pbest_positions, before)

    def test_close_bests_recycle_the_worse_chain(self):
        opt = self.small(radius=5.0)
        opt.rng = FakeRng(
            standard_normal=[0.0, 0.0], uniform=[0.5, -0.5]
        )
        assert opt.overlap_search(opt.subpop_best_indices()) == [1]
        assert np.all(np.isinf(opt.pbest_fitness[2:]))
        assert np.all(opt.pbest_positions[2:] >= -5.0)
        assert np.all(opt.pbest_positions[2:] <= 5.0)
        assert opt.ages[2:].tolist() == [0, 0]
        # the surviving chain still backs the food position
        assert opt.food_fitness == 1.0
        assert opt.rng.exhausted()

    def test_global_best_chain_is_protected(self):
        opt = self.small(radius=5.0)
        # global best now sits in the second chain, so the first one dies
        opt.pbest_positions = np.array([[2.0], [3.0], [1.0], [4.0]])
        opt.pbest_fitness = np.array([4.0, 9.0, 1.0, 16.0])
        opt.rng = FakeRng(standard_normal=[0.0, 0.0], uniform=[0.5, -0.5])
        assert opt.overlap_search(opt.subpop_best_indices()) == [0]
        assert np.all(np.isinf(opt.pbest_fitness[:2]))
        assert opt.pbest_fitness[2] == 1.0

    @pytest.mark.parametrize("maximize", [False, True])
    def test_every_close_chain_but_the_first_best_is_recycled(self, maximize):
        # every pair is close and no probe improves, so each chain but the
        # first best one loses a pair to it: worse, or tied and later
        rng = np.random.default_rng(53)
        for _ in range(300):
            k = int(rng.integers(2, 9))
            opt = make_opt(
                config=QcssoConfig(population=2 * k, subpopulations=k, exclusion_radius=100.0),
                problem=sphere_problem(dimension=2, maximize=maximize),
            )
            # the problem's own values; the swarm keeps them to minimize
            values = rng.integers(0, 3, size=2 * k).astype(float)
            opt.pbest_fitness = -values if maximize else values
            worst = -np.inf if maximize else np.inf
            opt.problem.evaluate = lambda probes: np.full(len(probes), worst)
            by_chain = values.reshape(k, 2)
            scores = by_chain.max(axis=1) if maximize else by_chain.min(axis=1)
            best = scores.max() if maximize else scores.min()
            first_best = int(np.flatnonzero(scores == best)[0])
            excluded = opt.overlap_search(opt.subpop_best_indices())
            assert excluded == [c for c in range(k) if c != first_best]

    def test_fitness_tie_recycles_higher_index(self):
        opt = self.small(radius=5.0)
        opt.pbest_positions = np.array([[1.0], [3.0], [-1.0], [4.0]])
        opt.pbest_fitness = np.array([1.0, 9.0, 1.0, 16.0])
        opt.rng = FakeRng(standard_normal=[0.0, 0.0], uniform=[0.5, -0.5])
        assert opt.overlap_search(opt.subpop_best_indices()) == [1]

    @pytest.mark.parametrize("maximize", [False, True])
    def test_probe_acceptance_is_strict_in_both_senses(self, maximize):
        sign = -1.0 if maximize else 1.0
        problem = sphere_problem(dimension=1, maximize=maximize)
        opt = make_opt(config=QcssoConfig(population=4, subpopulations=2), problem=problem)
        opt.pbest_positions = np.array([[1.0], [3.0], [2.0], [4.0]])
        # the problem's values are [1, 9 * sign, 4, 16 * sign], bests 0 and
        # 2; the swarm keeps them to minimize, a maximized problem's negated
        opt.pbest_fitness = np.array([sign * 1.0, 9.0, sign * 4.0, 16.0])
        # the first probe ties its chain's best, the second one beats it
        values = [1.0, 5.0 if maximize else 3.0]
        opt.problem.evaluate = lambda probes: np.array(values)
        opt.rng = FakeRng(standard_normal=[0.5, 0.5])
        excluded = opt.overlap_search(opt.subpop_best_indices())
        assert opt.pbest_positions[:, 0].tolist() == [1.0, 3.0, 2.5, 4.0]
        assert opt.pbest_fitness[[0, 2]].tolist() == [sign * v for v in values]
        assert excluded == []

    def test_chain_bests_and_food_hold_through_the_iteration(self):
        # aging reads the chain bests that remember found, as the
        # probes and any recycles left them, and the food is the best pbest
        inst = make_instance("F1(10)", "T1", 5, {"change_frequency": 5000})
        opt = Qcsso(inst, seed=3, budget=10**6)
        excluded = record_returns(opt, "overlap_search")
        aging = opt.aging_step

        def checked(bests):
            assert bests.tolist() == opt.subpop_best_indices().tolist()
            best = int(np.argmin(opt.pbest_fitness))
            assert opt.food_fitness == opt.pbest_fitness[best]
            assert np.array_equal(opt.food_position, opt.pbest_positions[best])
            return aging(bests)

        opt.aging_step = checked
        for _ in range(60):
            opt.iterate()
        assert any(excluded)  # recycled chains were among them

    def test_distant_bests_coexist(self):
        opt = self.small(radius=0.5)
        opt.rng = FakeRng(standard_normal=[0.0, 0.0])
        assert opt.overlap_search(opt.subpop_best_indices()) == []
        assert not np.any(np.isinf(opt.pbest_fitness))


class TestExclusionDistances:
    """The array distances decide exactly as the per-pair norm."""

    def test_pairs_placed_at_the_radius(self):
        rng = np.random.default_rng(41)
        for dim in range(1, 21):
            radius = 0.1 * float(np.linalg.norm(np.full(dim, 10.0)))
            a = rng.uniform(-5.0, 5.0, size=(400, dim))
            u = rng.standard_normal((400, dim))
            b = a + radius * u / np.linalg.norm(u, axis=1, keepdims=True)
            diff = a - b
            per_pair = np.array([np.linalg.norm(row) for row in diff])
            assert row_norms(diff).tobytes() == per_pair.tobytes()
            assert np.array_equal(row_norms(diff) < radius, per_pair < radius)

    def test_close_pairs_use_the_default_radius(self):
        opt = make_opt(dim=5, config=QcssoConfig(population=10, subpopulations=5))
        radius = opt._exclusion_radius
        bests = np.arange(0, 10, 2)
        step = np.full(5, radius / math.sqrt(5.0))
        for scale, expected in ((0.999, [(0, 1)]), (1.001, [])):
            opt.pbest_positions = np.zeros((10, 5))
            opt.pbest_positions[bests] = np.arange(5)[:, None] * 10.0 - 5.0
            opt.pbest_positions[2] = opt.pbest_positions[0] + scale * step
            assert opt._close_pairs(opt.pbest_positions[bests]) == expected


class TestAging:
    def test_reinit_members_resets_state(self):
        opt = make_opt(dim=2, config=QcssoConfig(population=4, subpopulations=2))
        opt.ages[:] = 7
        opt._reinit_members(np.array([1]), np.array([[0.5, -0.5]]))
        assert math.isinf(opt.pbest_fitness[1])
        assert opt.ages[1] == 0
        assert opt.positions[1].tolist() == [0.5, -0.5]
        assert np.array_equal(opt.positions[1], opt.pbest_positions[1])
        assert opt.ages[0] == 7  # others untouched

    def test_first_pass_only_ages(self):
        cfg = QcssoConfig(
            population=4, subpopulations=2,
            max_age_limit=0, min_age_limit=0, reinit_probability=1.0,
        )
        opt = make_opt(config=cfg)
        assert opt.aging_step(opt.subpop_best_indices()) == []
        protected = int(np.argmin(opt.pbest_fitness))
        expected = [1 if i != protected else 0 for i in range(4)]
        assert opt.ages.tolist() == expected

    def test_second_pass_recycles_everyone_but_the_best(self):
        cfg = QcssoConfig(
            population=4, subpopulations=2,
            max_age_limit=0, min_age_limit=0, reinit_probability=1.0,
        )
        opt = make_opt(config=cfg)
        opt.aging_step(opt.subpop_best_indices())
        protected = int(np.argmin(opt.pbest_fitness))
        best_fitness = float(opt.pbest_fitness[protected])
        recycled = opt.aging_step(opt.subpop_best_indices())
        assert recycled == [i for i in range(4) if i != protected]
        assert opt.pbest_fitness[protected] == best_fitness

    def test_subpop_bests_get_the_longer_leash(self):
        cfg = QcssoConfig(
            population=4, subpopulations=2,
            max_age_limit=30, min_age_limit=0, reinit_probability=1.0,
        )
        opt = make_opt(config=cfg)
        opt.ages[:] = 5
        bests = set(opt.subpop_best_indices())
        recycled = set(opt.aging_step(opt.subpop_best_indices()))
        assert recycled == set(range(4)) - bests
        for idx in bests:
            assert opt.ages[idx] in (0, 5, 6)  # aged or protected, never recycled

    def test_one_coin_per_member_past_its_limit(self):
        cfg = QcssoConfig(
            population=6, subpopulations=2,
            max_age_limit=5, min_age_limit=2, reinit_probability=0.5,
        )
        opt = make_opt(dim=2, config=cfg)
        # chain bests 1 and 4, and 1 is the global best
        opt.pbest_fitness = np.array([3.0, 1.0, 4.0, 6.0, 2.0, 5.0])
        opt.ages = np.array([3, 9, 6, 2, 5, 3])
        # coins for 0, 2 and 5 only: 1 is protected, 3 and 4 are in their limit;
        # all three coins come first, and member 2 lands under 0.5, so its
        # fresh position, one row in the box, comes after them
        opt.rng = FakeRng(random=[0.9, 0.1, 0.7], uniform=[1.0, -1.0])
        assert opt.aging_step(opt.subpop_best_indices()) == [2]
        assert opt.rng.exhausted()
        assert opt.ages.tolist() == [4, 9, 0, 3, 6, 4]
        assert opt.positions[2].tolist() == [1.0, -1.0]
        assert math.isinf(opt.pbest_fitness[2])

    @pytest.mark.parametrize("function_id", ["F1(10)", "F3"])  # max and min
    @pytest.mark.parametrize("probability", [0.5, 1.0])
    def test_block_coins_equal_the_scalar_loop(self, function_id, probability):
        # 1.0 recycles every candidate, the last one included, back to back
        cfg = QcssoConfig(reinit_probability=probability)
        inst = make_instance(function_id, "T1", 5, {"change_frequency": 5000})
        opt = Qcsso(inst, seed=13, budget=10**6, config=cfg)
        ages = np.random.default_rng(17)
        for _ in range(12):
            opt.ages = ages.integers(0, 40, size=opt.n)
            fast, slow = copy.deepcopy(opt), copy.deepcopy(opt)
            assert fast.aging_step(fast.subpop_best_indices()) == reference_aging_step(slow)
            assert fast.ages.tolist() == slow.ages.tolist()
            assert fast.positions.tobytes() == slow.positions.tobytes()
            assert fast.pbest_positions.tobytes() == slow.pbest_positions.tobytes()
            assert fast.pbest_fitness.tobytes() == slow.pbest_fitness.tobytes()
            assert fast.rng.bit_generator.state == slow.rng.bit_generator.state
            opt.iterate()

    def test_zero_probability_never_recycles(self):
        cfg = QcssoConfig(
            population=4, subpopulations=2,
            max_age_limit=0, min_age_limit=0, reinit_probability=0.0,
        )
        opt = make_opt(config=cfg)
        opt.ages[:] = 100
        assert opt.aging_step(opt.subpop_best_indices()) == []


def reference_aging_step(opt):
    """The aging step as a scalar loop: one ``random()`` coin per member past
    its limit, in index order, all drawn first, then one ``uniform`` draw of
    the recycled members' fresh positions, a row each in index order."""
    cfg = opt.config
    limits = np.full(opt.n, cfg.min_age_limit)
    limits[opt.subpop_best_indices()] = cfg.max_age_limit
    grows = np.ones(opt.n, dtype=bool)
    grows[np.argmin(opt.pbest_fitness)] = False
    candidates = np.flatnonzero(grows & (opt.ages > limits)).tolist()
    coins = opt.rng.random(len(candidates))
    reinited = [i for i, coin in zip(candidates, coins) if coin < cfg.reinit_probability]
    fresh = opt.rng.uniform(opt.lower, opt.upper, size=(len(reinited), opt.dim))
    for i, row in zip(reinited, fresh):
        opt.positions[i] = row
        opt.pbest_positions[i] = row
        opt.pbest_fitness[i] = np.inf
        opt.ages[i] = 0
        grows[i] = False
    opt.ages[grows] += 1
    return reinited


class TestChangeResponse:
    def test_static_problem_never_triggers(self):
        opt = make_opt()
        detected = record_returns(opt, "detect_change")
        for _ in range(3):
            opt.iterate()
            assert detected[-1] is False
        assert opt.l_window == 3

    def test_offset_shift_detected_and_memory_rescored(self):
        problem = SwitchableProblem(dimension=4)
        opt = Qcsso(problem, seed=21, budget=10_000)
        opt.iterate()
        problem.shift(offset=50.0)
        assert opt.detect_change() is True
        assert opt.l_window == 0
        for i in range(opt.n):
            expected = evaluate_one(problem, opt.pbest_positions[i])
            assert opt.pbest_fitness[i] == expected
        assert opt.food_fitness == opt.pbest_fitness.min()
        assert opt.detect_change() is False

    def test_center_shift_detected_through_iterate(self):
        problem = SwitchableProblem(dimension=4)
        opt = Qcsso(problem, seed=23, budget=10_000)
        detected = record_returns(opt, "detect_change")
        opt.iterate()
        opt.iterate()
        problem.shift(center_first=3.0)
        opt.iterate()
        assert detected[-1] is True
        assert opt.l_window == 1  # reset, then advanced once

    def test_dimension_growth_resizes_all_state(self):
        problem = SwitchableProblem(dimension=5)
        opt = Qcsso(problem, seed=25, budget=10_000)
        detected = record_returns(opt, "detect_change")
        opt.iterate()
        problem.shift(dimension=7)
        opt.iterate()
        assert detected[-1] is True
        assert opt.dim == 7
        assert opt.positions.shape == (opt.n, 7)
        assert opt.pbest_positions.shape == (opt.n, 7)
        assert opt.food_position.shape == (7,)
        assert np.all(opt.positions >= opt.lower - 1e-12)
        assert np.all(opt.positions <= opt.upper + 1e-12)

    def test_t7_walk_keeps_the_box_and_rescales_the_radius(self):
        inst = make_instance("F3", "T7", 11, overrides={"change_frequency": 200})
        clock = BudgetedRecorder(inst, 10**6)  # fires the changes
        opt = Qcsso(clock, seed=29, budget=10**6)
        dims = {opt.dim}
        for _ in range(12):
            opt.iterate()
            opt.sync_dimension()  # a change may fall inside the iteration
            dims.add(opt.dim)
            assert opt.dim == inst.dimension()
            assert (opt.lower, opt.upper) == (-5.0, 5.0) == inst.bounds()
            radius = 0.1 * float(np.linalg.norm(np.full(opt.dim, 10.0)))
            assert opt._exclusion_radius == radius
            assert np.all(np.abs(opt.positions) <= 5.0)
        assert len(dims) > 2

    def test_dimension_shrink(self):
        problem = SwitchableProblem(dimension=6)
        opt = Qcsso(problem, seed=27, budget=10_000)
        opt.iterate()
        problem.shift(dimension=4)
        opt.iterate()
        assert opt.dim == 4
        assert opt.positions.shape == (opt.n, 4)
        assert opt.food_position.shape == (4,)


class TestChaoticInertia:
    def test_state_advances_through_the_logistic_map(self):
        cfg = QcssoConfig(w_mode="chaotic")
        opt = make_opt(config=cfg)
        assert opt._w == 0.70
        assert_update_uses(opt, w=0.70, b_l=100.0, c=C_START)
        opt.iterate()
        assert abs(opt._w - 0.84) < 1e-12
        opt.iterate()
        assert abs(opt._w - 0.5376) < 1e-12

    def test_next_update_jumps_with_the_advanced_state(self):
        opt = make_opt(config=QcssoConfig(w_mode="chaotic"))
        opt.iterate()
        opt.iterate()
        assert_update_uses(
            opt, w=rules.logistic_step(rules.logistic_step(0.70)),
            b_l=rules.contraction_expansion(2, 100),
            c=rules.follower_coefficient(2, 100),
        )

    def test_fixed_mode_ignores_the_state(self):
        opt = make_opt()
        opt.iterate()
        assert opt._w == rules.W_FIXED == 0.96  # never stepped
        assert_update_uses(
            opt, w=0.96,
            b_l=rules.contraction_expansion(1, 100),
            c=rules.follower_coefficient(1, 100),
        )
