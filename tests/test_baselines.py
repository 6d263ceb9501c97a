"""Reference optimizers: scripted replays and change handling."""

import dataclasses
import math

import numpy as np
import pytest

from dynopt.gdbg.instance import make_instance
from dynopt.optimizers.base import SwarmBase, SwarmConfig, clip_in_place
from dynopt.optimizers.baselines import C1, C2, CHI, PsoBaseline, SsaBaseline
from dynopt.optimizers.qcsso import Qcsso
from dynopt.optimizers.runner import _OPTIMIZERS, OPTIMIZER_IDS, BudgetedRecorder

from conftest import (
    FakeRng,
    StaticFunctionProblem,
    SwitchableProblem,
    evaluate_one,
    record_returns,
    sphere_problem,
)


def make_ssa(population=3, dim=1, budget=400, seed=5, problem=None):
    problem = problem or sphere_problem(dimension=dim)
    return SsaBaseline(problem, seed=seed, budget=budget,
                       config=SwarmConfig(population=population))


def make_pso(population=2, dim=1, budget=300, seed=5, problem=None,
             config=None):
    problem = problem or sphere_problem(dimension=dim)
    cfg = config or SwarmConfig(population=population)
    return PsoBaseline(problem, seed=seed, budget=budget, config=cfg)


class TestConfig:
    @pytest.mark.parametrize("cls", [SsaBaseline, PsoBaseline])
    def test_defaults(self, cls):
        # the one setting a baseline takes: a new setting is added here on purpose
        assert cls.config_type is SwarmConfig
        assert dataclasses.asdict(cls.config_type()) == {"population": 50}

    def test_pso_gains(self):
        assert (CHI, C1, C2) == (0.7298, 1.49618, 1.49618)


class TestSsa:
    def test_iteration_budget(self):
        opt = make_ssa(population=3, budget=400)
        assert opt.max_iterations == 100  # 400 // (3 + 1)

    def test_scripted_iteration(self):
        opt = make_ssa()
        opt.positions = np.array([[0.0], [4.0], [-2.0]])
        opt.food_position = np.array([1.0])
        opt.food_fitness = 1.0
        opt.rng = FakeRng(random=[0.6, 0.7])
        opt.iterate()

        # l = 0 gives c1 = 2; side draw 0.7 puts the leader above the food
        step = 2.0 * (10.0 * 0.6 + (-5.0))
        leader = 1.0 + step
        follower1 = (4.0 + leader) / 2.0
        follower2 = (-2.0 + follower1) / 2.0
        assert abs(opt.positions[0, 0] - leader) < 1e-12
        assert abs(opt.positions[1, 0] - follower1) < 1e-12
        assert abs(opt.positions[2, 0] - follower2) < 1e-12
        # the last follower lands nearest the origin and takes over the food
        assert abs(opt.food_fitness - follower2 ** 2) < 1e-12
        assert abs(opt.food_position[0] - follower2) < 1e-12
        assert opt.l_window == 1
        assert opt.rng.exhausted()

    def test_low_side_draw_mirrors_the_leader(self):
        opt = make_ssa()
        opt.positions = np.array([[0.0], [0.0], [0.0]])
        opt.food_position = np.array([1.0])
        opt.food_fitness = 1.0
        opt.rng = FakeRng(random=[0.6, 0.3])
        opt.iterate()
        step = 2.0 * (10.0 * 0.6 + (-5.0))
        assert abs(opt.positions[0, 0] - (1.0 - step)) < 1e-12

    def test_orbit_shrinks_with_window_age(self):
        opt = make_ssa()
        opt.positions = np.zeros((3, 1))
        opt.food_position = np.array([0.0])
        opt.food_fitness = 0.0
        opt.l_window = 10
        opt.rng = FakeRng(random=[0.6, 1.0])
        opt.iterate()
        c1 = 2.0 * math.exp(-((4.0 * 10.0 / 100.0) ** 2))
        step = c1 * (10.0 * 0.6 + (-5.0))
        assert abs(opt.positions[0, 0] - step) < 1e-12

    def test_window_age_capped_at_horizon(self):
        opt = make_ssa()
        for _ in range(opt.max_iterations + 3):
            opt.iterate()
        # the schedule holds at the horizon rather than running past it
        assert opt.l_window == opt.max_iterations == 100

    def test_food_never_worsens_on_static_problem(self):
        opt = make_ssa(population=4, dim=3, budget=2000)
        history = []
        for _ in range(20):
            opt.iterate()
            history.append(opt.food_fitness)
        assert all(a >= b for a, b in zip(history, history[1:]))

    def test_positions_clamped(self):
        opt = make_ssa(population=4, dim=2, budget=2000)
        for _ in range(10):
            opt.iterate()
            assert np.all(opt.positions >= opt.lower - 1e-12)
            assert np.all(opt.positions <= opt.upper + 1e-12)

    def test_change_rescores_food_and_restarts_orbit(self):
        problem = SwitchableProblem(dimension=3)
        opt = SsaBaseline(problem, seed=9, budget=2000,
                          config=SwarmConfig(population=4))
        opt.iterate()
        opt.iterate()
        assert opt.l_window == 2
        problem.shift(offset=40.0)
        assert opt.detect_change() is True
        assert opt.l_window == 0
        assert opt.food_fitness == evaluate_one(problem, opt.food_position)
        assert opt.detect_change() is False

    def test_dimension_change_resizes_food(self):
        problem = SwitchableProblem(dimension=4)
        opt = SsaBaseline(problem, seed=9, budget=2000,
                          config=SwarmConfig(population=4))
        opt.iterate()
        problem.shift(dimension=6)
        opt.iterate()
        assert opt.dim == 6
        assert opt.food_position.shape == (6,)
        assert opt.positions.shape == (4, 6)

    def test_seeded_determinism(self):
        a = make_ssa(seed=77, population=4, dim=2, budget=2000)
        b = make_ssa(seed=77, population=4, dim=2, budget=2000)
        for _ in range(6):
            a.iterate()
            b.iterate()
        assert a.food_fitness == b.food_fitness
        assert np.array_equal(a.positions, b.positions)


class TestSharedMemory:
    def test_promote_needs_a_strict_improvement(self):
        opt = make_ssa()
        opt.food_position = np.array([1.0])
        opt.food_fitness = 1.0
        opt.promote(np.array([[-1.0], [2.0]]), np.array([1.0, 4.0]))
        assert opt.food_position.tolist() == [1.0]
        opt.promote(np.array([[-1.0], [0.5]]), np.array([1.0, 0.25]))
        assert opt.food_position.tolist() == [0.5]
        assert opt.food_fitness == 0.25

    def test_update_pbests_under_maximization(self):
        problem = StaticFunctionProblem(
            lambda x: float(-np.sum(x * x)), 1, -5.0, 5.0, maximize=True
        )
        opt = PsoBaseline(problem, seed=3, budget=100,
                          config=SwarmConfig(population=3))
        # the swarm keeps a maximized problem's values negated, to minimize
        assert opt.fitness.tolist() == [float(x @ x) for x in opt.positions]
        opt.pbest_fitness = np.array([1.0, 4.0, 9.0])
        opt.pbest_positions = np.array([[1.0], [2.0], [3.0]])
        opt.fitness = np.array([2.0, 4.0, 0.5])
        opt.positions = np.array([[-1.5], [-2.0], [0.7]])
        improved = opt.update_pbests()
        assert improved.tolist() == [False, False, True]
        assert opt.pbest_fitness.tolist() == [1.0, 4.0, 0.5]
        assert opt.pbest_positions[:, 0].tolist() == [1.0, 2.0, 0.7]

    def test_one_change_detector_for_all_swarms(self):
        for cls in (SsaBaseline, PsoBaseline, Qcsso):
            assert cls.detect_change is SwarmBase.detect_change
            assert "iterate" not in vars(cls)  # the one iteration is the base's


class BatchLog(SwitchableProblem):
    """The test bowl, logging the row count of every call."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.sizes = []

    def evaluate(self, xs):
        self.sizes.append(len(xs))
        return super().evaluate(xs)


class NegatedBowl(SwitchableProblem):
    """The test bowl negated, to be maximized."""

    maximize = True

    def evaluate(self, xs):
        return -super().evaluate(xs)

    def optimum_value(self):
        return -self.offset


class TestSkeleton:
    """``SwarmBase.iterate``, the one iteration every registered optimizer runs."""

    @pytest.mark.parametrize("optimizer_id", OPTIMIZER_IDS)
    def test_sentinel_population_probes(self, optimizer_id):
        cls = _OPTIMIZERS[optimizer_id]
        problem = BatchLog(dimension=3)
        problem.frequency = 1000  # the window the iterations fill
        opt = cls(problem, seed=4, budget=10**6)
        assert problem.sizes == [opt.n]  # the initial population
        del problem.sizes[:]
        opt.iterate()
        probes = [opt.config.subpopulations] if optimizer_id == "qcsso" else []
        assert problem.sizes == [1, opt.n] + probes
        # the derived evaluations per iteration fill the window
        spent = sum(problem.sizes)
        assert spent * opt.max_iterations <= 1000 < spent * (opt.max_iterations + 1)

    @pytest.mark.parametrize("optimizer_id", OPTIMIZER_IDS)
    def test_a_maximized_problem_moves_as_its_negation_minimized(self, optimizer_id):
        """The sense lives in ``score`` alone: a swarm on a maximized bowl and
        its twin on the negated bowl, minimized, with one seed, hold the same
        bits at every iteration, through a change and T7 dimension moves."""
        maximized, minimized = NegatedBowl(dimension=5), SwitchableProblem(dimension=5)
        on_max, on_min = swarms = [_OPTIMIZERS[optimizer_id](p, seed=6, budget=10**6)
                                   for p in (maximized, minimized)]
        on_max_detected, detected = (record_returns(opt, "detect_change") for opt in swarms)
        shifts = [{}, {}, {"offset": 3.0}, {}, {"dimension": 7}, {},
                  {"center_first": 1.5, "dimension": 4}, {}]
        for shift in shifts:
            for problem in (maximized, minimized):
                problem.shift(**shift)
            for opt in swarms:
                opt.iterate()
            assert on_max_detected[-1] is detected[-1]
            assert on_max.positions.tobytes() == on_min.positions.tobytes()
            assert on_max.fitness.tobytes() == on_min.fitness.tobytes()
            assert on_max.food_position.tobytes() == on_min.food_position.tobytes()
            assert on_max.food_fitness == on_min.food_fitness
            if on_max.keeps_pbests:
                assert on_max.pbest_positions.tobytes() == on_min.pbest_positions.tobytes()
                assert on_max.pbest_fitness.tobytes() == on_min.pbest_fitness.tobytes()
            assert on_max.rng.bit_generator.state == on_min.rng.bit_generator.state
        assert detected == [False, False, True, False, True, False, True, False]
        assert maximized.evaluations == minimized.evaluations

    @pytest.mark.parametrize("optimizer_id", OPTIMIZER_IDS)
    def test_positions_stay_c_contiguous(self, optimizer_id):
        """The salp chain moves a ``reshape`` view of ``positions`` in place,
        which is a view only while the array is C-contiguous."""
        problem = BudgetedRecorder(
            make_instance("F1(10)", "T7", 3, {"dimension": "5", "change_frequency": "150"}),
            budget=10**5,
        )
        opt = _OPTIMIZERS[optimizer_id](problem, seed=4, budget=10**5)
        assert opt.positions.flags.c_contiguous
        opt.iterate()
        assert opt.positions.flags.c_contiguous
        while opt.dim == 5:  # until a T7 change has moved the dimension
            opt.iterate()
        assert opt.positions.flags.c_contiguous
        assert opt.positions.shape == (opt.n, problem.dimension())
        # the rest of the state followed: pbests, food, and the PSO's
        # velocities, which its move (already run) fits
        state = (getattr(opt, "pbest_positions", None), opt.food_position[None, :],
                 getattr(opt, "velocities", None))
        assert all(a.shape[1] == problem.dimension() for a in state if a is not None)

    @pytest.mark.parametrize("optimizer_id", ["ssa_baseline", "pso_baseline"])
    def test_baselines_flag_a_detected_change(self, optimizer_id):
        cls = _OPTIMIZERS[optimizer_id]
        problem = SwitchableProblem(dimension=4)
        opt = cls(problem, seed=21, budget=10_000)
        detected = record_returns(opt, "detect_change")
        for _ in range(3):
            opt.iterate()
            assert detected[-1] is False
        problem.shift(offset=50.0)
        opt.iterate()
        assert detected[-1] is True
        assert opt.l_window == 1  # reset, then advanced once
        opt.iterate()
        assert detected[-1] is False


class TestClipInPlace:
    SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5.0, -5.0, 7.5, -7.5, 1e-300]

    def test_equals_np_clip_bit_for_bit(self):
        rng = np.random.default_rng(61)
        for lower, upper in ((-5.0, 5.0), (0.0, 1.0), (-1.0, -0.0), (-0.0, 0.0)):
            for n, dim in ((1, 1), (1, 10), (50, 10), (7, 33)):
                rows = rng.uniform(-8.0, 8.0, size=(n, dim))
                rows.flat[: len(self.SPECIAL)] = self.SPECIAL[: rows.size]
                rows.flat[rng.integers(0, rows.size, size=3)] = [np.nan, -0.0, np.inf]
                expected = np.clip(rows, lower, upper)
                clip_in_place(rows, lower, upper)
                assert rows.tobytes() == expected.tobytes()


@pytest.mark.parametrize("optimizer_id, chains", [("ssa_baseline", 1), ("qcsso", 5)])
def test_salp_step_draws_one_block(optimizer_id, chains):
    # ssa_baseline's move and qcsso's bootstrap draw the salp chain's
    # (chains, 2, dim) block as one call
    opt = _OPTIMIZERS[optimizer_id](sphere_problem(dimension=3), 4, 2000)
    twin = np.random.default_rng()
    twin.bit_generator.state = opt.rng.bit_generator.state
    opt.salp_step(chains)
    twin.random((chains, 2, opt.dim))
    assert opt.rng.bit_generator.state == twin.bit_generator.state


class TestPso:
    def test_scripted_iteration(self):
        opt = make_pso()
        opt.positions = np.array([[1.0], [-2.0]])
        opt.velocities = np.array([[0.5], [-0.25]])
        opt.pbest_positions = opt.positions.copy()
        opt.pbest_fitness = np.array([1.0, 4.0])
        opt.food_position = np.array([1.0])
        opt.food_fitness = 1.0
        opt.rng = FakeRng(random=[0.3, 0.6, 0.9, 0.2])
        opt.iterate()

        chi, c1, c2 = 0.7298, 1.49618, 1.49618
        v0 = chi * 0.5 + c1 * 0.3 * (1.0 - 1.0) + c2 * 0.9 * (1.0 - 1.0)
        x0 = 1.0 + v0
        v1 = chi * -0.25 + c1 * 0.6 * (-2.0 - -2.0) + c2 * 0.2 * (1.0 - -2.0)
        x1 = -2.0 + v1
        assert abs(opt.velocities[0, 0] - v0) < 1e-12
        assert abs(opt.velocities[1, 0] - v1) < 1e-12
        assert abs(opt.positions[0, 0] - x0) < 1e-12
        assert abs(opt.positions[1, 0] - x1) < 1e-12
        # only the second particle improved on its memory
        assert opt.pbest_fitness[0] == 1.0
        assert abs(opt.pbest_fitness[1] - x1 ** 2) < 1e-12
        assert abs(opt.pbest_positions[1, 0] - x1) < 1e-12
        assert opt.food_fitness == 1.0
        assert opt.rng.exhausted()

    def test_velocity_clipped_to_span(self):
        opt = make_pso()
        opt.positions = np.array([[-5.0], [0.0]])
        opt.velocities = np.array([[10.0], [0.0]])
        opt.pbest_positions = opt.positions.copy()
        opt.pbest_fitness = np.array([25.0, 0.0])
        opt.food_position = np.array([0.0])
        opt.food_fitness = 0.0
        opt.rng = FakeRng(random=[1.0, 0.0, 1.0, 0.0])
        opt.iterate()
        # raw v0 = 0.7298*10 + 1.49618*(0 - -5) exceeds the span of 10
        assert opt.velocities[0, 0] == 10.0
        assert opt.positions[0, 0] == 5.0
        assert opt.positions[1, 0] == 0.0

    def test_gbest_improves_when_a_particle_does(self):
        opt = make_pso()
        opt.positions = np.array([[2.0], [-3.0]])
        opt.velocities = np.zeros((2, 1))
        opt.pbest_positions = opt.positions.copy()
        opt.pbest_fitness = np.array([4.0, 9.0])
        opt.food_position = np.array([2.0])
        opt.food_fitness = 4.0
        # r1 = 0 kills the memory pull; particle 2 slides toward the gbest
        opt.rng = FakeRng(random=[0.0, 0.0, 0.0, 1.0])
        opt.iterate()
        x1 = -3.0 + 1.49618 * (2.0 - -3.0)
        assert abs(opt.positions[1, 0] - x1) < 1e-12
        assert abs(opt.food_fitness - min(4.0, x1 ** 2)) < 1e-12

    def test_change_rescores_every_memory(self):
        problem = SwitchableProblem(dimension=3)
        opt = PsoBaseline(problem, seed=31, budget=2000,
                          config=SwarmConfig(population=4))
        opt.iterate()
        problem.shift(offset=25.0)
        assert opt.detect_change() is True
        for i in range(opt.n):
            assert opt.pbest_fitness[i] == evaluate_one(problem, opt.pbest_positions[i])
        assert opt.food_fitness == opt.pbest_fitness.min()
        assert opt.detect_change() is False

    @staticmethod
    def velocities_move_reads(opt):
        """The velocities ``move`` reads: with gains (1, 0, 0) and no clip its
        update keeps them as they are."""
        opt._gains = (np.array(1.0), np.array(0.0), np.array(0.0))
        opt._velocity_box = (np.array(-np.inf), np.array(np.inf))
        opt.move()
        return opt.velocities

    def test_dimension_growth_pads_velocities_with_zeros(self):
        problem = SwitchableProblem(dimension=5)
        opt = PsoBaseline(problem, seed=31, budget=2000,
                          config=SwarmConfig(population=4))
        opt.iterate()
        kept = opt.velocities.copy()
        problem.shift(dimension=7)
        assert opt.detect_change() is True  # it fits the swarm first
        assert opt.pbest_positions.shape == (4, 7)
        assert opt.food_position.shape == (7,)
        velocities = self.velocities_move_reads(opt)
        assert velocities.shape == (4, 7)
        assert np.all(velocities[:, 5:] == 0.0)
        assert np.array_equal(velocities[:, :5], kept)

    def test_dimension_shrink_truncates_velocities(self):
        problem = SwitchableProblem(dimension=6)
        opt = PsoBaseline(problem, seed=31, budget=2000,
                          config=SwarmConfig(population=4))
        opt.iterate()
        kept = opt.velocities[:, :4].copy()
        problem.shift(dimension=4)
        assert opt.detect_change() is True
        velocities = self.velocities_move_reads(opt)
        assert velocities.shape == (4, 4)
        assert np.array_equal(velocities, kept)

    def test_gbest_never_worsens_on_static_problem(self):
        opt = make_pso(population=5, dim=3, budget=3000)
        history = []
        for _ in range(20):
            opt.iterate()
            history.append(opt.food_fitness)
        assert all(a >= b for a, b in zip(history, history[1:]))

    def test_seeded_determinism(self):
        a = make_pso(seed=81, population=4, dim=2, budget=2000)
        b = make_pso(seed=81, population=4, dim=2, budget=2000)
        for _ in range(6):
            a.iterate()
            b.iterate()
        assert a.food_fitness == b.food_fitness
        assert np.array_equal(a.velocities, b.velocities)


class TestDrawBounds:
    def test_uniform_box_draws_with_python_floats(self):
        opt = make_ssa(population=4, dim=3)
        assert (opt.lower, opt.upper) == (-5.0, 5.0)
        assert type(opt.lower) is float and type(opt.upper) is float

    def test_scalar_bounds_draw_what_the_array_bounds_drew(self):
        for make in (make_ssa, make_pso):
            opt = make(population=7, dim=4, seed=13)
            expected = np.random.default_rng(13).uniform(
                np.full(4, -5.0), np.full(4, 5.0), size=(7, 4)
            )
            assert opt.positions.tobytes() == expected.tobytes()

    def test_resize_draws_match_array_bounds(self):
        problem = SwitchableProblem(dimension=3)
        opt = make_pso(population=5, problem=problem, seed=21)
        problem.shift(dimension=5)
        opt.sync_dimension()
        rng = np.random.default_rng(21)
        rng.uniform(np.full(3, -5.0), np.full(3, 5.0), size=(5, 3))
        grown = [rng.uniform(np.full(2, -5.0), np.full(2, 5.0), size=(5, 2)),
                 rng.uniform(np.full(2, -5.0), np.full(2, 5.0), size=(5, 2)),
                 rng.uniform(np.full(2, -5.0), np.full(2, 5.0))]
        assert opt.positions[:, 3:].tobytes() == grown[0].tobytes()
        assert opt.pbest_positions[:, 3:].tobytes() == grown[1].tobytes()
        assert opt.food_position[3:].tobytes() == grown[2].tobytes()
