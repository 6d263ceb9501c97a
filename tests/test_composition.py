"""Composition landscapes against a plain-Python brute-force oracle."""

import math

import numpy as np
import pytest

from dynopt.errors import ConfigError
from dynopt.gdbg import basefuncs as bf
from dynopt.gdbg.composition import (
    DOMINANCE_POWER,
    NORMALIZER,
    SIGMA,
    CompositionProblem,
    stretch_factor,
)
from dynopt.gdbg.instance import make_instance
from dynopt.gdbg.rotation import random_orthogonal

from conftest import evaluate_one


def brute_force_value(x, centers, heights, func_names, matrices, lower, upper,
                      sigma=1.0, normalizer=2000.0):
    """Scalar re-derivation of the composition rule, one component at a time."""
    m = len(func_names)
    dim = len(x)
    half = (upper - lower) / 2.0

    weights = []
    for i in range(m):
        sq = sum((x[j] - centers[i][j]) ** 2 for j in range(dim))
        weights.append(math.exp(-math.sqrt(sq / (2.0 * dim * sigma * sigma))))
    wmax = max(weights)
    weights = [w if w == wmax else w * (1.0 - wmax**10) for w in weights]
    total = sum(weights)
    weights = [w / total for w in weights]

    value = 0.0
    for i in range(m):
        func = bf.BASE_FUNCTIONS[func_names[i]]
        lam = half / bf.NATURAL_HALF_RANGE[func_names[i]]
        shifted = [(x[j] - centers[i][j]) / lam for j in range(dim)]
        z = [sum(shifted[j] * matrices[i][j][e] for j in range(dim))
             for e in range(dim)]
        corner = [upper / lam] * dim
        zc = [sum(corner[j] * matrices[i][j][e] for j in range(dim))
              for e in range(dim)]
        f_max = float(func(np.array(zc)))
        f_prime = normalizer * float(func(np.array(z))) / abs(f_max)
        value += weights[i] * (f_prime + heights[i])
    return value


def small_problem(func_names, seed=71, identity=False, dim=2):
    rng = np.random.default_rng(seed)
    m = len(func_names)
    centers = rng.uniform(-4.0, 4.0, size=(m, dim))
    heights = rng.uniform(20.0, 90.0, size=m)
    if identity:
        matrices = np.stack([np.eye(dim)] * m)
    else:
        matrices = random_orthogonal(m, dim, rng)
    return CompositionProblem(centers, heights, list(func_names), matrices, -5.0, 5.0)


class TestStretchFactors:
    def test_frozen_values(self):
        assert stretch_factor("sphere", 5.0) == 0.05
        assert stretch_factor("rastrigin", 5.0) == 1.0
        assert stretch_factor("weierstrass", 5.0) == 10.0
        assert stretch_factor("griewank", 5.0) == 0.05
        assert stretch_factor("ackley", 5.0) == 0.15625


class TestBruteForceOracle:
    @pytest.mark.parametrize("names", [
        ["sphere", "sphere"],
        ["rastrigin", "ackley"],
        ["griewank", "weierstrass", "sphere"],
    ])
    def test_matches_on_random_points(self, names):
        prob = small_problem(names)
        rng = np.random.default_rng(73)
        for _ in range(25):
            x = rng.uniform(-5.0, 5.0, size=2)
            expected = brute_force_value(
                list(x), prob.centers.tolist(),
                prob.heights.tolist(), names,
                prob.matrices.tolist(), -5.0, 5.0,
            )
            assert abs(evaluate_one(prob, x) - expected) < 1e-9

    def test_matches_with_identity_rotations(self):
        names = ["sphere", "rastrigin"]
        prob = small_problem(names, identity=True)
        rng = np.random.default_rng(79)
        for _ in range(25):
            x = rng.uniform(-5.0, 5.0, size=2)
            expected = brute_force_value(
                list(x), prob.centers.tolist(),
                prob.heights.tolist(), names,
                prob.matrices.tolist(), -5.0, 5.0,
            )
            assert abs(evaluate_one(prob, x) - expected) < 1e-9


def one_vector_value(prob, x):
    """The composition rule for one vector, with numpy scalar arithmetic.

    This is the formula the landscape used before it took batches, with its
    squared distances taken as the einsum coordinate sum; a batch must
    reproduce it bit for bit, or seeded results would move.
    """
    diff = x - prob.centers
    sq_dist = np.einsum("...d,...d->...", diff, diff)
    w = np.exp(-np.sqrt(sq_dist / (2.0 * prob.dim * SIGMA**2)))
    wmax = w.max()
    w = np.where(w == wmax, w, w * (1.0 - wmax**10))
    w /= w.sum()
    scaled = prob.matrices / prob.lambdas[:, None, None]
    z = np.array([d @ s for d, s in zip(diff, scaled)])
    values = np.array(
        [bf.BASE_FUNCTIONS[name](z[i]) for i, name in enumerate(prob.func_names)]
    )
    f_prime = NORMALIZER * values / np.abs(prob._fmax)
    return float(np.sum(w * (f_prime + prob.heights)))


def cycled_f6(count=12, dim=10, seed=41):
    """F6's ten bases cycled to ``count`` components at their initial height."""
    names = make_instance("F6", "T1", seed=seed).problem.func_names
    names = [names[i % len(names)] for i in range(count)]
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-5.0, 5.0, size=(count, dim))
    matrices = random_orthogonal(count, dim, rng)
    heights = np.full(len(names), 50.0)
    return CompositionProblem(centers, heights, names, matrices, -5.0, 5.0)


class TestBatchMatchesOneVectorRule:
    # cycled F6: sphere at 0, 1, 10 and 11, so six runs, two of them sphere
    @pytest.mark.parametrize(
        "case", ["F2", "F3", "F4", "F5", "F6", "F6-cycled-12"]
    )
    def test_bit_exact_near_the_optima(self, case):
        # near an optimum the dominance damping 1 - wmax**10 is far from 1,
        # which is where a different power routine would show
        if case == "F6-cycled-12":
            prob = cycled_f6()
        else:
            prob = make_instance(case, "T1", seed=41).problem
        rng = np.random.default_rng(42)
        centers = prob.centers[rng.integers(0, len(prob.heights), size=400)]
        scales = 10.0 ** rng.uniform(-3.0, 0.5, size=(400, 1))
        xs = np.clip(centers + scales * rng.standard_normal(centers.shape), -5.0, 5.0)
        assert prob.evaluate(xs).tolist() == [one_vector_value(prob, x) for x in xs]


class TestOptimum:
    def test_every_component_attains_its_height_at_its_center(self):
        # every component, so each base function is checked at its optimum
        for family in ("F2", "F3", "F4", "F5", "F6"):
            problem = make_instance(family, "T1", seed=7).problem
            values = problem.evaluate(problem.centers)
            for value, height in zip(values.tolist(), problem.heights.tolist()):
                gap = abs(value - height)
                assert gap < 1e-6, f"{family} optimum off its height by {gap}"

    def test_optimum_value_is_smallest_height(self):
        prob = small_problem(["sphere", "rastrigin", "ackley"], identity=True)
        values = prob.heights.tolist()
        assert prob.optimum_value() == min(values)
        best = int(np.argmin(values))
        assert np.array_equal(prob.optimum_position(), prob.centers[best])

    @pytest.mark.parametrize("names", [
        ["sphere"] * 3, ["rastrigin"] * 3, ["griewank"] * 3,
        ["ackley"] * 3, ["weierstrass"] * 3,
    ])
    def test_value_at_optimum_equals_floor(self, names):
        prob = small_problem(names, identity=True)
        gap = abs(evaluate_one(prob, prob.optimum_position()) - prob.optimum_value())
        assert gap < 1e-9

    def test_evaluate_never_beats_floor(self):
        prob = small_problem(["sphere", "ackley"], identity=True)
        rng = np.random.default_rng(83)
        for _ in range(200):
            x = rng.uniform(-5.0, 5.0, size=2)
            assert evaluate_one(prob, x) >= prob.optimum_value() - 1e-9


class TestDominanceWeighting:
    def test_far_component_has_no_pull_at_an_optimum(self):
        # at component 0's optimum its weight is exactly 1, so the value
        # equals its height no matter how the other component is scored
        centers = np.array([[-3.0, -3.0], [3.0, 3.0]])
        prob = CompositionProblem(
            centers, [40.0, 70.0], ["sphere", "sphere"],
            np.stack([np.eye(2)] * 2), -5.0, 5.0,
        )
        assert abs(evaluate_one(prob, np.array([-3.0, -3.0])) - 40.0) < 1e-9
        assert abs(evaluate_one(prob, np.array([3.0, 3.0])) - 70.0) < 1e-9

    def test_vector_power_equals_python_power(self):
        # the damping takes wmax^10 through np.float_power, which must give
        # the bits of Python's scalar ``v**10`` (np.power need not)
        rng = np.random.default_rng(2009)
        near_one = 1.0 - rng.uniform(0.0, 1e-12, 1000)
        wmax = np.concatenate([
            np.exp(-np.sqrt(rng.uniform(0.0, 200.0, 100_000))), near_one,
            [0.0, 1.0, 5e-324, np.nextafter(1.0, 0.0)],
        ])
        expected = np.array([v**DOMINANCE_POWER for v in wmax.tolist()])
        got = np.float_power(wmax, np.array(float(DOMINANCE_POWER)))
        assert got.tobytes() == expected.tobytes()


class TestNormalizationGuard:
    def test_degenerate_corner_rejected(self):
        # an all-zero corner zeroes every base function, which must refuse
        centers = np.zeros((1, 2))
        with pytest.raises(ConfigError):
            CompositionProblem(
                centers, [50.0], ["sphere"],
                np.stack([np.eye(2)]), -5.0, 0.0,
            )


class TestInPlaceChanges:
    def test_height_changes_seen_by_the_next_evaluation(self):
        prob = small_problem(["sphere", "sphere"], identity=True)
        target = prob.optimum_position().copy()
        before = evaluate_one(prob, target)
        prob.heights += 5.0
        assert abs(evaluate_one(prob, target) - (before + 5.0)) < 1e-9


class TestConstruction:
    def test_unknown_base_rejected(self):
        with pytest.raises(ConfigError):
            CompositionProblem(
                np.zeros((1, 2)), [50.0], ["parabola"],
                np.stack([np.eye(2)]), -5.0, 5.0,
            )

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            CompositionProblem(
                np.zeros((2, 2)), [50.0], ["sphere", "sphere"],
                np.stack([np.eye(2)] * 2), -5.0, 5.0,
            )

    def test_centers_must_be_a_table(self):
        with pytest.raises(ValueError, match=r"centers must be an \(m, dim\) array"):
            CompositionProblem(
                np.zeros(2), [50.0], ["sphere"], np.stack([np.eye(2)]), -5.0, 5.0,
            )


class TestRowEqualsBatch:
    """A row's value does not depend on the batch it comes in.

    The instance's sentinel memo answers a one-row request with the value
    the row had in a population batch, so the two must be equal bit for
    bit; the contraction is one vector-matrix product per (row, component)
    for that reason.
    """

    @staticmethod
    def states(function_id, dim):
        inst = make_instance(function_id, "T1", seed=91, overrides={"dimension": dim})
        yield inst.problem
        inst.advance_environment()
        yield inst.problem
        inst = make_instance(function_id, "T7", seed=93, overrides={"dimension": dim})
        inst.advance_environment()
        yield inst.problem

    @pytest.mark.parametrize("dim", [5, 10, 15])
    @pytest.mark.parametrize("function_id", ["F2", "F3", "F4", "F5", "F6"])
    def test_batches_equal_their_rows(self, function_id, dim):
        rng = np.random.default_rng(95)
        for prob in self.states(function_id, dim):
            xs = rng.uniform(prob.lower, prob.upper, size=(50, prob.dim))
            rows = np.array([prob.evaluate(x[None, :])[0] for x in xs])
            for n in (1, 5, 7, 50):
                assert prob.evaluate(xs[:n]).tobytes() == rows[:n].tobytes(), n
