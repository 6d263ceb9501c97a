"""The five base landscapes, against hand-computed and series-oracle values."""

import math

import numpy as np
import pytest

from dynopt.gdbg import basefuncs as bf
from dynopt.gdbg.changes import DIM_MAX, DIM_MIN


ALL_FUNCS = sorted(bf.BASE_FUNCTIONS)
EPS = np.finfo(float).eps


def test_registry_contents():
    assert ALL_FUNCS == ["ackley", "griewank", "rastrigin", "sphere", "weierstrass"]


@pytest.mark.parametrize("name", ALL_FUNCS)
def test_zero_at_origin(name):
    func = bf.BASE_FUNCTIONS[name]
    for dim in (1, 3, 10):
        assert abs(float(func(np.zeros(dim)))) < 1e-9


@pytest.mark.parametrize("name", ALL_FUNCS)
def test_nonnegative_on_random_points(name):
    func = bf.BASE_FUNCTIONS[name]
    rng = np.random.default_rng(29)
    for _ in range(200):
        x = rng.uniform(-5.0, 5.0, size=6)
        assert float(func(x)) >= -1e-9


@pytest.mark.parametrize("name", ALL_FUNCS)
def test_batch_axis_matches_loop(name):
    func = bf.BASE_FUNCTIONS[name]
    rng = np.random.default_rng(31)
    batch = rng.uniform(-2.0, 2.0, size=(7, 4))
    vectorized = np.asarray(func(batch))
    assert vectorized.shape == (7,)
    for i in range(7):
        assert abs(vectorized[i] - float(func(batch[i]))) < 1e-12


def test_sphere_hand_value():
    assert float(bf.sphere(np.array([1.0, 2.0, 3.0]))) == 14.0


def test_rastrigin_hand_value():
    # per coordinate at 0.5: 0.25 - 10*cos(pi) + 10 = 20.25
    assert abs(float(bf.rastrigin(np.array([0.5] * 3))) - 60.75) < 1e-12


def test_griewank_hand_value():
    expected = 1.0 / 4000.0 - math.cos(1.0) + 1.0
    assert abs(float(bf.griewank(np.array([1.0]))) - expected) < 1e-12


def test_griewank_uses_sqrt_index_denominators():
    # second coordinate is divided by sqrt(2) inside the cosine product
    x = np.array([0.0, math.sqrt(2.0)])
    expected = 2.0 / 4000.0 - math.cos(1.0) + 1.0
    assert abs(float(bf.griewank(x)) - expected) < 1e-12


def test_griewank_cached_divisor_gives_the_same_bits():
    # dimensions change under T7, so several lengths share the cache
    rng = np.random.default_rng(41)
    for n in (1, 10, 11, 3, 10, 50):
        xs = rng.uniform(-100.0, 100.0, size=(7, n))
        idx = np.sqrt(np.arange(1, n + 1, dtype=float))
        direct = (
            np.einsum("...d,...d->...", xs, xs) / 4000.0
            - np.multiply.reduce(np.cos(xs / idx), axis=-1)
            + 1.0
        )
        assert bf.griewank(xs).tobytes() == direct.tobytes()
        assert bf.griewank(xs[0]) == direct[0]
    with pytest.raises(ValueError):
        bf._griewank_divisor(4)[0] = 1.0  # read-only, so no caller can spoil it


def test_ackley_hand_value():
    expected = -20.0 * math.exp(-0.2 * 0.5) - math.exp(-1.0) + 20.0 + math.e
    assert abs(float(bf.ackley(np.array([0.5, 0.5]))) - expected) < 1e-12


def test_weierstrass_series_oracle():
    # truncated series recomputed term by term with plain floats
    a, b, kmax = 0.5, 3.0, 20
    x = 0.25
    inner = sum(
        a**k * math.cos(2.0 * math.pi * b**k * (x + 0.5)) for k in range(kmax + 1)
    )
    offset = sum(a**k * math.cos(math.pi * b**k) for k in range(kmax + 1))
    expected = inner - offset
    assert abs(float(bf.weierstrass(np.array([x]))) - expected) < 1e-9


def test_weierstrass_additive_over_coordinates():
    one = float(bf.weierstrass(np.array([0.3])))
    other = float(bf.weierstrass(np.array([-0.1])))
    both = float(bf.weierstrass(np.array([0.3, -0.1])))
    assert abs(both - (one + other)) < 1e-9


def test_natural_half_ranges():
    assert bf.NATURAL_HALF_RANGE == {
        "sphere": 100.0,
        "rastrigin": 5.0,
        "weierstrass": 0.5,
        "griewank": 100.0,
        "ackley": 32.0,
    }


def _weierstrass_sine_oracle(row):
    # each term minus its offset is 2 a^k sin^2(pi b^k x), b^k being odd;
    # summed with plain floats, every sine taken directly
    return math.fsum(
        2.0 * 0.5**k * math.sin(math.pi * 3.0**k * xi) ** 2
        for xi in row
        for k in range(21)
    )


@pytest.mark.parametrize(
    "half_range, relative, bound",
    [(0.5, False, 1e-11), (1e-5, True, 1e-12), (8.0, False, 2e-10)],
)
def test_weierstrass_matches_direct_sine_oracle(half_range, relative, bound):
    points = np.random.default_rng(37).uniform(-half_range, half_range, (400, 10))
    expected = np.array([_weierstrass_sine_oracle(row) for row in points])
    error = np.abs(bf.weierstrass(points) - expected)
    if relative:
        error = error / expected
    assert error.max() <= bound


def test_weierstrass_exactly_zero_at_origin():
    for dim in (1, 3, 10):
        assert float(bf.weierstrass(np.zeros(dim))) == 0.0


def test_weierstrass_nonnegative_without_tolerance():
    rng = np.random.default_rng(41)
    for scale in (1e-8, 1e-3, 0.5, 5.0):
        points = rng.uniform(-scale, scale, size=(500, 6))
        assert (bf.weierstrass(points) >= 0.0).all()


# -- the coordinate-sum primitive ------------------------------------------

PRIMITIVES = {
    "coordinate_sum": (bf.coordinate_sum, lambda x: x),
    "squared_norm": (bf.squared_norm, lambda x: x * x),
}


def _stacks(dim, rng):
    """(n, components, dim) stacks at the batch sizes the optimizers use,
    far from and within 1e-7 of an optimum; 50 components is F1(50)'s count."""
    for n in (1, 5, 50):
        for components in (10, 50):
            yield rng.uniform(-100.0, 100.0, size=(n, components, dim))
            yield 1e-7 * rng.uniform(-1.0, 1.0, size=(n, components, dim))


@pytest.mark.parametrize("dim", range(DIM_MIN, DIM_MAX + 1))
@pytest.mark.parametrize("name", sorted(PRIMITIVES))
class TestCoordinateSum:
    def test_row_equals_its_one_row_batch(self, name, dim):
        total = PRIMITIVES[name][0]
        for z in _stacks(dim, np.random.default_rng(101)):
            batch = total(z)
            assert batch.shape == z.shape[:2]
            for i in range(len(z)):
                assert total(z[i : i + 1]).tobytes() == batch[i : i + 1].tobytes()

    def test_strided_run_slice_equals_its_copy(self, name, dim):
        total = PRIMITIVES[name][0]
        for z in _stacks(dim, np.random.default_rng(103)):
            for run in (slice(4, 6), slice(0, 1), slice(9, 10), slice(3, 10)):
                view = z[:, run]
                assert total(view).tobytes() == total(view.copy()).tobytes()

    def test_vector_equals_its_row_in_a_batch(self, name, dim):
        total = PRIMITIVES[name][0]
        for z in _stacks(dim, np.random.default_rng(107)):
            batch = total(z)
            for i, j in ((0, 0), (len(z) - 1, 9), (len(z) // 2, 3)):
                assert total(z[i, j]) == batch[i, j]
                assert total(z[i]).tobytes() == batch[i].tobytes()

    def test_within_the_fixed_order_bound_of_add_reduce(self, name, dim):
        total, terms = PRIMITIVES[name]
        for z in _stacks(dim, np.random.default_rng(109)):
            a = terms(z)
            gap = np.abs(total(z) - np.add.reduce(a, axis=-1))
            assert np.all(gap <= (dim - 1) * EPS * np.add.reduce(np.abs(a), axis=-1))

    def test_zero_vectors_sum_to_exact_zero(self, name, dim):
        total = PRIMITIVES[name][0]
        assert total(np.zeros(dim)) == 0.0
        assert not np.any(total(np.zeros((5, 10, dim))))
