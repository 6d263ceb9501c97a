"""The objective contract, through the static wrapper the tests share."""

import numpy as np
import pytest

from dynopt.errors import DimensionMismatch
from dynopt.objective import fit_dimension
from dynopt.optimizers.runner import _OPTIMIZERS, OPTIMIZER_IDS, optimizer_config

from conftest import StaticFunctionProblem, SwitchableProblem, sphere_problem


def test_counts_evaluations():
    prob = sphere_problem(dimension=3)
    assert prob.evaluations == 0
    prob.evaluate(np.zeros((1, 3)))
    prob.evaluate(np.ones((2, 3)))
    assert prob.evaluations == 3


def test_value_and_optimum():
    prob = sphere_problem(dimension=3)
    values = prob.evaluate(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 2.0]]))
    assert values.tolist() == [14.0, 4.0]
    assert prob.optimum_value() == 0.0
    assert prob.frequency == 0  # one environment that never changes
    assert prob.maximize is False


def test_bounds_are_one_float_pair():
    prob = sphere_problem(dimension=4, lower=-2, upper=3)
    assert prob.bounds() == (-2.0, 3.0)
    assert all(type(b) is float for b in prob.bounds())
    assert prob.dimension() == 4


def test_wrong_length_vector_rejected():
    prob = sphere_problem(dimension=3)
    with pytest.raises(DimensionMismatch):
        prob.evaluate(np.zeros((1, 4)))


def test_vector_input_rejected():
    prob = sphere_problem(dimension=3)
    for shape in [(3,), (2, 1, 3), ()]:
        with pytest.raises(DimensionMismatch):
            prob.evaluate(np.zeros(shape))
    assert prob.evaluations == 0


def test_list_input_accepted():
    prob = sphere_problem(dimension=2)
    assert prob.evaluate([[3.0, 4.0]]).tolist() == [25.0]


def test_maximize_flag():
    prob = StaticFunctionProblem(lambda x: 1.0, 2, -1.0, 1.0, maximize=True)
    assert prob.maximize is True


def test_degenerate_bounds_rejected():
    with pytest.raises(ValueError):
        StaticFunctionProblem(lambda x: 0.0, 2, 1.0, 1.0)


class SpyProblem(SwitchableProblem):
    """Records the type, shape and dtype of every argument ``evaluate`` gets."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.calls = []

    def evaluate(self, xs):
        self.calls.append((type(xs), getattr(xs, "shape", None), getattr(xs, "dtype", None)))
        return super().evaluate(xs)


@pytest.mark.parametrize("optimizer_id", OPTIMIZER_IDS)
def test_optimizers_pass_float_batches(optimizer_id):
    """Every call the optimizers make is a 2-D float array, the sentinel included."""
    problem = SpyProblem(dimension=4)
    overrides = {"population": "6"}
    if optimizer_id == "qcsso":
        overrides["subpopulations"] = "2"
    opt = _OPTIMIZERS[optimizer_id](
        problem, 3, 10_000, optimizer_config(optimizer_id, overrides)
    )
    for _ in range(3):
        opt.iterate()
    problem.shift(offset=5.0)  # the sentinel sees it and memory is re-scored
    for _ in range(2):
        opt.iterate()
    assert opt.food_fitness >= 5.0
    assert len(problem.calls) > 5
    for kind, shape, dtype in problem.calls:
        assert kind is np.ndarray and len(shape) == 2 and shape[1] == 4
        assert dtype == np.float64
    assert (1, 4) in {shape for _, shape, _ in problem.calls}


class TestFitDimension:
    """The one T7 rule: keep the leading coordinates or append new ones."""

    @staticmethod
    def rows(n=4, dim=7):
        return np.random.default_rng(3).uniform(-5.0, 5.0, size=(n, dim))

    @pytest.mark.parametrize("dim", [1, 4, 7])
    def test_a_shrink_keeps_the_leading_columns_and_never_pads(self, dim):
        rows = self.rows()

        def pad(shape):
            raise AssertionError(f"pad called with {shape}")

        fitted = fit_dimension(rows, dim, pad)
        assert fitted.shape == (4, dim)
        assert fitted.tobytes() == np.ascontiguousarray(rows[:, :dim]).tobytes()

    @pytest.mark.parametrize("extra", [1, 3])
    def test_a_growth_pads_once_after_the_old_columns(self, extra):
        rows = self.rows()
        calls = []

        def pad(shape):
            calls.append(shape)
            return np.full(shape, 9.5)

        fitted = fit_dimension(rows, 7 + extra, pad)
        assert calls == [(4, extra)]
        assert fitted[:, :7].tobytes() == rows.tobytes()
        assert np.all(fitted[:, 7:] == 9.5)

    @pytest.mark.parametrize("dim", [3, 7, 9])
    def test_a_new_c_contiguous_array_never_a_view(self, dim):
        rows = self.rows()
        for source in (rows, rows[:, 1:]):  # contiguous and strided input
            fitted = fit_dimension(source, dim)
            assert fitted.flags.c_contiguous
            assert not np.shares_memory(fitted, source)
