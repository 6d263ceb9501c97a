"""Budget metering, window records, and the single-run entry point."""

import inspect

import numpy as np
import pytest

from dynopt.errors import BudgetExhausted, ConfigError
from dynopt.gdbg.instance import make_instance
from dynopt.harness import ExperimentConfig
from dynopt.objective import DynamicObjective
from dynopt.optimizers.runner import (
    OPTIMIZER_IDS,
    SAMPLES_PER_WINDOW,
    BudgetedRecorder,
    _ratio,
    run,
)

from conftest import evaluate_one, sphere_problem

SMALL_QCSSO = {"population": "6", "subpopulations": "2"}
SMALL_POP = {"population": "6"}


class ScriptedProblem(DynamicObjective):
    """Returns preset values and changes every ``frequency`` evaluations.

    The clock advances the environment before each crossing evaluation,
    so the value of evaluation ``k * frequency`` is already scored against
    environment ``k``, matching the benchmark.
    """

    def __init__(self, values, frequency=0, optima=(0.0,), maximize=False,
                 dim=2):
        self._values = list(values)
        self.frequency = frequency
        self._optima = list(optima)
        self._maximize = maximize
        self._dim = dim
        self.count = 0
        self.t = 0

    @property
    def maximize(self):
        return self._maximize

    def dimension(self):
        return self._dim

    def bounds(self):
        return -5.0, 5.0

    def evaluate(self, xs):
        self.count += len(xs)
        return np.array(self._values[self.count - len(xs):self.count])

    def advance_environment(self):
        self.t += 1

    def optimum_value(self):
        return self._optima[min(self.t, len(self._optima) - 1)]


def feed(recorder, n):
    x = np.zeros((1, recorder.dimension()))
    for _ in range(n):
        recorder.evaluate(x)


class TestRatio:
    def test_plain_ratios(self):
        assert _ratio(50.0, 100.0, True) == 0.5
        assert _ratio(50.0, 25.0, False) == 0.5
        assert _ratio(100.0, 100.0, True) == 1.0

    def test_dust_above_one_clamps(self):
        assert _ratio(100.0 * (1.0 + 0.5e-9), 100.0, True) == 1.0
        assert _ratio(100.0 / (1.0 + 0.5e-9), 100.0, False) == 1.0

    def test_more_than_dust_raises(self):
        with pytest.raises(RuntimeError, match="exceeds 1"):
            _ratio(100.0 * (1.0 + 5e-9), 100.0, True)
        with pytest.raises(RuntimeError):
            _ratio(100.0 / (1.0 + 5e-9), 100.0, False)

    def test_nan_raises(self):
        with pytest.raises(RuntimeError, match="nan"), np.errstate(invalid="ignore"):
            _ratio(0.0, 0.0, True)


class TestRecorder:
    def test_budget_guard_raises_before_forwarding(self):
        problem = ScriptedProblem([1.0] * 10)
        rec = BudgetedRecorder(problem, budget=3)
        feed(rec, 3)
        with pytest.raises(BudgetExhausted):
            rec.evaluate(np.zeros((1, 2)))
        assert problem.count == 3
        assert rec.used == 3

    def test_e_last_frozen_before_the_crossing_evaluation(self):
        # each crossing value beats the window it closes, yet stays out of it
        problem = ScriptedProblem(
            [5.0, 3.0, 2.0, 9.0, 8.0, 0.5], frequency=3,
            optima=[0.0, 1.0, 0.5],
        )
        rec = BudgetedRecorder(problem, budget=6)
        feed(rec, 6)
        assert rec.e_last == [3.0, 1.0]  # |2 - new optimum 1|
        assert rec.best_value == 0.5

    def test_window_best_resets_after_a_change(self):
        problem = ScriptedProblem(
            [2.0, 9.0, 8.0, 1.0], frequency=2, optima=[0.0, 0.0]
        )
        rec = BudgetedRecorder(problem, budget=4)
        feed(rec, 4)
        # the new window starts from the crossing value, not the old best
        assert rec.e_last == [2.0, 8.0]

    def test_best_value_is_the_open_windows_best(self):
        problem = ScriptedProblem([1.0, 9.0, 8.0], frequency=2, optima=[0.0, 0.0])
        rec = BudgetedRecorder(problem, budget=3)
        feed(rec, 3)
        # the closed window's 1.0 is better, but belongs to another environment
        assert rec.best_value == 8.0

    def test_ratio_sampling_offsets(self):
        problem = ScriptedProblem(
            [50.0, 80.0, 90.0, 100.0], frequency=4,
            optima=[100.0, 200.0], maximize=True,
        )
        rec = BudgetedRecorder(problem, budget=4, s_samples=2)
        feed(rec, 4)
        # first window spans 3 evaluations, samples land at offsets 1 and 3
        assert rec.r_last == [0.9]
        assert rec.ratio_samples == [[0.5, 0.9]]
        assert rec.e_last == [10.0]

    def test_more_samples_than_rows_repeat_the_window_best(self):
        # a window never closes before its last offset, so with more samples
        # than rows every sample is taken; offsets share rows
        problem = ScriptedProblem(
            [50.0, 80.0, 90.0], frequency=2, optima=[100.0, 100.0],
            maximize=True,
        )
        rec = BudgetedRecorder(problem, budget=3, s_samples=3)
        feed(rec, 3)
        assert rec.r_last == [0.5]
        assert rec.ratio_samples == [[0.5, 0.5, 0.5]]

    def test_a_frequency_of_one_is_rejected(self):
        # at frequency 1 the first evaluation already crosses, so the first
        # window would close with no row and no sample
        problem = ScriptedProblem([50.0], frequency=1, optima=[100.0], maximize=True)
        with pytest.raises(ConfigError, match="frequency of 1"):
            BudgetedRecorder(problem, budget=1, s_samples=3)
        with pytest.raises(ConfigError, match="frequency of 1"):
            BudgetedRecorder(problem, budget=1)

    def test_no_window_closed_without_changes(self):
        problem = ScriptedProblem([4.0, 2.0, 3.0])
        rec = BudgetedRecorder(problem, budget=3)
        feed(rec, 3)
        assert rec.e_last == []

    @pytest.mark.parametrize("maximize", [False, True])
    def test_a_nan_row_holds_the_best_as_a_running_best_does(self, maximize):
        # a segment's best is the last element of the window's running best,
        # which keeps a NaN once it has met one
        problem = ScriptedProblem([1.0, np.nan, 0.5, 2.0], maximize=maximize)
        rec = BudgetedRecorder(problem, budget=4)
        rec.evaluate(np.zeros((3, 2)))
        assert np.isnan(rec.best_value)
        rec.evaluate(np.zeros((1, 2)))
        assert np.isnan(rec.best_value)

    def test_no_best_value_without_any_evaluation(self):
        rec = BudgetedRecorder(ScriptedProblem([1.0]), budget=1)
        assert rec.best_value is None

    def test_trace_records_every_evaluation(self):
        # the script of test_ratio_sampling_offsets: the trace keeps the
        # error at the two sample points of the closed window
        problem = ScriptedProblem(
            [50.0, 80.0, 90.0, 100.0], frequency=4,
            optima=[100.0, 200.0], maximize=True,
        )
        rec = BudgetedRecorder(problem, budget=4, s_samples=2)
        feed(rec, 4)
        assert rec.trace == [(1, 50.0), (3, 10.0)]

    def test_open_window_adds_nothing_to_the_trace(self):
        problem = ScriptedProblem(
            [50.0, 80.0, 90.0], frequency=4, optima=[100.0], maximize=True
        )
        rec = BudgetedRecorder(problem, budget=3, s_samples=2)
        feed(rec, 3)
        assert rec.trace == []
        assert rec.ratio_samples == []

    @pytest.mark.parametrize("maximize", [False, True])
    def test_a_middle_row_past_the_optimum_raises(self, maximize):
        # the middle row beats the optimum by more than RATIO_DUST; the last
        # row is worse, but the segment's best is the middle row
        past = 100.0 * (1.0 + 5e-9) if maximize else 100.0 / (1.0 + 5e-9)
        worse = 50.0 if maximize else 200.0
        problem = ScriptedProblem(
            [worse, past, worse], frequency=10, optima=[100.0], maximize=maximize
        )
        rec = BudgetedRecorder(problem, budget=3, s_samples=2)
        with pytest.raises(RuntimeError, match="exceeds 1"):
            rec.evaluate(np.zeros((3, 2)))

    def test_samples_per_window_default_is_stated_once(self):
        # S = 20 in-window samples: the recorder, run and the experiment
        # config all default to the one constant
        assert SAMPLES_PER_WINDOW == 20
        for function in (BudgetedRecorder, run):
            default = inspect.signature(function).parameters["s_samples"].default
            assert default is SAMPLES_PER_WINDOW
        assert ExperimentConfig().samples_per_window is SAMPLES_PER_WINDOW

    def test_validation(self):
        problem = ScriptedProblem([1.0])
        with pytest.raises(ConfigError):
            BudgetedRecorder(problem, budget=-1)
        with pytest.raises(ConfigError):
            BudgetedRecorder(problem, budget=5, s_samples=0)

    def test_forwards_problem_surface(self):
        problem = ScriptedProblem([1.0], maximize=True, dim=3)
        rec = BudgetedRecorder(problem, budget=1)
        assert rec.dimension() == 3
        assert rec.maximize is True
        assert rec.bounds() == (-5.0, 5.0)


class TestRun:
    @pytest.mark.parametrize("optimizer_id", OPTIMIZER_IDS)
    def test_budget_spent_exactly(self, optimizer_id):
        overrides = SMALL_QCSSO if optimizer_id == "qcsso" else SMALL_POP
        traj = run(
            optimizer_id, sphere_problem(), budget=137, seed=3,
            overrides=overrides,
        )
        assert traj.evaluations == 137

    def test_zero_budget_runs_nothing(self):
        traj = run("qcsso", sphere_problem(), budget=0, seed=3)
        assert traj.evaluations == 0
        assert traj.e_last == []
        assert traj.best_value is None

    def test_ratio_sampling_is_the_problems_own(self):
        # ``collect_ratios`` may only restate whether the problem changes
        changing = make_instance(
            "F1(10)", "T1", 5, {"dimension": 5, "change_frequency": 100}
        )
        with pytest.raises(ConfigError, match="collect_ratios False differs"):
            run("ssa_baseline", changing, 300, 3, collect_ratios=False)
        with pytest.raises(ConfigError, match="collect_ratios True differs"):
            run("ssa_baseline", sphere_problem(), 300, 3, collect_ratios=True)

    def test_unknown_optimizer(self):
        # checked before the budget is read, so a zero budget is no escape
        for budget in (0, 10):
            with pytest.raises(ConfigError, match="unknown optimizer"):
                run("cmaes", sphere_problem(), budget=budget, seed=3)

    def test_every_window_closes_on_a_real_instance(self):
        problem = make_instance(
            "F1(10)", "T1", seed=17,
            overrides={"dimension": "5", "change_frequency": "50"},
        )
        traj = run(
            "qcsso", problem, budget=250, seed=4,
            frequency=50, s_samples=4,
            overrides=SMALL_QCSSO,
        )
        assert traj.evaluations == 250
        assert len(traj.e_last) == 5
        assert len(traj.r_last) == 5
        assert all(len(row) == 4 for row in traj.ratio_samples)
        for row in traj.ratio_samples:
            assert all(0.0 < r <= 1.0 for r in row)
        assert all(0.0 < r <= 1.0 for r in traj.r_last)
        assert all(e >= 0.0 for e in traj.e_last)

    def test_identical_seeds_reproduce(self):
        results = []
        for _ in range(2):
            problem = make_instance(
                "F2", "T3", seed=23,
                overrides={"dimension": "5", "change_frequency": "60"},
            )
            traj = run(
                "ssa_baseline", problem, budget=300, seed=6,
                frequency=60, overrides=SMALL_POP,
            )
            results.append(traj)
        assert results[0].e_last == results[1].e_last
        assert results[0].ratio_samples == results[1].ratio_samples
        assert results[0].best_value == results[1].best_value

    def test_trace_spans_the_run(self):
        windows, frequency, s_samples = 4, 30, 5
        problem = make_instance(
            "F1(10)", "T1", seed=17,
            overrides={"dimension": "5", "change_frequency": str(frequency)},
        )
        traj = run(
            "pso_baseline", problem, budget=windows * frequency, seed=9,
            frequency=frequency, s_samples=s_samples,
            trace=True, overrides=SMALL_POP,
        )
        assert len(traj.trace) == windows * s_samples
        counts = [count for count, _ in traj.trace]
        assert all(a < b for a, b in zip(counts, counts[1:]))
        assert counts[-1] < windows * frequency
        errors = np.array([err for _, err in traj.trace]).reshape(windows, -1)
        # each window's last sample is its closing error
        assert errors[:, -1].tolist() == traj.e_last

    def test_trace_only_on_request(self):
        problem = make_instance(
            "F1(10)", "T1", seed=17,
            overrides={"dimension": "5", "change_frequency": "30"},
        )
        traj = run(
            "pso_baseline", problem, budget=90, seed=9, frequency=30,
            s_samples=5, overrides=SMALL_POP,
        )
        assert traj.trace == []

    @pytest.mark.parametrize("function_id", ["F1(10)", "F2", "F6"])
    @pytest.mark.parametrize("optimizer_id", OPTIMIZER_IDS)
    def test_runs_through_dimension_changes(self, function_id, optimizer_id):
        problem = make_instance(
            function_id, "T7", seed=29,
            overrides={"dimension": "10", "change_frequency": "200"},
        )
        traj = run(
            optimizer_id, problem, budget=600, seed=8,
            frequency=200, s_samples=4,
        )
        assert traj.evaluations == 600
        assert len(traj.e_last) == 3
        assert problem.dimension() == 13  # walked 10 -> 11 -> 12 -> 13
        assert all(e >= 0.0 for e in traj.e_last)
        assert all(0.0 < r <= 1.0 for r in traj.r_last)

    @pytest.mark.parametrize("frequency", [20, 40, 60])
    @pytest.mark.parametrize("optimizer_id", OPTIMIZER_IDS)
    def test_runs_through_two_changes_in_one_iteration(self, optimizer_id, frequency):
        # an iteration costs 51-107 evaluations, so short windows put two
        # dimension moves inside one population sweep
        problem = make_instance(
            "F3", "T7", seed=13,
            overrides={"dimension": "10", "change_frequency": str(frequency)},
        )
        traj = run(
            optimizer_id, problem, budget=6 * frequency, seed=5,
            frequency=frequency, s_samples=4,
        )
        assert traj.evaluations == problem.eval_count == 6 * frequency
        assert len(traj.e_last) == 6
        assert problem.t == 6

    @pytest.mark.parametrize("frequency", [20, 200])
    @pytest.mark.parametrize("optimizer_id", OPTIMIZER_IDS)
    def test_every_batch_has_the_length_last_read(self, monkeypatch, optimizer_id, frequency):
        # the clock's one dimension rule rests on this: a swarm offers only
        # rows of the length it last read from the clock, however many
        # changes fired since (at 20, two fall inside one iteration)
        reads, offered = [], []
        dimension, evaluate = BudgetedRecorder.dimension, BudgetedRecorder.evaluate

        def spied_dimension(self):
            reads.append(dimension(self))
            return reads[-1]

        def spied_evaluate(self, xs):
            values = evaluate(self, xs)
            offered.append((xs.shape[1], reads[-1], self.problem.dimension()))
            return values

        monkeypatch.setattr(BudgetedRecorder, "dimension", spied_dimension)
        monkeypatch.setattr(BudgetedRecorder, "evaluate", spied_evaluate)
        problem = make_instance(
            "F3", "T7", seed=13,
            overrides={"dimension": "10", "change_frequency": str(frequency)},
        )
        run(optimizer_id, problem, budget=6 * frequency, seed=5,
            s_samples=4)
        assert problem.t == 6
        assert all(length == read for length, read, _ in offered)
        # some batches were stale: a change moved the dimension under them
        assert any(length != now for length, _, now in offered)

    def test_a_frequency_other_than_the_problems_is_rejected(self):
        # the schedule is the problem's own: windows of 200 on a problem
        # that changes every 100 evaluations are refused
        problem = make_instance(
            "F1(10)", "T1", 5, {"dimension": 5, "change_frequency": 100}
        )
        with pytest.raises(ConfigError, match="frequency 200 differs"):
            run("ssa_baseline", problem, 600, 3, s_samples=5, frequency=200)

    def test_the_frequency_is_the_problems_own(self):
        trajectories = []
        for frequency in (None, 100):
            problem = make_instance(
                "F1(10)", "T1", 5, {"dimension": 5, "change_frequency": 100}
            )
            trajectories.append(run(
                "ssa_baseline", problem, 600, 3, s_samples=5,
                frequency=frequency, trace=True,
            ))
        taken, restated = trajectories
        assert len(taken.e_last) == 6
        assert taken.ratio_samples == restated.ratio_samples
        # five samples spread over each window, none padded: the first
        # window spans evaluations 1-99, window w evaluations 100w-100w+99
        counts = [count for count, _ in taken.trace]
        assert counts == [19, 39, 59, 79, 99] + [
            100 * w + offset - 1 for w in range(1, 6) for offset in (20, 40, 60, 80, 100)
        ]

    def test_a_static_problem_is_scored_in_whole_batches(self):
        problem = sphere_problem()
        sizes = []
        score = problem.evaluate

        def logged(xs):
            sizes.append(len(xs))
            return score(xs)

        problem.evaluate = logged
        traj = run("qcsso", problem, budget=300, seed=3, overrides=SMALL_QCSSO)
        assert traj.evaluations == sum(sizes) == 300
        # the initial population is one call, then every iteration's
        # population batch; the budget cuts the last call short
        assert sizes[0] == 6
        assert sizes.count(6) > len(sizes) // 4

    def test_overrides_reach_the_optimizer_config(self):
        for budget in (0, 30):
            with pytest.raises(ConfigError):
                run(
                    "qcsso", sphere_problem(), budget=budget, seed=3,
                    overrides={"population": "7", "subpopulations": "2"},
                )

    @pytest.mark.parametrize("optimizer_id", OPTIMIZER_IDS)
    @pytest.mark.parametrize("change_type", ["T1", "T7"])
    @pytest.mark.parametrize("function_id", ["F1(10)", "F2", "F6"])
    def test_last_sample_is_the_window_close(self, function_id, change_type, optimizer_id):
        # the last sample point is the window's last evaluation, so r_S is
        # r_last and the last traced error is e_last, for windows both
        # narrower and wider than S
        for frequency, s_samples in ((3, 20), (10, 20), (57, 20), (200, 20), (1000, 7)):
            problem = make_instance(
                function_id, change_type, 5, {"change_frequency": frequency}
            )
            traj = run(
                optimizer_id, problem, budget=3 * frequency, seed=3,
                s_samples=s_samples, trace=True,
            )
            assert len(traj.r_last) == 3
            end = 0
            for e_last, r_last, samples in zip(
                traj.e_last, traj.r_last, traj.ratio_samples
            ):
                end += len(samples)
                assert r_last == samples[-1], frequency
                assert e_last == traj.trace[end - 1][1], frequency
            assert end == len(traj.trace)


class TestBatchRecording:
    """A recorder fed by batches records exactly what row-by-row feeding does."""

    FIELDS = ("used", "e_last", "r_last", "ratio_samples", "trace",
              "best_value")

    @staticmethod
    def drive(recorder, sizes, by_rows, seed=5):
        """Feed batches drawn at the current dimension; stop at the budget."""
        rng = np.random.default_rng(seed)
        values = []
        try:
            for n in sizes:
                xs = rng.uniform(-5.0, 5.0, size=(n, recorder.dimension()))
                if by_rows:
                    values += [evaluate_one(recorder, x) for x in xs]
                else:
                    values += recorder.evaluate(xs).tolist()
        except BudgetExhausted:
            pass
        return values

    def assert_same(self, batched, looped):
        for name in self.FIELDS:
            assert getattr(batched, name) == getattr(looped, name), name

    @pytest.mark.parametrize("function_id", ["F1(10)", "F3"])
    @pytest.mark.parametrize("kind", ["T1", "T7"])
    def test_batches_match_rows_on_an_instance(self, function_id, kind):
        recorders, values = [], []
        for by_rows in (False, True):
            problem = make_instance(
                function_id, kind, seed=31,
                overrides={"dimension": "10", "change_frequency": "40"},
            )
            rec = BudgetedRecorder(problem, budget=230, s_samples=7)
            # uneven batches cross single and double changes; the budget
            # cuts the last batch short
            values.append(self.drive(rec, (13, 50, 1, 64, 90, 50), by_rows))
            recorders.append(rec)
            assert rec.used == problem.eval_count == 230
        batched, looped = recorders
        assert values[0] == values[1][: len(values[0])]
        assert len(batched.e_last) == 5
        self.assert_same(batched, looped)

    @pytest.mark.parametrize("maximize", [False, True])
    def test_batch_matches_rows_on_a_scripted_problem(self, maximize):
        def make():
            problem = ScriptedProblem(
                [5.0, 3.0, 7.0, 2.0, 2.0, 9.0, 1.0, 4.0], frequency=3,
                optima=[1.0, 0.5, 0.25] if not maximize else [9.0, 9.5, 10.0],
                maximize=maximize,
            )
            return BudgetedRecorder(problem, budget=7, s_samples=2)

        batched, looped = make(), make()
        with pytest.raises(BudgetExhausted):
            batched.evaluate(np.zeros((8, 2)))
        with pytest.raises(BudgetExhausted):
            for _ in range(8):
                looped.evaluate(np.zeros((1, 2)))
        assert batched.problem.count == looped.problem.count == 7
        assert len(batched.e_last) == 2
        self.assert_same(batched, looped)

