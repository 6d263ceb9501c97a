"""Benchmark instances: construction, the change boundary, and goldens."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from dynopt.errors import BudgetExhausted, ConfigError, DimensionMismatch
from dynopt.gdbg.changes import ChangeType
from dynopt.gdbg.composition import CompositionProblem
from dynopt.gdbg.instance import FUNCTION_IDS, GdbgConfig, GdbgInstance, make_instance
from dynopt.gdbg.peaks import PeakSet
from dynopt.optimizers import BudgetedRecorder, SsaBaseline

from conftest import evaluate_one

DATA_DIR = Path(__file__).parent / "data"


def drive_instance(function_id, change_type, seed, dimension, frequency, evals):
    """Evaluate a seeded random walk and dump values plus parameter history.

    The probe stream is independent of the instance's own RNG, re-queries
    the current dimension before every call, and snapshots every dynamic
    parameter whenever the environment advances.  The text it produces is
    byte-stable, which is what the golden files pin down.
    """
    inst = make_instance(
        function_id, change_type, seed,
        overrides={"dimension": dimension, "change_frequency": frequency},
    )
    probe = np.random.default_rng(seed + 1)
    lines = [f"# {function_id} {change_type} seed={seed} freq={frequency}"]
    lines.extend(inst.param_lines())
    last_t = inst.change_count()
    for i in range(evals):
        x = probe.uniform(-5.0, 5.0, size=inst.dimension())
        value = evaluate_one(inst, x)
        lines.append(f"{i},{value!r}")
        if inst.change_count() != last_t:
            last_t = inst.change_count()
            lines.extend(inst.param_lines())
    return "\n".join(lines) + "\n"


class TestConstruction:
    def test_function_registry(self):
        assert FUNCTION_IDS == ("F1(10)", "F1(50)", "F2", "F3", "F4", "F5", "F6")

    def test_peak_family(self):
        inst = make_instance("F1(10)", "T1", seed=3)
        assert isinstance(inst.problem, PeakSet)
        assert inst.problem.num_peaks == 10
        assert inst.maximize is True
        assert inst.dimension() == 10
        assert inst.frequency == 100_000

    def test_fifty_peak_variant(self):
        inst = make_instance("F1(50)", "T1", seed=3)
        assert inst.problem.num_peaks == 50

    def test_peak_count_is_fixed_by_the_family(self):
        with pytest.raises(ConfigError, match="unknown override 'num_peaks'"):
            make_instance("F1(50)", "T1", seed=3, overrides={"num_peaks": 7})

    def test_composition_families(self):
        inst = make_instance("F2", "T1", seed=3)
        assert isinstance(inst.problem, CompositionProblem)
        assert inst.problem.num_components == 10
        assert inst.problem.func_names == ["sphere"] * 10
        assert inst.maximize is False

    def test_mixed_family_uses_two_of_each_base(self):
        inst = make_instance("F6", "T1", seed=3)
        names = inst.problem.func_names
        assert sorted(set(names)) == [
            "ackley", "griewank", "rastrigin", "sphere", "weierstrass"
        ]
        assert all(names.count(n) == 2 for n in set(names))

    def test_change_type_accepts_enum_and_label(self):
        a = make_instance("F2", ChangeType.RANDOM, seed=3)
        b = make_instance("F2", "T3", seed=3)
        assert a.change_type is b.change_type

    def test_unknown_function_rejected(self):
        with pytest.raises(ConfigError):
            make_instance("F9", "T1", seed=3)

    def test_dimension_limits_enforced(self):
        for bad in (4, 16):
            with pytest.raises(ConfigError):
                make_instance("F2", "T1", seed=3, overrides={"dimension": bad})
        make_instance("F2", "T1", seed=3, overrides={"dimension": 5})
        make_instance("F2", "T1", seed=3, overrides={"dimension": 15})

    def test_config_holds_only_the_settable_keys(self):
        # the generator's other constants are fixed by the GDBG report
        names = [f.name for f in dataclasses.fields(GdbgConfig)]
        assert names == ["dimension", "change_frequency"]
        with pytest.raises(ConfigError, match="unknown override"):
            make_instance("F2", "T1", seed=3, overrides={"height_severity": 2.5})

    def test_frequency_default_tracks_dimension(self):
        assert GdbgConfig(dimension=7).resolved_frequency() == 70_000
        assert GdbgConfig(change_frequency=500).resolved_frequency() == 500

    def test_initial_heights_and_widths(self):
        inst = make_instance("F1(10)", "T1", seed=3)
        assert inst.problem.heights.tolist() == [50.0] * 10
        assert inst.problem.widths.tolist() == [5.0] * 10
        assert inst.optimum_value() == 50.0

    def test_bounds(self):
        inst = make_instance("F2", "T1", seed=3, overrides={"dimension": 6})
        assert inst.bounds() == (-5.0, 5.0)
        assert all(type(b) is float for b in inst.bounds())


class TestChangeBoundary:
    def test_change_fires_on_crossing_evaluation(self):
        inst = make_instance(
            "F1(10)", "T1", seed=5,
            overrides={"dimension": 5, "change_frequency": 10},
        )
        x = np.zeros(5)
        for _ in range(9):
            evaluate_one(inst, x)
            assert inst.change_count() == 0
        evaluate_one(inst, x)
        assert inst.change_count() == 1
        for _ in range(9):
            evaluate_one(inst, x)
            assert inst.change_count() == 1
        evaluate_one(inst, x)
        assert inst.change_count() == 2

    def test_crossing_call_scored_in_new_environment(self):
        inst = make_instance(
            "F1(10)", "T2", seed=5,
            overrides={"dimension": 5, "change_frequency": 10},
        )
        x = np.full(5, 0.5)
        before = evaluate_one(inst, x)
        for _ in range(8):
            evaluate_one(inst, x)
        crossing = evaluate_one(inst, x)
        # the same point, scored directly against the post-change landscape
        assert crossing == evaluate_one(inst.problem, x)
        assert crossing != before

    def test_wrong_dimension_still_rejected(self):
        inst = make_instance("F2", "T1", seed=5, overrides={"dimension": 5})
        with pytest.raises(DimensionMismatch):
            inst.evaluate(np.zeros((1, 6)))

    def test_optimum_moves_with_changes(self):
        inst = make_instance(
            "F1(10)", "T3", seed=5,
            overrides={"dimension": 5, "change_frequency": 10},
        )
        first = inst.optimum_value()
        for _ in range(10):
            evaluate_one(inst, np.zeros(5))
        assert inst.optimum_value() != first


class TestDimensionChanges:
    def test_walk_grows_then_bounces(self):
        inst = make_instance(
            "F1(10)", "T7", seed=7,
            overrides={"dimension": 14, "change_frequency": 5},
        )
        assert inst.dimension() == 14
        for _ in range(5):
            evaluate_one(inst, np.zeros(inst.dimension()))
        assert inst.dimension() == 15
        for _ in range(5):
            evaluate_one(inst, np.zeros(inst.dimension()))
        assert inst.dimension() == 14

    def test_crossing_call_zero_pads_when_growing(self):
        inst = make_instance(
            "F1(10)", "T7", seed=9,
            overrides={"dimension": 10, "change_frequency": 5},
        )
        x = np.linspace(-1.0, 1.0, 10)
        for _ in range(4):
            evaluate_one(inst, x)
        crossing = evaluate_one(inst, x)  # dimension moves 10 -> 11 here
        assert inst.dimension() == 11
        padded = np.concatenate([x, [0.0]])
        assert crossing == evaluate_one(inst.problem, padded)

    def test_crossing_call_truncates_when_shrinking(self):
        inst = make_instance(
            "F1(10)", "T7", seed=9,
            overrides={"dimension": 15, "change_frequency": 5},
        )
        x = np.linspace(-1.0, 1.0, 15)
        for _ in range(4):
            evaluate_one(inst, x)
        crossing = evaluate_one(inst, x)  # walk reverses at the cap: 15 -> 14
        assert inst.dimension() == 14
        assert crossing == evaluate_one(inst.problem, x[:14])

    def test_previous_length_is_padded_after_growth(self):
        inst = make_instance(
            "F1(10)", "T7", seed=9,
            overrides={"dimension": 10, "change_frequency": 5},
        )
        x = np.linspace(-1.0, 1.0, 10)
        for _ in range(5):
            evaluate_one(inst, x)  # the fifth call moves the dimension 10 -> 11
        assert inst.dimension() == 11
        padded = np.concatenate([x, [0.0]])
        assert evaluate_one(inst, x) == evaluate_one(inst.problem, padded)
        assert evaluate_one(inst, padded) == evaluate_one(inst.problem, padded)

    def test_previous_length_is_truncated_after_shrink(self):
        inst = make_instance(
            "F1(10)", "T7", seed=9,
            overrides={"dimension": 15, "change_frequency": 5},
        )
        x = np.linspace(-1.0, 1.0, 15)
        for _ in range(5):
            evaluate_one(inst, x)  # the walk reverses at the cap: 15 -> 14
        assert inst.dimension() == 14
        assert evaluate_one(inst, x) == evaluate_one(inst.problem, x[:14])

    def test_other_lengths_still_rejected_after_a_change(self):
        inst = make_instance(
            "F2", "T7", seed=9,
            overrides={"dimension": 10, "change_frequency": 5},
        )
        for _ in range(5):
            evaluate_one(inst, np.zeros(10))
        assert inst.dimension() == 11
        used = inst.eval_count
        for bad in (9, 12, 15):
            with pytest.raises(DimensionMismatch):
                inst.evaluate(np.zeros((1, bad)))
        with pytest.raises(DimensionMismatch):
            inst.evaluate(np.zeros(10))  # a vector is not a batch
        assert inst.eval_count == used

    def test_last_read_length_is_fitted_after_two_changes(self):
        inst = make_instance(
            "F2", "T7", seed=9,
            overrides={"dimension": 10, "change_frequency": 5},
        )
        assert inst.dimension() == 10
        x = np.linspace(-1.0, 1.0, 10)
        for _ in range(10):
            evaluate_one(inst, x)  # two changes, 10 -> 11 -> 12, within one "sweep"
        assert inst.problem.dim == 12
        padded = np.concatenate([x, [0.0, 0.0]])
        assert evaluate_one(inst, x) == evaluate_one(inst.problem, padded)
        assert evaluate_one(inst, x[:11]) == evaluate_one(inst.problem, padded)
        used = inst.eval_count
        for bad in (9, 13):
            with pytest.raises(DimensionMismatch):
                inst.evaluate(np.zeros((1, bad)))
        with pytest.raises(DimensionMismatch):
            inst.evaluate(np.zeros((3, 13)))
        # once the caller reads the new dimension, length 10 is stale twice over
        assert inst.dimension() == 12
        with pytest.raises(DimensionMismatch):
            evaluate_one(inst, x)
        assert inst.eval_count == used


class TestBatchEvaluation:
    """Batches give exactly the values and counters of the row-by-row loop."""

    @pytest.mark.parametrize("function_id", FUNCTION_IDS)
    def test_landscape_batch_equals_row_loop(self, function_id):
        inst = make_instance(function_id, "T1", seed=3)
        xs = np.random.default_rng(4).uniform(-5.0, 5.0, size=(40, inst.dimension()))
        assert inst.problem.evaluate(xs).tolist() == [
            evaluate_one(inst.problem, x) for x in xs
        ]

    @pytest.mark.parametrize("function_id", ["F1(10)", "F3"])
    @pytest.mark.parametrize(
        "kind, start, rows",
        [
            ("T1", 0, 30),  # one change
            ("T1", 5, 50),  # two changes in one batch
            ("T1", 19, 21),  # the batch starts on the crossing row
            ("T7", 5, 50),  # two dimension moves in one batch
        ],
    )
    def test_instance_batch_equals_twin_fed_by_rows(self, function_id, kind, start, rows):
        batched, looped = (
            make_instance(
                function_id, kind, seed=9,
                overrides={"dimension": 10, "change_frequency": 20},
            )
            for _ in range(2)
        )
        for inst in (batched, looped):
            for _ in range(start):
                evaluate_one(inst, np.zeros(inst.dimension()))
        xs = np.random.default_rng(6).uniform(
            -5.0, 5.0, size=(rows, batched.dimension())
        )
        looped.dimension()
        values = batched.evaluate(xs)
        assert values.tolist() == [evaluate_one(looped, x) for x in xs]
        assert batched.eval_count == looped.eval_count == start + rows
        assert batched.t == looped.t
        assert batched.problem.dim == looped.problem.dim
        assert batched.param_lines() == looped.param_lines()


def count_landscape_calls(monkeypatch, landscape_cls):
    """Wrap ``landscape_cls.evaluate``; the returned list grows by one per call."""
    calls = []
    original = landscape_cls.evaluate

    def counted(self, xs):
        calls.append(np.shape(xs))
        return original(self, xs)

    monkeypatch.setattr(landscape_cls, "evaluate", counted)
    return calls


class TestBestRowMemo:
    """The best row scored in the current environment is answered from memory."""

    @pytest.mark.parametrize("function_id, landscape_cls", [
        ("F1(10)", PeakSet), ("F6", CompositionProblem),
    ])
    def test_remembered_row_skips_the_landscape(self, monkeypatch, function_id, landscape_cls):
        inst = make_instance(
            function_id, "T1", seed=3,
            overrides={"dimension": 5, "change_frequency": 100},
        )
        xs = np.random.default_rng(4).uniform(-5.0, 5.0, size=(30, 5))
        values = inst.evaluate(xs)
        best = xs[int(np.argmax(values) if inst.maximize else np.argmin(values))]
        calls = count_landscape_calls(monkeypatch, landscape_cls)
        value = evaluate_one(inst, best.copy())
        assert calls == []
        assert inst.eval_count == 31
        assert value == evaluate_one(inst.problem, best)

    def test_crossing_row_is_scored_on_the_new_landscape(self, monkeypatch):
        batched, looped = (
            make_instance("F6", "T1", seed=5,
                          overrides={"dimension": 5, "change_frequency": 20})
            for _ in range(2)
        )
        xs = np.random.default_rng(6).uniform(-5.0, 5.0, size=(19, 5))
        values = batched.evaluate(xs)
        assert values.tolist() == [evaluate_one(looped, x) for x in xs]
        best = xs[int(np.argmin(values))]
        calls = count_landscape_calls(monkeypatch, CompositionProblem)
        crossing = evaluate_one(batched, best)  # the 20th evaluation moves t
        assert len(calls) == 1
        assert crossing == evaluate_one(looped, best)
        assert crossing != values.min()
        assert (batched.eval_count, batched.t) == (looped.eval_count, looped.t) == (20, 1)
        # the crossing row is now the best row of the new environment
        assert evaluate_one(batched, best) == crossing
        assert len(calls) == 2  # the twin's crossing call; the replay used none

    def test_a_zero_of_the_other_sign_calls_the_landscape(self, monkeypatch):
        inst = make_instance("F2", "T1", seed=7, overrides={"dimension": 5})
        x = np.array([1.0, 0.0, -2.0, 0.5, 3.0])
        flipped = x.copy()
        flipped[1] = -0.0
        calls = count_landscape_calls(monkeypatch, CompositionProblem)
        evaluate_one(inst, x)
        evaluate_one(inst, flipped)
        assert len(calls) == 2
        evaluate_one(inst, x)
        assert len(calls) == 2

    def test_a_direct_advance_calls_the_landscape(self, monkeypatch):
        inst = make_instance("F2", "T1", seed=7, overrides={"dimension": 5})
        x = np.full(5, 0.5)
        before = evaluate_one(inst, x)
        inst.advance_environment()
        calls = count_landscape_calls(monkeypatch, CompositionProblem)
        after = evaluate_one(inst, x)
        assert len(calls) == 1
        assert after == evaluate_one(inst.problem, x) != before

    def test_a_dimension_move_calls_the_landscape(self, monkeypatch):
        inst = make_instance(
            "F1(10)", "T7", seed=9,
            overrides={"dimension": 10, "change_frequency": 5},
        )
        x = np.linspace(-1.0, 1.0, 10)
        calls = count_landscape_calls(monkeypatch, PeakSet)
        for _ in range(4):
            evaluate_one(inst, x)
        assert len(calls) == 1
        evaluate_one(inst, x)  # the crossing call moves the dimension 10 -> 11
        assert inst.problem.dim == 11 and len(calls) == 2
        padded = np.concatenate([x, [0.0]])
        assert evaluate_one(inst, x) == evaluate_one(inst.problem, padded)
        assert len(calls) == 4  # the stale length and the direct call

    def test_ssa_sentinel_costs_no_landscape_call(self, monkeypatch):
        calls = count_landscape_calls(monkeypatch, CompositionProblem)
        completed = []
        iterate = SsaBaseline.iterate

        def counted(self):
            iterate(self)
            completed.append(1)

        monkeypatch.setattr(SsaBaseline, "iterate", counted)
        inst = make_instance("F2", "T1", seed=5, overrides={"dimension": 5})
        iterations = 20
        budget = 50 + 51 * iterations  # the population, then 20 full iterations
        recorder = BudgetedRecorder(inst, budget, frequency=inst.frequency)
        opt = SsaBaseline(recorder, seed=3, budget=budget, frequency=inst.frequency)
        with pytest.raises(BudgetExhausted):
            opt.run_forever()
        assert len(completed) == iterations
        assert inst.eval_count == budget
        assert len(calls) == 1 + iterations


class TestEnvelopeInvariants:
    def test_peak_values_bounded_by_optimum(self):
        inst = make_instance(
            "F1(10)", "T3", seed=13,
            overrides={"dimension": 5, "change_frequency": 25},
        )
        rng = np.random.default_rng(14)
        for _ in range(150):
            x = rng.uniform(-5.0, 5.0, size=5)
            assert evaluate_one(inst, x) <= inst.optimum_value() + 1e-12

    def test_composition_values_bounded_below_by_optimum(self):
        inst = make_instance(
            "F3", "T3", seed=13,
            overrides={"dimension": 5, "change_frequency": 25},
        )
        rng = np.random.default_rng(15)
        for _ in range(150):
            x = rng.uniform(-5.0, 5.0, size=5)
            assert evaluate_one(inst, x) >= inst.optimum_value() - 1e-9

    def test_param_lines_shape(self):
        inst = make_instance("F1(10)", "T1", seed=3)
        lines = inst.param_lines()
        assert len(lines) == 21  # 10 heights, 10 widths, the shared angle
        assert lines[0] == "0,height[0],50.0"
        assert lines[-1] == "0,rotation_angle,0.0"
        comp = make_instance("F2", "T1", seed=3)
        assert len(comp.param_lines()) == 11

    @pytest.mark.parametrize("function_id", ["F1(10)", "F2"])
    def test_a_change_moves_the_landscape_heights_in_place(self, function_id):
        inst = make_instance(function_id, "T1", seed=3)
        heights = inst.problem.heights
        before = heights.copy()
        inst.advance_environment()
        assert inst.problem.heights is heights
        assert not np.array_equal(heights, before)
        best = heights.max() if inst.maximize else heights.min()
        assert inst.optimum_value() == best

    def test_same_seed_reproduces_landscape(self):
        a = make_instance("F4", "T2", seed=17, overrides={"dimension": 5})
        b = make_instance("F4", "T2", seed=17, overrides={"dimension": 5})
        x = np.full(5, 1.5)
        assert evaluate_one(a, x) == evaluate_one(b, x)
        a.advance_environment()
        b.advance_environment()
        assert evaluate_one(a, x) == evaluate_one(b, x)


class TestGoldenTrajectories:
    """Frozen end-to-end traces guarding against silent behavior drift.

    After a deliberate change, regenerate the files with::

        PYTHONPATH=src python3 tests/test_instance.py
    """

    CASES = {
        "golden_f1_t3.txt": ("F1(10)", "T3", 42, 5, 50, 250),
        "golden_f3_t5.txt": ("F3", "T5", 7, 5, 40, 160),
        "golden_f1_t7.txt": ("F1(10)", "T7", 9, 10, 30, 150),
    }

    @pytest.mark.parametrize("filename", sorted(CASES))
    def test_matches_golden(self, filename):
        args = self.CASES[filename]
        produced = drive_instance(*args)
        expected = (DATA_DIR / filename).read_text(encoding="utf-8")
        assert produced == expected


if __name__ == "__main__":
    for name, args in TestGoldenTrajectories.CASES.items():
        (DATA_DIR / name).write_text(drive_instance(*args), encoding="utf-8")
        print(f"wrote {DATA_DIR / name}")
