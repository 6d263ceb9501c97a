"""Seed derivation, case selection, weights, and experiment orchestration."""

import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest

from dynopt.errors import ConfigError
from dynopt.harness import experiment
from dynopt.harness.cases import (
    CHANGE_LABELS,
    Case,
    all_cases,
    official_weights,
    select_cases,
    uniform_weights,
)
from dynopt.harness.experiment import (
    ExperimentConfig,
    derive_seed,
    optimizer_seed,
    problem_seed,
    run_experiment,
    run_single,
)
from dynopt.harness.stats import error_stats, overall_score, validate_weight_table
from dynopt.optimizers.runner import OPTIMIZER_IDS, optimizer_config
from dynopt.overrides import parse_kv_pairs

from conftest import collect_cells

TINY = dict(
    runs=1,
    num_change=2,
    change_frequency=120,
    samples_per_window=3,
    dimension=5,
    seed=7,
    overrides={
        "qcsso": {"population": "6", "subpopulations": "2"},
        "ssa_baseline": {"population": "6"},
        "pso_baseline": {"population": "6"},
    },
)

# each bad prefixed override, with the error it must raise
BAD_OVERRIDES = {
    "gdbg.height_severity=2.5": "unknown experiment setting 'gdbg.height_severity'",
    "gdbg.num_peak=25": "unknown experiment setting 'gdbg.num_peak'",
    "gdbg.num_peaks=25": "unknown experiment setting 'gdbg.num_peaks'",
    "qcsso.popultion=30": "unknown override 'popultion'",
    "ssa.chi=0.7": "unknown override 'chi'",
    "pso.chii=0.7": "unknown override 'chii'",
    "pso.population=lots": "cannot interpret",
    "qcsso.population=7": "split evenly",
}


def tiny_config(**extra):
    settings = dict(TINY)
    settings.update(extra)
    return ExperimentConfig(**settings)


class TestSeeds:
    def test_frozen_values(self):
        assert derive_seed(0, "a") == 14598278634844962250
        assert derive_seed(12345, "x", "y") == 8726437230880142401
        assert problem_seed(12345, "F2:T1", 0) == 10684047117623258487
        assert problem_seed(12345, "F2:T1", 1) == 13572238345948914282
        assert optimizer_seed(12345, "F2:T1", "qcsso", 0) == 10419508058066477995
        assert optimizer_seed(12345, "F2:T1", "ssa_baseline", 0) == 3150119910121590726

    def test_base_mixes_by_xor(self):
        assert derive_seed(12345, "a") == derive_seed(0, "a") ^ 12345

    def test_problem_stream_ignores_the_optimizer(self):
        # paired comparisons: every optimizer faces the same landscape
        assert problem_seed(1, "F3:T2", 4) == problem_seed(1, "F3:T2", 4)
        assert optimizer_seed(1, "F3:T2", "qcsso", 4) != optimizer_seed(
            1, "F3:T2", "pso_baseline", 4
        )

    def test_streams_differ_across_parts(self):
        seeds = {
            problem_seed(9, "F2:T1", 0),
            problem_seed(9, "F2:T1", 1),
            problem_seed(9, "F2:T2", 0),
            optimizer_seed(9, "F2:T1", "qcsso", 0),
        }
        assert len(seeds) == 4


class TestCases:
    def test_grid_size_and_order(self):
        grid = all_cases()
        assert len(grid) == 49
        assert grid[0].case_id == "F1(10):T1"
        assert grid[6].case_id == "F1(10):T7"
        assert grid[7].case_id == "F1(50):T1"
        assert grid[-1].case_id == "F6:T7"

    def test_empty_selection_is_everything(self):
        assert select_cases(()) == all_cases()
        assert select_cases(("",)) == all_cases()

    def test_family_selector(self):
        picked = select_cases(["F2"])
        assert len(picked) == 7
        assert all(c.function_id == "F2" for c in picked)

    def test_bare_prefix_matches_both_peak_variants(self):
        picked = select_cases(["F1"])
        assert len(picked) == 14
        assert {c.function_id for c in picked} == {"F1(10)", "F1(50)"}

    def test_exact_case_selector(self):
        picked = select_cases(["F1(50):T7"])
        assert [c.case_id for c in picked] == ["F1(50):T7"]

    def test_change_type_selector(self):
        picked = select_cases(["T4"])
        assert len(picked) == 7
        assert all(c.change_type == "T4" for c in picked)

    def test_duplicates_collapse_and_order_is_canonical(self):
        picked = select_cases(["F2", "F2:T1", "T2", "F1(10):T1"])
        ids = [c.case_id for c in picked]
        assert ids == sorted(set(ids), key=[c.case_id for c in all_cases()].index)
        assert ids.count("F2:T1") == 1

    def test_whitespace_tolerated(self):
        assert select_cases([" F2:T1 "])[0].case_id == "F2:T1"

    def test_unknown_function(self):
        with pytest.raises(ConfigError, match="unknown function"):
            select_cases(["F9"])
        with pytest.raises(ConfigError, match="unknown function"):
            select_cases(["F9:T1"])

    def test_unknown_change_type(self):
        with pytest.raises(ConfigError, match="unknown change type"):
            select_cases(["F2:T9"])

    def test_malformed_selector(self):
        for bad in ("F2::T1", "F2:T1:x", "F2 T1"):
            with pytest.raises(ConfigError, match="malformed case selector"):
                select_cases([bad])


class TestWeights:
    def test_uniform_table(self):
        table = uniform_weights()
        assert len(table) == 49
        assert table["F3:T4"] == 100.0 / 49.0
        validate_weight_table(table, [c.case_id for c in all_cases()])

    def test_official_table(self):
        table = official_weights()
        assert table["F1(10):T1"] == 1.5
        assert table["F1(10):T7"] == 1.0
        assert table["F1(50):T3"] == 1.5
        assert table["F2:T1"] == 2.4
        assert table["F6:T7"] == 1.6
        assert abs(math.fsum(table.values()) - 100.0) < 1e-9
        validate_weight_table(table, [c.case_id for c in all_cases()])

    def test_perfect_scores_total_one_hundred(self):
        perfect = {c.case_id: 1.0 for c in all_cases()}
        assert abs(overall_score(perfect, official_weights()) - 100.0) < 1e-9


class TestConfig:
    def test_defaults(self):
        config = ExperimentConfig()
        assert config.runs == 20
        assert config.num_change == 60
        assert config.change_frequency == 0
        assert config.samples_per_window == 20
        assert config.dimension == 10
        assert config.seed == 12345
        assert config.weights == "uniform"
        assert config.jobs == 1
        assert config.trace is False
        assert config.optimizers == ("qcsso", "ssa_baseline", "pso_baseline")

    def test_resolved_frequency_and_budget(self):
        config = ExperimentConfig(dimension=10)
        assert config.resolved_frequency() == 100_000
        assert config.budget() == 6_000_000
        explicit = ExperimentConfig(change_frequency=500, num_change=3)
        assert explicit.resolved_frequency() == 500
        assert explicit.budget() == 1500

    def test_from_pairs_routing(self):
        config = ExperimentConfig.from_pairs(
            {
                "runs": "3",
                "trace": "yes",
                "cases": "F2:T1, F3",
                "optimizers": "qcsso,ssa_baseline",
                "qcsso.w_mode": "chaotic",
                "ssa.population": "10",
                "pso.population": "12",
            }
        )
        assert config.runs == 3
        assert config.trace is True
        assert config.cases == ("F2:T1", "F3")
        assert config.optimizers == ("qcsso", "ssa_baseline")
        assert config.overrides == {
            "qcsso": {"w_mode": "chaotic"},
            "ssa_baseline": {"population": "10"},
            "pso_baseline": {"population": "12"},
        }

    @pytest.mark.parametrize("cases", [
        "F2:T1, F3", ("F2:T1", "F3"), ["F2:T1", "F3"],
    ])
    def test_cases_as_string_tuple_or_list(self, cases):
        config = ExperimentConfig.from_pairs({"cases": cases, "runs": "2"})
        assert config == ExperimentConfig(cases=("F2:T1", "F3"), runs=2)

    def test_an_unknown_selected_optimizer_fails_once(self):
        with pytest.raises(ConfigError) as excinfo:
            ExperimentConfig.from_pairs({"optimizers": "qcsso, nope"})
        assert str(excinfo.value) == (
            "unknown optimizer 'nope'; expected one of "
            "qcsso, ssa_baseline, pso_baseline"
        )

    def test_from_pairs_accepts_whole_floats(self):
        assert ExperimentConfig.from_pairs({"runs": "10.0"}).runs == 10

    def test_from_pairs_rejects_fractions_and_garbage(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_pairs({"runs": "10.5"})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_pairs({"trace": "perhaps"})

    def test_unknown_setting(self):
        with pytest.raises(ConfigError, match="unknown experiment setting"):
            ExperimentConfig.from_pairs({"colour": "red"})

    def test_every_settable_key_is_counted_and_documented(self):
        # a new setting is added here and to the README on purpose
        assert sorted(experiment._PREFIXES.values()) == sorted(OPTIMIZER_IDS)
        keys = [f.name for f in dataclasses.fields(ExperimentConfig)
                if f.name != "overrides"]
        for prefix, optimizer_id in experiment._PREFIXES.items():
            config = optimizer_config(optimizer_id, {})
            keys += [f"{prefix}.{f.name}" for f in dataclasses.fields(config)]
        assert len(keys) == 20
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        # the README names an optimizer's settings without their prefix
        missing = [key for key in keys if f"`{key.rpartition('.')[2]}`" not in readme]
        assert missing == []

    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(runs=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(num_change=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(change_frequency=-1)
        with pytest.raises(ConfigError, match="at least 2"):
            ExperimentConfig(change_frequency=1)
        assert ExperimentConfig(change_frequency=2).budget() == 120
        with pytest.raises(ConfigError):
            ExperimentConfig(samples_per_window=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(jobs=0)
        with pytest.raises(ConfigError, match="unknown optimizer"):
            ExperimentConfig(optimizers=("gradient_descent",))
        with pytest.raises(ConfigError, match="at least one optimizer"):
            ExperimentConfig(optimizers=())

    @pytest.mark.parametrize("key", ["dimension", "change_frequency"])
    def test_gdbg_copy_of_an_experiment_key_rejected(self, key):
        # one source per setting: the experiment key sets the instance too
        with pytest.raises(ConfigError, match=f"unknown experiment setting 'gdbg.{key}'"):
            ExperimentConfig.from_pairs({"change_frequency": "1000", f"gdbg.{key}": "500"})

    @pytest.mark.parametrize("pair,message", BAD_OVERRIDES.items(),
                             ids=list(BAD_OVERRIDES))
    def test_prefixed_overrides_checked_when_built(self, pair, message):
        # a bad override fails here, not at the first run that reads it
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_pairs(parse_kv_pairs([pair]))

    def test_overrides_for(self):
        config = tiny_config()
        for optimizer_id in ("qcsso", "ssa_baseline", "pso_baseline"):
            assert config.overrides_for(optimizer_id) == TINY["overrides"][optimizer_id]
        assert ExperimentConfig().overrides_for("qcsso") == {}

    def test_overrides_for_an_unknown_optimizer_rejected(self):
        with pytest.raises(ConfigError, match="unknown optimizer 'ssa'"):
            ExperimentConfig(overrides={"ssa": {"population": "6"}})


class TestRunSingle:
    def test_windows_and_shapes(self):
        config = tiny_config()
        traj = run_single(config, Case("F1(10)", "T1"), "qcsso", 0)
        assert traj.evaluations == 240
        assert len(traj.e_last) == 2
        assert len(traj.r_last) == 2
        assert all(len(row) == 3 for row in traj.ratio_samples)
        assert all(0.0 < r <= 1.0 for r in traj.r_last)

    def test_compositions_and_baselines(self):
        config = tiny_config()
        traj = run_single(config, Case("F3", "T2"), "pso_baseline", 0)
        assert len(traj.e_last) == 2
        assert all(e >= 0.0 for e in traj.e_last)


class Markers:
    """Where ``marked_run_single`` leaves its files; set per test."""

    dir = None


def marked_run_single(config, case, optimizer_id, run_index):
    """``run_single`` that leaves a marker file first, then takes a while."""
    (Markers.dir / f"{case.function_id}_{case.change_type}_{optimizer_id}_{run_index}").touch()
    time.sleep(0.1)
    return run_single(config, case, optimizer_id, run_index)


class TestOneCell:
    """One (case, optimizer) cell through ``run_experiment``."""

    @staticmethod
    def cell(optimizer_id, **changes):
        config = tiny_config(
            cases=("F1(10):T1",), optimizers=(optimizer_id,), **changes
        )
        return collect_cells(config).results[("F1(10):T1", optimizer_id)]

    def test_dense_arrays(self):
        result = self.cell("qcsso", runs=2)
        assert result.errors.shape == (2, 2)
        assert result.r_last.shape == (2, 2)
        assert result.samples.shape == (2, 2, 3)
        assert 0.0 < result.score() <= 1.0
        rows = error_stats(result.errors)
        assert list(rows) == ["Avg.Best", "Avg.Worst", "Avg.Mean", "STD"]
        assert rows["Avg.Best"] <= rows["Avg.Mean"] <= rows["Avg.Worst"]
        assert result.trajectories is None

    def test_trace_keeps_trajectories(self):
        result = self.cell("ssa_baseline", trace=True)
        assert result.trajectories is not None
        assert len(result.trajectories) == 1
        assert len(result.trajectories[0].trace) == 6  # 2 windows x 3 samples


class TestRunExperiment:
    def test_serial_assembly(self):
        config = tiny_config(
            cases=("F1(10):T1",), optimizers=("qcsso", "ssa_baseline")
        )
        outcome = collect_cells(config)
        assert set(outcome.results) == {
            ("F1(10):T1", "qcsso"),
            ("F1(10):T1", "ssa_baseline"),
        }
        scores = outcome.scores()
        assert set(scores) == {"qcsso", "ssa_baseline"}
        assert set(scores["qcsso"]) == {"F1(10):T1"}
        weights = {"F1(10):T1": 100.0}
        overall = outcome.overall(weights)
        assert all(0.0 <= v <= 100.0 for v in overall.values())

    def test_parallel_matches_serial(self):
        settings = dict(
            cases=("F1(10):T1",),
            optimizers=("qcsso", "ssa_baseline"),
            runs=2,
            num_change=2,
            change_frequency=90,
            samples_per_window=3,
            dimension=5,
            seed=11,
            overrides={
                "qcsso": {"population": "6", "subpopulations": "2"},
                "ssa_baseline": {"population": "6"},
            },
        )
        serial = collect_cells(ExperimentConfig(**settings))
        parallel = collect_cells(ExperimentConfig(**settings, jobs=2))
        for key, result in serial.results.items():
            twin = parallel.results[key]
            assert np.array_equal(result.errors, twin.errors)
            assert np.array_equal(result.r_last, twin.r_last)
            assert np.array_equal(result.samples, twin.samples)

    def test_a_consumer_that_stops_early_does_not_wait_for_queued_runs(
        self, tmp_path, monkeypatch
    ):
        # forked workers inherit both patches; each run leaves a marker as it starts
        monkeypatch.setattr(experiment, "run_single", marked_run_single)
        monkeypatch.setattr(Markers, "dir", tmp_path)
        config = tiny_config(
            cases=("F1:T1", "F2:T1", "F3:T1", "F4:T1", "F5:T1", "F6:T1"),
            optimizers=("qcsso", "pso_baseline"), runs=2, jobs=2,
        )
        with pytest.raises(RuntimeError, match="writer failed"):
            for _ in run_experiment(config):
                raise RuntimeError("writer failed")
        total = len(config.selected_cases()) * len(config.optimizers) * config.runs
        started = len(list(tmp_path.iterdir()))
        # the first cell's two runs, then the few the pool had already taken
        # (two running, three queued): far fewer than the grid's 28
        assert 2 <= started <= total // 2

    def test_run_order_does_not_matter(self):
        config_a = tiny_config(cases=("F1(10):T1", "F2:T1"),
                               optimizers=("qcsso",))
        config_b = tiny_config(cases=("F2:T1", "F1(10):T1"),
                               optimizers=("qcsso",))
        a = collect_cells(config_a)
        b = collect_cells(config_b)
        for key, result in a.results.items():
            assert np.array_equal(result.errors, b.results[key].errors)
