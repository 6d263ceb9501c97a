"""CSV artifact layout, round-tripping, and score recomputation."""

import numpy as np
import pytest

from dynopt.errors import ConfigError
from dynopt.gdbg.instance import FUNCTION_IDS
from dynopt.harness.cases import CHANGE_LABELS, Case, uniform_weights
from dynopt.harness.csvio import (
    errors_filename,
    family_tag,
    format_error,
    load_weight_table,
    optimizer_order,
    raw_filename,
    read_raw_table,
    read_results,
    recompute_scores,
    scan_raw_files,
    trajectory_filename,
    write_cell_trajectories,
    write_errors_tables,
    write_raw_table,
    write_scores,
)
from dynopt.harness.experiment import CaseResult, ExperimentConfig, ExperimentResult
from dynopt.harness import stats
from dynopt.optimizers.runner import OPTIMIZER_IDS, Trajectory


def small_case_result(function_id="F1(10)", change_type="T1",
                      optimizer_id="qcsso"):
    errors = np.array([[3.3641e-4, 2.0], [0.5, 1.25]])
    r_last = np.array([[0.9, 0.8], [0.7, 0.6]])
    samples = np.array(
        [[[0.5, 0.9], [0.4, 0.8]], [[0.3, 0.7], [0.2, 0.6]]]
    )
    return CaseResult(
        case=Case(function_id, change_type),
        optimizer_id=optimizer_id,
        errors=errors,
        r_last=r_last,
        samples=samples,
    )


def small_experiment_result(case_results):
    config = ExperimentConfig(
        optimizers=tuple(dict.fromkeys(r.optimizer_id for r in case_results))
    )
    results = {
        (r.case.case_id, r.optimizer_id): r for r in case_results
    }
    return ExperimentResult(config=config, results=results)


class TestFormatting:
    def test_format_error_anchors(self):
        assert format_error(3.3641e-4) == "3.36E-04"
        assert format_error(0.0) == "0.00E+00"
        assert format_error(123456.0) == "1.23E+05"
        assert format_error(1.0) == "1.00E+00"

    def test_family_tag(self):
        assert family_tag("F1(10)") == "F1_10"
        assert family_tag("F2") == "F2"

    def test_filenames(self):
        assert errors_filename("F1(10)") == "errors_F1_10.csv"
        assert errors_filename("F3") == "errors_F3.csv"
        assert raw_filename("F1(50)", "T7", "qcsso") == "raw_F1_50_T7_qcsso.csv"
        assert (
            trajectory_filename("F2", "T1", "pso_baseline", 3)
            == "trajectory_F2_T1_pso_baseline_run3.csv"
        )


class TestRawTables:
    def test_write_layout(self, tmp_path):
        path = write_raw_table(tmp_path, small_case_result())
        assert path.name == "raw_F1_10_T1_qcsso.csv"
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines[0] == "run,change,E_last,r_last,r_1,r_2"
        assert lines[1] == "0,0,0.00033641,0.9,0.5,0.9"
        assert lines[2] == "0,1,2.0,0.8,0.4,0.8"
        assert lines[3] == "1,0,0.5,0.7,0.3,0.7"
        assert lines[4] == "1,1,1.25,0.6,0.2,0.6"
        assert text.endswith("\n")
        assert "\r" not in text

    def test_roundtrip_is_exact(self, tmp_path):
        original = small_case_result()
        path = write_raw_table(tmp_path, original)
        errors, r_last, samples = read_raw_table(path)
        assert np.array_equal(errors, original.errors)
        assert np.array_equal(r_last, original.r_last)
        assert np.array_equal(samples, original.samples)

    def test_full_precision_survives(self, tmp_path):
        result = small_case_result()
        result.errors[0, 0] = 0.1 + 0.2
        path = write_raw_table(tmp_path, result)
        errors, _, _ = read_raw_table(path)
        assert errors[0, 0] == 0.1 + 0.2

    def test_read_rejects_empty(self, tmp_path):
        path = tmp_path / "raw_F2_T1_qcsso.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ConfigError, match="empty"):
            read_raw_table(path)

    def test_read_rejects_bad_header(self, tmp_path):
        path = tmp_path / "raw_F2_T1_qcsso.csv"
        path.write_text("run,window,err\n0,0,1.0\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unexpected header"):
            read_raw_table(path)

    def test_read_rejects_ragged_row(self, tmp_path):
        path = tmp_path / "raw_F2_T1_qcsso.csv"
        path.write_text(
            "run,change,E_last,r_last,r_1\n0,0,1.0,0.5\n", encoding="utf-8"
        )
        with pytest.raises(ConfigError, match="ragged"):
            read_raw_table(path)

    def test_read_rejects_missing_rows(self, tmp_path):
        path = tmp_path / "raw_F2_T1_qcsso.csv"
        path.write_text(
            "run,change,E_last,r_last,r_1\n"
            "0,0,1.0,0.5,0.5\n"
            "1,1,1.0,0.5,0.5\n",
            encoding="utf-8",
        )
        with pytest.raises(ConfigError, match="missing rows"):
            read_raw_table(path)

    def test_read_rejects_duplicate_rows(self, tmp_path):
        # without the check the last row wins and this reads as a full 1x2 table
        path = tmp_path / "raw_F2_T1_qcsso.csv"
        path.write_text(
            "run,change,E_last,r_last,r_1\n"
            "0,0,1.0,0.5,0.5\n"
            "0,1,1.0,0.5,0.5\n"
            "0,1,2.0,0.5,0.5\n",
            encoding="utf-8",
        )
        with pytest.raises(ConfigError, match="repeats a row"):
            read_raw_table(path)

    def test_read_accepts_rows_in_any_order(self, tmp_path):
        path = tmp_path / "raw_F2_T1_qcsso.csv"
        path.write_text(
            "run,change,E_last,r_last,r_1\n"
            "1,0,3.0,0.5,0.5\n"
            "0,1,2.0,0.5,0.5\n"
            "1,1,4.0,0.5,0.5\n"
            "0,0,1.0,0.5,0.5\n",
            encoding="utf-8",
        )
        errors, _, _ = read_raw_table(path)
        assert errors.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_read_rejects_negative_index(self, tmp_path):
        # without the check -1 indexes from the end and fills run 0
        path = tmp_path / "raw_F2_T1_qcsso.csv"
        path.write_text(
            "run,change,E_last,r_last,r_1\n"
            "-1,1,1.0,0.5,0.5\n"
            "0,0,1.0,0.5,0.5\n",
            encoding="utf-8",
        )
        with pytest.raises(ConfigError, match="negative index"):
            read_raw_table(path)

    @pytest.mark.parametrize("e_last", ["-5.0", "nan", "inf"])
    def test_read_rejects_an_impossible_error(self, tmp_path, e_last):
        path = tmp_path / "raw_F2_T1_qcsso.csv"
        path.write_text(
            "run,change,E_last,r_last,r_1\n"
            "0,0,1.0,0.5,0.5\n"
            f"0,1,{e_last},0.5,0.5\n",
            encoding="utf-8",
        )
        with pytest.raises(ConfigError, match="negative or non-finite E_last") as excinfo:
            read_raw_table(path)
        assert str(path) in str(excinfo.value)
        assert f"0,1,{e_last}," in str(excinfo.value)

    def test_read_rejects_headerless_data(self, tmp_path):
        path = tmp_path / "raw_F2_T1_qcsso.csv"
        path.write_text(
            "run,change,E_last,r_last,r_1\n", encoding="utf-8"
        )
        with pytest.raises(ConfigError, match="no data rows"):
            read_raw_table(path)


class TestErrorsTables:
    def test_layout_with_missing_change_types(self, tmp_path):
        outcome = small_experiment_result([small_case_result()])
        written = write_errors_tables(tmp_path, outcome)
        assert [p.name for p in written] == ["errors_F1_10.csv"]
        lines = written[0].read_text(encoding="utf-8").splitlines()
        assert lines[0] == "algorithm,stat,T1,T2,T3,T4,T5,T6,T7"
        result = small_case_result()
        stats_by_name = stats.error_stats(result.errors)
        assert lines[1] == (
            f"qcsso,Avg.Best,{format_error(stats_by_name['Avg.Best'])},,,,,,"
        )
        assert lines[2].startswith("qcsso,Avg.Worst,")
        assert lines[3].startswith("qcsso,Avg.Mean,")
        assert lines[4].startswith("qcsso,STD,")
        assert len(lines) == 5

    def test_one_file_per_family(self, tmp_path):
        outcome = small_experiment_result(
            [
                small_case_result("F1(10)", "T1"),
                small_case_result("F2", "T3"),
            ]
        )
        written = write_errors_tables(tmp_path, outcome)
        assert sorted(p.name for p in written) == [
            "errors_F1_10.csv",
            "errors_F2.csv",
        ]


class TestScores:
    def test_layout_and_ordering(self, tmp_path):
        scores = {
            "qcsso": {"F2:T1": 0.75, "F1(10):T1": 0.5},
            "ssa_baseline": {"F1(10):T1": 0.25},
        }
        overall = {"qcsso": 61.224489, "ssa_baseline": 12.75}
        path = write_scores(tmp_path, scores, overall)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == [
            "case,optimizer,score",
            "F1(10):T1,qcsso,0.500000",
            "F1(10):T1,ssa_baseline,0.250000",
            "F2:T1,qcsso,0.750000",
            "OVERALL,qcsso,61.2245",
            "OVERALL,ssa_baseline,12.7500",
        ]

    def test_case_rows_follow_canonical_order(self, tmp_path):
        scores = {"qcsso": {"F6:T7": 0.1, "F1(50):T2": 0.2, "F3:T4": 0.3}}
        path = write_scores(tmp_path, scores, {"qcsso": 1.0})
        case_column = [
            line.split(",")[0]
            for line in path.read_text().splitlines()[1:-1]
        ]
        assert case_column == ["F1(50):T2", "F3:T4", "F6:T7"]


class TestScanning:
    def test_scan_matches_and_ignores(self, tmp_path):
        wanted = ["raw_F1_10_T3_qcsso.csv", "raw_F2_T1_ssa_baseline.csv"]
        junk = [
            "raw_F7_T1_qcsso.csv",
            "raw_F1_10_T8_qcsso.csv",
            "raw_F1_10_T3_Qcsso.csv",
            "errors_F1_10.csv",
            "scores.csv",
            "notes.txt",
        ]
        for name in wanted + junk:
            (tmp_path / name).write_text("x", encoding="utf-8")
        found = scan_raw_files(tmp_path)
        assert [(f, c, a) for f, c, a, _ in found] == [
            ("F1(10)", "T3", "qcsso"),
            ("F2", "T1", "ssa_baseline"),
        ]

    def test_scan_finds_every_raw_filename(self, tmp_path):
        names = [
            (fid, label, opt)
            for fid in FUNCTION_IDS for label in CHANGE_LABELS for opt in OPTIMIZER_IDS
        ]
        for name in names:
            (tmp_path / raw_filename(*name)).write_text("x", encoding="utf-8")
        junk = ["raw_F7_T1_qcsso.csv", "raw_F2_T8_qcsso.csv",
                raw_filename("F2", "T1", "qcsso") + ".part"]
        for name in junk:
            (tmp_path / name).write_text("x", encoding="utf-8")
        found = scan_raw_files(tmp_path)
        assert sorted((f, c, a) for f, c, a, _ in found) == sorted(names)
        assert all(path.name == raw_filename(f, c, a) for f, c, a, path in found)

    def test_scan_lists_grid_order_then_registry_order(self, tmp_path):
        names = [
            ("F2", "T1", "pso_baseline"),
            ("F1(10)", "T3", "ssa_baseline"),
            ("F2", "T1", "qcsso"),
            ("F1(10)", "T3", "pso_baseline"),
            ("F1(50)", "T1", "qcsso"),
        ]
        for name in names:
            (tmp_path / raw_filename(*name)).write_text("x", encoding="utf-8")
        junk = ["raw_F1_10_T1_foo.csv", raw_filename("F3", "T2", "qcsso") + ".part"]
        for name in junk:
            (tmp_path / name).write_text("x", encoding="utf-8")
        found = scan_raw_files(tmp_path)
        assert [(f, c, a) for f, c, a, _ in found] == [
            ("F1(10)", "T3", "ssa_baseline"),
            ("F1(10)", "T3", "pso_baseline"),
            ("F1(50)", "T1", "qcsso"),
            ("F2", "T1", "qcsso"),
            ("F2", "T1", "pso_baseline"),
        ]

    def test_read_results_scores_only_registered_optimizers(self, tmp_path):
        write_raw_table(tmp_path, small_case_result("F1(10)", "T1", "qcsso"))
        write_raw_table(tmp_path, small_case_result("F1(10)", "T1", "foo"))
        assert (tmp_path / "raw_F1_10_T1_foo.csv").is_file()
        result = read_results(tmp_path)
        assert list(result.results) == [("F1(10):T1", "qcsso")]
        assert list(result.scores()) == ["qcsso"]

    def test_optimizer_order(self):
        assert optimizer_order(["pso_baseline", "qcsso"]) == [
            "qcsso",
            "pso_baseline",
        ]

    def test_recompute_scores_matches_case_score(self, tmp_path):
        result_a = small_case_result("F1(10)", "T1", "qcsso")
        result_b = small_case_result("F2", "T3", "ssa_baseline")
        write_raw_table(tmp_path, result_a)
        write_raw_table(tmp_path, result_b)
        recomputed = recompute_scores(tmp_path)
        assert list(recomputed) == ["qcsso", "ssa_baseline"]
        assert recomputed["qcsso"]["F1(10):T1"] == stats.case_score(
            result_a.r_last, result_a.samples
        )
        assert recomputed["ssa_baseline"]["F2:T3"] == stats.case_score(
            result_b.r_last, result_b.samples
        )

    def test_recompute_scores_requires_raw_files(self, tmp_path):
        with pytest.raises(ConfigError, match="no raw tables"):
            recompute_scores(tmp_path)


class TestTrajectoryFiles:
    @staticmethod
    def written(tmp_path, *trajectories):
        cell = small_case_result("F2", "T1", "pso_baseline")
        cell.trajectories = list(trajectories) or None
        return [
            path.read_text(encoding="utf-8")
            for path in write_cell_trajectories(tmp_path, cell)
        ]

    def test_layout(self, tmp_path):
        traj = Trajectory(evaluations=2, e_last=[0.125], trace=[(1, 0.5), (2, 0.25)])
        assert self.written(tmp_path, traj) == [
            "eval_count,error\n"
            "1,0.5\n"
            "2,0.25\n"
            "change_index,E_last\n"
            "0,0.125\n"
        ]
        assert (tmp_path / trajectory_filename("F2", "T1", "pso_baseline", 0)).is_file()

    def test_uses_full_precision(self, tmp_path):
        traj = Trajectory(evaluations=1, e_last=[0.1 + 0.2], trace=[])
        [text] = self.written(tmp_path, traj)
        assert "0,0.30000000000000004" in text

    def test_untraced_cell_writes_nothing(self, tmp_path):
        assert self.written(tmp_path) == []
        assert list(tmp_path.iterdir()) == []


class TestWeightLoading:
    def test_named_tables(self):
        assert load_weight_table("uniform") == uniform_weights()
        official = load_weight_table("official")
        assert official["F1(10):T7"] == 1.0

    def test_table_from_file(self, tmp_path):
        from dynopt.harness.cases import all_cases

        path = tmp_path / "weights.cfg"
        lines = [f"{c.case_id} = {100.0 / 49.0!r}" for c in all_cases()]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        table = load_weight_table(str(path))
        assert abs(sum(table.values()) - 100.0) < 1e-6

    def test_bogus_spec(self, tmp_path):
        with pytest.raises(ConfigError, match="weights must be one of"):
            load_weight_table(str(tmp_path / "nope.cfg"))

    def test_bad_value_in_file(self, tmp_path):
        path = tmp_path / "weights.cfg"
        path.write_text("F1(10):T1 = banana\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="bad weight value"):
            load_weight_table(str(path))

    def test_incomplete_file_table(self, tmp_path):
        path = tmp_path / "weights.cfg"
        path.write_text("F1(10):T1 = 100.0\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="missing cases"):
            load_weight_table(str(path))
