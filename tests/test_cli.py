"""End-to-end command line behaviour: verbs, artifacts, and exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dynopt
from dynopt import cli
from dynopt.cli import main
from dynopt.harness import experiment

TINY_CONFIG = """\
# small desk check
runs = 1
num_change = 2
change_frequency = 120
dimension = 5
samples_per_window = 3
qcsso.population = 6
qcsso.subpopulations = 2
ssa.population = 6
pso.population = 6
"""


def write_config(tmp_path, text=TINY_CONFIG):
    path = tmp_path / "exp.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_tiny(tmp_path, out_name="out", extra=(), optimizer="qcsso"):
    out_dir = tmp_path / out_name
    argv = [
        "run",
        "--config", write_config(tmp_path),
        "--out", str(out_dir),
        "--case", "F1(10):T1",
        "--optimizer", optimizer,
        "--seed", "7",
        *extra,
    ]
    assert main(argv) == 0
    return out_dir


class TestList:
    def test_prints_the_whole_grid(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 49
        assert lines[0] == "F1(10):T1"
        assert lines[-1] == "F6:T7"
        assert "F1(50):T4" in lines


class TestRun:
    def test_writes_expected_artifacts(self, tmp_path, capsys):
        out_dir = run_tiny(tmp_path)
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == [
            "errors_F1_10.csv",
            "raw_F1_10_T1_qcsso.csv",
            "scores.csv",
        ]
        out = capsys.readouterr().out
        assert (
            "ran 1 case(s) x 1 optimizer(s) x 1 run(s), "
            "budget 240 evaluations each" in out
        )
        assert "scores.csv" in out
        assert "OVERALL qcsso" in out

    def test_trace_adds_trajectories(self, tmp_path):
        out_dir = run_tiny(tmp_path, extra=["--trace"])
        assert (out_dir / "trajectory_F1_10_T1_qcsso_run0.csv").is_file()
        text = (out_dir / "trajectory_F1_10_T1_qcsso_run0.csv").read_text()
        assert text.startswith("eval_count,error\n")
        assert "change_index,E_last" in text
        # at most num_change x samples_per_window rows before the window block
        rows = text.split("change_index,E_last")[0].splitlines()[1:]
        assert 0 < len(rows) <= 2 * 3

    def test_config_file_trace_needs_no_flag(self, tmp_path):
        config = write_config(tmp_path, TINY_CONFIG + "trace = true\n")
        out_dir = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out_dir),
                     "--case", "F1(10):T1", "--optimizer", "qcsso"]) == 0
        assert (out_dir / "trajectory_F1_10_T1_qcsso_run0.csv").is_file()

    def test_scores_file_layout(self, tmp_path):
        out_dir = run_tiny(tmp_path)
        lines = (out_dir / "scores.csv").read_text().splitlines()
        assert lines[0] == "case,optimizer,score"
        assert lines[1].startswith("F1(10):T1,qcsso,0.")
        assert lines[2].startswith("OVERALL,qcsso,")

    def test_nothing_written_outside_out(self, tmp_path, monkeypatch):
        workdir = tmp_path / "workdir"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        run_tiny(tmp_path)
        assert list(workdir.iterdir()) == []

    def test_multiple_optimizers_share_the_landscape(self, tmp_path, capsys):
        out_dir = tmp_path / "both"
        argv = [
            "run",
            "--config", write_config(tmp_path),
            "--out", str(out_dir),
            "--case", "F1(10):T1",
            "--optimizer", "qcsso",
            "--optimizer", "ssa_baseline",
            "--seed", "7",
        ]
        assert main(argv) == 0
        assert (out_dir / "raw_F1_10_T1_qcsso.csv").is_file()
        assert (out_dir / "raw_F1_10_T1_ssa_baseline.csv").is_file()
        out = capsys.readouterr().out
        assert "OVERALL qcsso" in out
        assert "OVERALL ssa_baseline" in out

    def test_official_weights_accepted(self, tmp_path):
        run_tiny(tmp_path, extra=["--weights", "official"])

    def test_unknown_case_exits_2(self, tmp_path, capsys):
        argv = [
            "run", "--config", write_config(tmp_path),
            "--out", str(tmp_path / "x"), "--case", "F9:T1", "--seed", "7",
        ]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unknown function" in capsys.readouterr().err

    def test_bogus_weights_exit_2(self, tmp_path, capsys):
        argv = [
            "run", "--config", write_config(tmp_path),
            "--out", str(tmp_path / "x"), "--case", "F1(10):T1",
            "--seed", "7", "--weights", str(tmp_path / "nope.cfg"),
        ]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "weights must be one of" in capsys.readouterr().err

    def test_change_frequency_of_one_exits_2(self, tmp_path, capsys):
        text = TINY_CONFIG.replace("change_frequency = 120", "change_frequency = 1")
        config = write_config(tmp_path, text)
        argv = ["run", "--config", config, "--out", str(tmp_path / "x")]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "change_frequency must be 0 (the default) or at least 2" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "x").exists()

    def test_dimension_outside_the_walk_exits_2(self, tmp_path, capsys):
        text = TINY_CONFIG.replace("dimension = 5", "dimension = 4")
        config = write_config(tmp_path, text)
        argv = ["run", "--config", config, "--out", str(tmp_path / "x")]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "dimension must lie in [5, 15]" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("line, message", [
        ("qcsso.subpopulations = 0", "subpopulations must be at least 1"),
        ("qcsso.subpopulations = -5", "subpopulations must be at least 1"),
        ("pso.population = 0", "population must be at least 1"),
        ("ssa.population = 0", "population must be at least 1"),
        ("qcsso.reinit_probability = 1.5", "reinit_probability must lie in [0, 1]"),
        ("qcsso.reinit_probability = nan", "reinit_probability must lie in [0, 1]"),
        ("qcsso.exclusion_radius = -1", "exclusion_radius must be at least 0"),
        ("qcsso.exclusion_radius = nan", "exclusion_radius must be at least 0"),
        ("qcsso.min_age_limit = -3", "min_age_limit must lie in [0, max_age_limit]"),
        ("qcsso.max_age_limit = 2", "min_age_limit must lie in [0, max_age_limit]"),
        # rule constants are no settings, even at their own values
        ("qcsso.leaders_per_chain = 2", "unknown override 'leaders_per_chain'"),
        ("qcsso.w_fixed = 0.96", "unknown override 'w_fixed'"),
        ("qcsso.w_init = 0.70", "unknown override 'w_init'"),
        ("qcsso.momentum = 0.5", "unknown override 'momentum'"),
        ("qcsso.c3_threshold = 0.5", "unknown override 'c3_threshold'"),
        ("qcsso.probe_sigma_scale = 0.1", "unknown override 'probe_sigma_scale'"),
        ("pso.chi = 0.7298", "unknown override 'chi'"),
        ("pso.c1 = 1.49618", "unknown override 'c1'"),
        ("pso.c2 = 1.49618", "unknown override 'c2'"),
    ])
    def test_optimizer_setting_out_of_range_exits_2(self, tmp_path, capsys, line, message):
        config = write_config(tmp_path, TINY_CONFIG + line + "\n")
        argv = ["run", "--config", config, "--out", str(tmp_path / "x")]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("line, value", [
        ("runs = abc", "abc"),
        ("runs = inf", "inf"),
        ("qcsso.population = 1e400", "1e400"),
    ])
    def test_unreadable_number_exits_2(self, tmp_path, capsys, line, value):
        config = write_config(tmp_path, TINY_CONFIG + line + "\n")
        argv = ["run", "--config", config, "--out", str(tmp_path / "x")]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"cannot interpret {value!r} as int" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        argv = [
            "run", "--config", str(tmp_path / "missing.cfg"),
            "--out", str(tmp_path / "x"),
        ]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "config file not found" in capsys.readouterr().err

    def test_out_flag_is_required(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run"])
        assert excinfo.value.code == 2


class TestCellWrites:
    def test_a_failed_cell_leaves_the_earlier_cells_on_disk(
        self, tmp_path, monkeypatch, capsys
    ):
        def argv(out_name):
            return [
                "run", "--config", write_config(tmp_path),
                "--out", str(tmp_path / out_name), "--seed", "7",
                "--case", "F1(10):T1", "--case", "F2:T1",
                "--optimizer", "qcsso", "--optimizer", "pso_baseline",
            ]

        assert main(argv("clean")) == 0
        real_run_single = experiment.run_single

        def third_cell_fails(config, case, optimizer_id, run_index):
            if (case.case_id, optimizer_id) == ("F2:T1", "qcsso"):
                raise RuntimeError("the third cell failed")
            return real_run_single(config, case, optimizer_id, run_index)

        monkeypatch.setattr(experiment, "run_single", third_cell_fails)
        capsys.readouterr()
        assert main(argv("failed")) == 1
        assert "error: the third cell failed" in capsys.readouterr().err
        # no later raw table, no summary and no ``.part`` file
        written = sorted(p.name for p in (tmp_path / "failed").iterdir())
        assert written == ["raw_F1_10_T1_pso_baseline.csv", "raw_F1_10_T1_qcsso.csv"]
        for name in written:
            clean = (tmp_path / "clean" / name).read_bytes()
            assert (tmp_path / "failed" / name).read_bytes() == clean

    def test_trace_output_is_the_same_for_one_and_two_jobs(self, tmp_path):
        # a peak family, a composition family and a T7 case, every optimizer
        text = TINY_CONFIG.replace("runs = 1", "runs = 2")
        outs = {}
        for jobs in ("1", "2"):
            out_dir = tmp_path / f"jobs{jobs}"
            argv = [
                "run", "--config", write_config(tmp_path, text),
                "--out", str(out_dir), "--seed", "7", "--trace", "--jobs", jobs,
                "--case", "F1(10):T1", "--case", "F3:T2", "--case", "F1(10):T7",
            ]
            assert main(argv) == 0
            outs[jobs] = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        names = set(outs["1"])
        assert len([n for n in names if n.startswith("raw_")]) == 3 * 3
        assert len([n for n in names if n.startswith("trajectory_")]) == 3 * 3 * 2
        assert {"errors_F1_10.csv", "errors_F3.csv", "scores.csv"} <= names
        assert outs["1"] == outs["2"]

    def test_raw_tables_of_another_run_shape_are_refused(self, tmp_path, capsys):
        out_dir = tmp_path / "out"

        def run(text, case, seed):
            argv = [
                "run", "--config", write_config(tmp_path, text), "--out", str(out_dir),
                "--case", case, "--optimizer", "qcsso", "--seed", seed,
            ]
            return main(argv)

        assert run(TINY_CONFIG, "F1(10):T1", "1") == 0  # 1 run x 2 windows
        scores = (out_dir / "scores.csv").read_bytes()
        capsys.readouterr()
        other = TINY_CONFIG.replace("runs = 1", "runs = 3").replace(
            "num_change = 2", "num_change = 4").replace("dimension = 5", "dimension = 8")
        assert run(other, "F2:T1", "2") == 1
        err = capsys.readouterr().err
        assert "raw tables raw_F1_10_T1_qcsso.csv and raw_F2_T1_qcsso.csv" in err
        assert "(1, 2, 3) against (3, 4, 3)" in err
        # the new cell's raw table landed, but no summary mixes the two runs
        assert (out_dir / "raw_F2_T1_qcsso.csv").is_file()
        assert (out_dir / "scores.csv").read_bytes() == scores
        assert not (out_dir / "errors_F2.csv").exists()
        assert main(["score", "--out", str(out_dir)]) == 1


class TestSeedPrecedence:
    def raw_bytes(self, out_dir):
        return (out_dir / "raw_F1_10_T1_qcsso.csv").read_bytes()

    def test_environment_sets_no_seed(self, tmp_path, monkeypatch):
        # the seed comes from --seed, else the config file, else 12345
        def run_unseeded(out_name):
            out_dir = tmp_path / out_name
            argv = [
                "run", "--config", write_config(tmp_path),
                "--out", str(out_dir), "--case", "F1(10):T1",
                "--optimizer", "qcsso",
            ]
            assert main(argv) == 0
            return out_dir

        monkeypatch.delenv("DYNOPT_SEED", raising=False)
        plain = run_unseeded("plain")
        monkeypatch.setenv("DYNOPT_SEED", "99")
        assert self.raw_bytes(run_unseeded("env")) == self.raw_bytes(plain)

    def test_flag_beats_config(self, tmp_path):
        config_with_seed = TINY_CONFIG + "seed = 5\n"
        out_a = tmp_path / "a"
        argv = [
            "run", "--config", write_config(tmp_path, config_with_seed),
            "--out", str(out_a), "--case", "F1(10):T1",
            "--optimizer", "qcsso", "--seed", "7",
        ]
        assert main(argv) == 0
        plain = run_tiny(tmp_path, out_name="b")
        assert self.raw_bytes(out_a) == self.raw_bytes(plain)


def run_two_by_two(tmp_path):
    """Two cases x two optimizers, the optimizers out of registry order."""
    out_dir = tmp_path / "two"
    config = write_config(tmp_path, "runs = 2\nnum_change = 2\nchange_frequency = 200\n")
    argv = [
        "run", "--config", config, "--out", str(out_dir),
        "--case", "F1(10):T1", "--case", "F2:T1",
        "--optimizer", "pso_baseline", "--optimizer", "qcsso", "--seed", "5",
    ]
    assert main(argv) == 0
    return out_dir


class TestScore:
    @pytest.mark.parametrize("make_run", [run_tiny, run_two_by_two])
    def test_rewrites_scores_from_raw_tables(self, tmp_path, capsys, make_run):
        out_dir = make_run(tmp_path)
        summaries = [*out_dir.glob("errors_*.csv"), out_dir / "scores.csv"]
        original = {path: path.read_bytes() for path in summaries}
        for path in summaries:
            path.unlink()
        capsys.readouterr()
        assert main(["score", "--out", str(out_dir)]) == 0
        assert {path: path.read_bytes() for path in summaries} == original
        # optimizers in registry order, whatever order --optimizer gave
        errors_lines = (out_dir / "errors_F1_10.csv").read_text().splitlines()
        assert errors_lines[1].startswith("qcsso,Avg.Best,")
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("F1(10):T1 qcsso 0.")
        assert "OVERALL qcsso" in out

    def test_prints_cases_in_grid_order(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path), "--out", str(out_dir),
                     "--case", "F2:T1", "--case", "F1(10):T1",
                     "--optimizer", "pso_baseline", "--optimizer", "qcsso"]) == 0
        capsys.readouterr()
        assert main(["score", "--out", str(out_dir)]) == 0
        printed = [line.split()[:2] for line in capsys.readouterr().out.splitlines()]
        assert printed[:4] == [
            ["F1(10):T1", "qcsso"], ["F2:T1", "qcsso"],
            ["F1(10):T1", "pso_baseline"], ["F2:T1", "pso_baseline"],
        ]

    def test_nan_ratio_fails_cleanly(self, tmp_path, capsys):
        out_dir = run_tiny(tmp_path)
        raw = out_dir / "raw_F1_10_T1_qcsso.csv"
        header, first, *rest = raw.read_text().splitlines()
        cells = first.split(",")
        cells[header.split(",").index("r_last")] = "nan"
        raw.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
        (out_dir / "scores.csv").unlink()
        capsys.readouterr()
        assert main(["score", "--out", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert f"error: raw table {raw} has a ratio outside (0, 1]: nan" in captured.err
        assert "nan" not in captured.out
        assert not (out_dir / "scores.csv").exists()

    def test_table_without_samples_fails_cleanly(self, tmp_path, capsys):
        out_dir = run_tiny(tmp_path)
        raw = out_dir / "raw_F1_10_T1_qcsso.csv"
        lines = [",".join(line.split(",")[:4]) for line in raw.read_text().splitlines()]
        raw.write_text("\n".join(lines) + "\n")
        (out_dir / "scores.csv").unlink()
        capsys.readouterr()
        assert main(["score", "--out", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert f"error: raw table {raw} has no ratio sample columns" in captured.err
        assert captured.out == ""
        assert not (out_dir / "scores.csv").exists()

    def test_empty_directory_fails_cleanly(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["score", "--out", str(empty)]) == 1
        assert "error: no raw tables" in capsys.readouterr().err


class TestSelftest:
    def test_reproduces_the_recorded_digest(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert np.__version__ in out
        assert cli.numeric_environment()["blas core"] in out
        assert cli.GOLDEN_DIGEST in out
        assert list(tmp_path.iterdir()) == []  # writes no files

    def test_a_digest_mismatch_prints_both_environments(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "GOLDEN_DIGEST", "0" * 64)
        assert main(["selftest"]) == 1
        out = capsys.readouterr().out
        assert "recorded:" in out and "current:" in out
        assert out.count("blas core") == 2
        assert "0" * 64 in out

    def test_another_blas_core_fails(self, tmp_path):
        if cli.numeric_environment() != cli.GOLDEN_ENVIRONMENT:
            pytest.skip("the digest was recorded on another numeric environment")
        src = str(Path(dynopt.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_CORETYPE": "Prescott"}
        done = subprocess.run(
            [sys.executable, "-m", "dynopt.cli", "selftest"],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )
        assert done.returncode == 1, done.stdout + done.stderr
        assert "recorded:" in done.stdout


class TestImport:
    def test_one_job_never_loads_the_process_pool(self):
        # a fresh interpreter: this one may have imported the pool already
        src = Path(dynopt.__file__).parents[1]
        code = (
            f"import sys; sys.path.insert(0, {str(src)!r}); import dynopt.cli; "
            "print('concurrent.futures' in sys.modules)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert done.stdout == "False\n"


class TestUsage:
    def test_verb_is_required(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_verb(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["explore"])
        assert excinfo.value.code == 2
