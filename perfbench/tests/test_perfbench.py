"""Tests for the benchmark itself: its contract, its inputs and its checks.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid49", "--seed", "3",
         "--seconds", "0", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), done.stdout


@pytest.fixture(scope="module")
def untraced():
    return _bench("--trace", "0")


@pytest.fixture(scope="module")
def traced():
    return _bench("--trace", "1")


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_end_to_end_names_and_units_match_benchmark_json(untraced):
    result, _ = untraced
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_per_layer_names_and_units_match_benchmark_json(traced):
    result, stdout = traced
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["correct"] is True
    assert "spans " in stdout


def test_smoke_run_reports_t7_failures_without_aborting(untraced):
    result, stdout = untraced
    assert result["correct"] is True
    assert result["attempted"] == 147
    # T7 runs crash at the first dimension change; the loop must record
    # them and go on. Once that crash is fixed, failed drops to 0 here.
    ratio = result["failed"] / result["attempted"]
    assert ratio > 0
    assert f"run_fail_ratio {ratio:.6f}" in stdout
    assert result["metrics"]["run_ok_ratio"]["value"] < 1.0
    assert "raw_sha256 " in stdout and "env " in stdout
    assert "wall evals_per_s " in stdout


def test_seed_changes_the_landscapes_and_nothing_else():
    one = run.resolve("grid49", 1)
    two = run.resolve("grid49", 2)
    assert one.config.budget() == two.config.budget()
    assert one.cases == two.cases
    plan_one, plan_two = run.plan(one, 0), run.plan(two, 0)
    strip = [(s.case, s.optimizer_id, s.run_index, s.optimizer_seed) for s in plan_one]
    assert strip == [(s.case, s.optimizer_id, s.run_index, s.optimizer_seed) for s in plan_two]
    assert all(a.problem_seed != b.problem_seed for a, b in zip(plan_one, plan_two))

    spec = plan_one[0]
    same = run.build_instance(one, spec).param_lines()
    assert run.build_instance(one, spec).param_lines() == same
    first = run.build_instance(one, spec).optimum_position()
    other = run.build_instance(two, plan_two[0]).optimum_position()
    assert not (first == other).all()


def test_output_checks_catch_a_wrong_window_count():
    setup = run.resolve("hot-f1", 1)
    record = run.run_one(setup, run.plan(setup, 0)[0])
    assert run.check_runs(setup, [record]) == []
    record.trajectory.e_last.pop()
    record.trajectory.r_last[0] = 1.5
    problems = run.check_runs(setup, [record])
    assert any("windows" in p for p in problems)
    assert any("(0, 1]" in p for p in problems)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hot-f1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
