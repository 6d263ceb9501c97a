"""Acceptance gate: eight end-to-end criteria with hard tolerances.

Each test prints one PASS or FAIL line with its measured numbers before
asserting, so a plain ``pytest -v -s tests/test_acceptance.py`` reads as a
checklist. Criterion 5 is a known-red convergence target; see the notes in
the test for what was measured.
"""

import math
import time

import numpy as np
import pytest

from dynopt.gdbg.instance import make_instance
from dynopt.gdbg.rotation import paired_rotation
from dynopt.harness import stats
from dynopt.harness.experiment import ExperimentConfig
from dynopt.optimizers.qcsso import Qcsso, QcssoConfig
from dynopt.optimizers.rules import (
    contraction_expansion,
    follower_coefficient,
    logistic_step,
    quantum_update,
)
from dynopt.optimizers.runner import run
from dynopt.cli import main as cli_main

from conftest import StaticFunctionProblem, collect_cells, evaluate_one


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n{status}: criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_statistics_match_brute_force():
    """Four summary statistics vs naive recomputation, 1e-12, under 10s."""
    rng = np.random.default_rng(1001)
    started = time.perf_counter()
    worst_gap = 0.0
    for _ in range(1000):
        runs = int(rng.integers(1, 51))
        changes = int(rng.integers(1, 61))
        mat = rng.uniform(0.0, 100.0, size=(runs, changes))
        rows = mat.tolist()
        flat = [v for row in rows for v in row]
        # exactly rounded sums so the reference is sharper than the library
        mean = math.fsum(flat) / len(flat)
        var = math.fsum((v - mean) ** 2 for v in flat) / len(flat)
        expected = {
            "best": math.fsum(min(r) for r in rows) / runs,
            "worst": math.fsum(max(r) for r in rows) / runs,
            "mean": mean,
            "std": math.sqrt(var),
        }
        # error_stats gives Avg.Best, Avg.Worst, Avg.Mean, STD in this order
        got = dict(zip(expected, stats.error_stats(mat).values()))
        for key in expected:
            worst_gap = max(worst_gap, abs(expected[key] - got[key]))
    elapsed = time.perf_counter() - started
    ok = worst_gap < 1e-12 and elapsed < 10.0
    report(
        1,
        ok,
        f"1000 matrices, worst statistic gap {worst_gap:.3e} "
        f"(limit 1e-12), {elapsed:.1f}s (limit 10s)",
    )


def test_criterion_2_change_rules_stay_lawful():
    """1000 changes per regime: ranges, exact periodicity, dim walk, rotations."""
    started = time.perf_counter()
    problems = []

    for label in ("T1", "T2", "T3", "T4", "T5", "T6"):
        inst = make_instance("F1(10)", label, seed=300 + int(label[1]))
        t5_heights = []
        for t in range(1, 1001):
            inst.advance_environment()
            for value in inst.problem.heights.tolist():
                if not 10.0 <= value <= 100.0:
                    problems.append(f"{label} height {value} at t={t}")
            for value in inst.problem.widths.tolist():
                if not 1.0 <= value <= 10.0:
                    problems.append(f"{label} width {value} at t={t}")
            if label == "T5" and t <= 36:
                t5_heights.append(inst.problem.heights.tolist())
        if label == "T5":
            for t in range(12, 36):
                if t5_heights[t] != t5_heights[t - 12]:
                    problems.append(f"T5 heights not periodic at t={t + 1}")

    dims = []
    inst = make_instance("F1(10)", "T7", seed=321)
    for _ in range(1000):
        inst.advance_environment()
        dims.append(inst.dimension())
    if not all(5 <= d <= 15 for d in dims):
        problems.append(f"T7 dimension left [5,15]: {sorted(set(dims))}")
    for i in range(len(dims) - 1):
        if dims[i] == 15 and dims[i + 1] != 14:
            problems.append("T7 did not reverse at the upper bound")
        if dims[i] == 5 and dims[i + 1] != 6:
            problems.append("T7 did not reverse at the lower bound")
    if not (any(d == 15 for d in dims) and any(d == 5 for d in dims)):
        problems.append("T7 walk never reached a boundary in 1000 steps")

    rng = np.random.default_rng(777)
    worst_norm_drift = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 16))
        angle = float(rng.uniform(-math.pi, math.pi))
        matrix = paired_rotation(dim, angle, rng)
        v = rng.standard_normal(dim)
        drift = abs(np.linalg.norm(matrix @ v) - np.linalg.norm(v))
        worst_norm_drift = max(worst_norm_drift, drift)
    if worst_norm_drift >= 1e-9:
        problems.append(f"rotation norm drift {worst_norm_drift:.3e}")

    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < 30.0
    summary = problems[0] if problems else (
        f"6 regimes x 1000 changes in range, T5 exactly periodic, "
        f"T7 walk reversed at both bounds, rotation norm drift "
        f"{worst_norm_drift:.1e} (limit 1e-9), {elapsed:.1f}s (limit 30s)"
    )
    report(2, ok, summary)


def test_criterion_3_ground_truth_optima():
    """Peak optimum at its center (1e-9); composition floor at min height (1e-6)."""
    worst_peak_gap = 0.0
    for seed in range(10):
        inst = make_instance("F1(10)", "T3", seed=seed)
        for _ in range(10):
            inst.advance_environment()
            x = inst.problem.optimum_position()
            gap = abs(evaluate_one(inst.problem, x) - inst.optimum_value())
            worst_peak_gap = max(worst_peak_gap, gap)

    worst_comp_gap = 0.0
    for fid in ("F2", "F3", "F4", "F5", "F6"):
        for seed in range(4):
            inst = make_instance(fid, "T3", seed=seed)
            for _ in range(5):
                inst.advance_environment()
                heights = inst.problem.heights.tolist()
                best = int(np.argmin(heights))
                value = evaluate_one(inst.problem, inst.problem.centers[best])
                worst_comp_gap = max(worst_comp_gap, abs(value - min(heights)))

    ok = worst_peak_gap < 1e-9 and worst_comp_gap < 1e-6
    report(
        3,
        ok,
        f"100 peak environments, worst gap {worst_peak_gap:.3e} (limit 1e-9); "
        f"100 composition environments, worst floor gap {worst_comp_gap:.3e} "
        f"(limit 1e-6)",
    )


def test_criterion_4_update_rule_anchors():
    """Quantum fixed point, schedule endpoints, and a million-step orbit."""
    problems = []

    # with w = 0.5 the draws c4, r, c3 = 0.5, 0.625, 0.3 make r equal u,
    # so the jump vanishes
    value = quantum_update(0.2, 1.2345678901234567, 2.0, 4.0, 0.5, 0.5, 0.625, 0.3)
    if value != 1.2345678901234567:
        problems.append(f"quantum update at r=u returned {value!r}")

    if abs(contraction_expansion(0, 100) - 100.0) >= 1e-12:
        problems.append("contraction start anchor failed")
    if abs(contraction_expansion(100, 100)) >= 1e-12:
        problems.append("contraction end anchor failed")
    if abs(follower_coefficient(0, 40) - 0.5303300858899106) >= 1e-12:
        problems.append("follower start anchor failed")
    if abs(follower_coefficient(40, 40)) >= 1e-12:
        problems.append("follower end anchor failed")

    w = 0.70
    for step in range(1_000_000):
        w = logistic_step(w)
        if not 0.0 < w < 1.0:
            problems.append(f"logistic orbit escaped (0,1) at step {step}")
            break

    ok = not problems
    report(
        4,
        ok,
        problems[0] if problems else
        "quantum r=u exact, schedule endpoints within 1e-12, "
        "logistic orbit stayed in (0,1) for 1e6 steps",
    )


def test_criterion_5_static_sphere_convergence():
    """Default optimizer on a static 10-D sphere over [-100, 100].

    Target: best fitness below 1e-6 within 50,000 evaluations in at least
    18 of 20 seeded runs, under a minute. This target is not met by the
    configuration as written: the multi-population layout keeps chains
    spread for diversity, so exclusion re-initializes converging chains on
    this unimodal landscape (measured final errors 0.5 to 10 across seeds,
    and disabling exclusion plus aging reaches about 3e-6, still above the
    target). The test states the requirement honestly and is expected to
    fail; the configuration stays faithful rather than being tuned to pass.
    """
    started = time.perf_counter()
    successes = 0
    finals = []
    for seed in range(20):
        problem = StaticFunctionProblem(
            lambda x: float(np.sum(x * x)), 10, -100.0, 100.0
        )
        trajectory = run("qcsso", problem, budget=50_000, seed=seed)
        finals.append(trajectory.best_value)
        if trajectory.best_value < 1e-6:
            successes += 1
    elapsed = time.perf_counter() - started
    ok = successes >= 18 and elapsed < 60.0
    report(
        5,
        ok,
        f"{successes}/20 runs below 1e-6 (need 18), best final "
        f"{min(finals):.3e}, median {sorted(finals)[10]:.3e}, "
        f"{elapsed:.0f}s (limit 60s)",
    )


def test_criterion_6_beats_baselines_at_desk_scale():
    """Rotation peaks under small steps: mean error at or below both baselines."""
    started = time.perf_counter()
    config = ExperimentConfig(
        cases=("F1(10):T1",),
        runs=10,
        num_change=10,
        change_frequency=10_000,
        dimension=10,
        seed=12345,
    )
    outcome = collect_cells(config)
    means = {
        optimizer_id: stats.error_stats(
            outcome.results[("F1(10):T1", optimizer_id)].errors
        )["Avg.Mean"]
        for optimizer_id in config.optimizers
    }
    elapsed = time.perf_counter() - started
    ok = (
        means["qcsso"] <= means["ssa_baseline"]
        and means["qcsso"] <= means["pso_baseline"]
        and elapsed < 300.0
    )
    report(
        6,
        ok,
        f"Avg.Mean qcsso {means['qcsso']:.2f} vs ssa "
        f"{means['ssa_baseline']:.2f} and pso {means['pso_baseline']:.2f} "
        f"(10 runs x 10 changes, frequency 10000), {elapsed:.0f}s (limit 300s)",
    )


def test_criterion_7_global_best_survives_churn():
    """Aggressive aging and exclusion must never destroy the best solution."""
    config = QcssoConfig(
        population=8,
        subpopulations=4,
        max_age_limit=1,
        min_age_limit=0,
        reinit_probability=1.0,
        exclusion_radius=5.0,
    )
    total_iterations = 0
    aging_events = 0
    exclusion_events = 0
    violations = []
    for seed in range(10):
        problem = StaticFunctionProblem(
            lambda x: float(np.sum(x * x)), 3, -5.0, 5.0
        )
        opt = Qcsso(problem, seed=seed, budget=10**9, config=config)
        best_so_far = float(opt.pbest_fitness.min())
        for iteration in range(1000):
            opt.iterate()
            total_iterations += 1
            aging_events += len(opt.last_aging_reinits)
            exclusion_events += len(opt.last_excluded_subpops)
            now = float(opt.pbest_fitness.min())
            if now > best_so_far + 1e-15:
                violations.append(
                    f"seed {seed} iteration {iteration}: best rose "
                    f"{best_so_far!r} -> {now!r}"
                )
                break
            best_so_far = now

    churned = aging_events > 0 and exclusion_events > 0
    ok = not violations and churned and total_iterations == 10_000
    detail = violations[0] if violations else (
        f"10000 iterations, {aging_events} aging re-inits and "
        f"{exclusion_events} exclusions, best-so-far never regressed"
    )
    if not churned:
        detail = "churn settings produced no re-initializations; test has no teeth"
    report(7, ok, detail)


def test_criterion_8_byte_identical_reruns(tmp_path):
    """Same seed and config give byte-identical CSVs, serial or 8 workers.

    Runs a reduced grid (two cases, two optimizers, 3 runs x 4 changes)
    rather than the full desk scale to keep the gate fast; the window
    arithmetic, process-pool reassembly, and CSV writers are exercised
    identically at any scale.
    """
    config_text = (
        "runs = 3\n"
        "num_change = 4\n"
        "change_frequency = 500\n"
        "dimension = 5\n"
        "samples_per_window = 5\n"
        "cases = F1(10):T1, F2:T3\n"
        "optimizers = qcsso, pso_baseline\n"
        "seed = 12345\n"
        "qcsso.population = 10\n"
        "qcsso.subpopulations = 2\n"
        "pso.population = 10\n"
    )
    config_path = tmp_path / "desk.cfg"
    config_path.write_text(config_text, encoding="utf-8")

    def invoke(out_name, jobs=None):
        out_dir = tmp_path / out_name
        argv = [
            "run", "--config", str(config_path),
            "--out", str(out_dir), "--trace",
        ]
        if jobs:
            argv += ["--jobs", str(jobs)]
        assert cli_main(argv) == 0
        return {
            path.name: path.read_bytes() for path in out_dir.iterdir()
        }

    first = invoke("first")
    second = invoke("second")
    parallel = invoke("parallel", jobs=8)

    mismatches = []
    if set(first) != set(second) or set(first) != set(parallel):
        mismatches.append("artifact filename sets differ")
    else:
        for name in sorted(first):
            if first[name] != second[name]:
                mismatches.append(f"serial rerun differs in {name}")
            if first[name] != parallel[name]:
                mismatches.append(f"--jobs 8 differs in {name}")

    ok = not mismatches and len(first) >= 9
    detail = mismatches[0] if mismatches else (
        f"{len(first)} artifacts byte-identical across a rerun and --jobs 8"
    )
    report(8, ok, detail)
