"""Command line driver: enumerate cases, run experiments, score results.

Verbs:

* ``list``: print every benchmark case id, one per line.
* ``run``: execute an experiment and write CSV artifacts to ``--out``.
* ``score``: recompute case scores from the raw tables in ``--out``.
* ``selftest``: run the built-in invariant checks.

Exit codes are stable for scripting: 0 on success, 1 on a runtime failure,
2 on a usage error. The seed is taken from ``--seed``, else the config
file, else the default 12345.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from dynopt.errors import ConfigError, DimensionMismatch
from dynopt.harness import csvio, stats
from dynopt.harness.cases import all_cases
from dynopt.harness.experiment import ExperimentConfig, run_experiment
from dynopt.overrides import parse_config_text

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynopt",
        description="Dynamic optimization benchmark runner.",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    verbs.add_parser("list", help="print all benchmark case ids")

    run_parser = verbs.add_parser("run", help="run an experiment, write CSVs")
    run_parser.add_argument("--config", help="key=value experiment config file")
    run_parser.add_argument("--out", required=True, help="output directory")
    run_parser.add_argument("--seed", type=int, help="base seed")
    run_parser.add_argument(
        "--case", action="append", default=[],
        help="case selector such as F2, F1:T3, F1(50):T7 (repeatable)",
    )
    run_parser.add_argument(
        "--optimizer", action="append", default=[],
        help="optimizer id to include (repeatable)",
    )
    run_parser.add_argument("--jobs", type=int, help="worker processes")
    run_parser.add_argument(
        "--trace", action="store_true",
        help="also write per-run trajectories: the best error at each "
        "ratio-sample point, then the window-close errors",
    )
    run_parser.add_argument(
        "--weights", help="weight table: uniform, official, or a file path"
    )

    score_parser = verbs.add_parser(
        "score", help="recompute scores from raw tables in --out"
    )
    score_parser.add_argument("--out", required=True, help="results directory")
    score_parser.add_argument(
        "--weights", default="uniform",
        help="weight table: uniform, official, or a file path",
    )

    verbs.add_parser("selftest", help="run built-in invariant checks")
    return parser


def _build_config(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> ExperimentConfig:
    pairs: dict[str, object] = {}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            parser.error(f"config file not found: {args.config}")
        pairs.update(parse_config_text(path.read_text(encoding="utf-8")))
    if args.case:
        pairs["cases"] = ",".join(args.case)
    if args.optimizer:
        pairs["optimizers"] = ",".join(args.optimizer)
    if args.seed is not None:
        pairs["seed"] = args.seed
    if args.jobs is not None:
        pairs["jobs"] = args.jobs
    if args.trace:
        pairs["trace"] = True
    if args.weights is not None:
        pairs["weights"] = args.weights
    return ExperimentConfig.from_pairs(pairs)


def _cmd_list(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    for case in all_cases():
        print(case.case_id)
    return 0


def _cmd_run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        config = _build_config(args, parser)
        cases = config.selected_cases()
        weights = csvio.load_weight_table(config.weights)
    except ConfigError as exc:
        parser.error(str(exc))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run_experiment(config)
    error_tables = csvio.write_errors_tables(out_dir, result)
    raw_tables = csvio.write_raw_tables(out_dir, result)
    if config.trace:
        csvio.write_trajectories(out_dir, result)
    scores = result.scores()
    overall = result.overall(weights)
    csvio.write_scores(out_dir, scores, overall)
    print(
        f"ran {len(cases)} case(s) x {len(config.optimizers)} optimizer(s) "
        f"x {config.runs} run(s), budget {config.budget()} evaluations each"
    )
    print(
        f"wrote {len(error_tables)} error table(s), {len(raw_tables)} raw "
        f"table(s), scores.csv in {out_dir}"
    )
    for optimizer_id, value in overall.items():
        print(f"OVERALL {optimizer_id} {value:.4f}")
    return 0


def _cmd_score(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        weights = csvio.load_weight_table(args.weights)
    except ConfigError as exc:
        parser.error(str(exc))

    out_dir = Path(args.out)
    scores = csvio.recompute_scores(out_dir)
    case_order = [c.case_id for c in all_cases()]
    overall = {
        optimizer_id: stats.overall_score(per_case, weights)
        for optimizer_id, per_case in scores.items()
    }
    for optimizer_id, per_case in scores.items():
        for case_id in sorted(per_case, key=case_order.index):
            print(f"{case_id} {optimizer_id} {per_case[case_id]:.6f}")
    csvio.write_scores(out_dir, scores, overall)
    for optimizer_id, value in overall.items():
        print(f"OVERALL {optimizer_id} {value:.4f}")
    return 0


# -- selftest ------------------------------------------------------------


def _check_change_rules() -> None:
    from dynopt.gdbg.changes import ChangeType, change_values

    rng = np.random.default_rng(101)
    phases = np.array([0.3, 1.1, 4.0])
    for label in ("T1", "T2", "T3", "T4", "T5", "T6"):
        kind = ChangeType.from_label(label)
        values = np.full(3, 50.0)
        for t in range(1, 201):
            change_values(values, phases, 10.0, 100.0, 5.0, kind, rng, t)
            assert np.all((10.0 <= values) & (values <= 100.0)), (
                f"{label} left [10,100]: {values}"
            )
    values = np.full(3, 50.0)
    change_values(values, phases, 10.0, 100.0, 5.0, ChangeType.RECURRENT, rng, 5)
    early = values.copy()
    change_values(values, phases, 10.0, 100.0, 5.0, ChangeType.RECURRENT, rng, 17)
    assert np.array_equal(values, early), "periodic regime must repeat exactly every 12"


def _check_rotations() -> None:
    from dynopt.gdbg.rotation import paired_rotation, random_orthogonal

    rng = np.random.default_rng(202)
    for dim in range(2, 16):
        angle = rng.uniform(-math.pi, math.pi)
        for matrix in (paired_rotation(dim, angle, rng), random_orthogonal(1, dim, rng)[0]):
            drift = np.abs(matrix @ matrix.T - np.eye(dim)).max()
            assert drift < 1e-9, f"rotation not orthogonal at dim {dim}: {drift}"


def _check_peak_ground_truth() -> None:
    from dynopt.gdbg.instance import make_instance

    inst = make_instance("F1(10)", "T1", seed=5)
    for _ in range(5):
        x = inst.problem.optimum_position()
        gap = abs(inst.problem.evaluate(x[None, :])[0] - inst.optimum_value())
        assert gap < 1e-9, f"peak value off its optimum by {gap}"
        inst.advance_environment()


def _check_composition_ground_truth() -> None:
    from dynopt.gdbg.instance import make_instance

    # every component, so each base function is checked at its optimum
    for family in ("F2", "F3", "F4", "F5", "F6"):
        problem = make_instance(family, "T1", seed=7).problem
        values = problem.evaluate(problem.centers)
        for value, height in zip(values.tolist(), problem.heights.tolist()):
            gap = abs(value - height)
            assert gap < 1e-6, f"{family} optimum off its height by {gap}"


def _check_statistics() -> None:
    rng = np.random.default_rng(303)
    for _ in range(25):
        runs = int(rng.integers(2, 11))
        changes = int(rng.integers(2, 11))
        mat = rng.uniform(0.0, 100.0, size=(runs, changes))
        assert abs(stats.average_best(mat) - np.mean([min(row) for row in mat])) < 1e-12
        assert abs(stats.average_worst(mat) - np.mean([max(row) for row in mat])) < 1e-12
        assert abs(stats.average_mean(mat) - mat.mean()) < 1e-12
        assert abs(stats.std_dev(mat) - mat.std()) < 1e-12


def _check_schedules() -> None:
    from dynopt.optimizers.rules import (
        contraction_expansion,
        follower_coefficient,
        logistic_step,
    )

    assert contraction_expansion(0, 100) == 100.0
    assert abs(contraction_expansion(100, 100)) < 1e-12
    assert abs(follower_coefficient(0, 40) - 0.75 * math.sin(math.pi / 4)) < 1e-12
    assert follower_coefficient(40, 40) == 0.0
    assert abs(logistic_step(0.70) - 0.84) < 1e-12


def _check_run_bookkeeping() -> None:
    from dynopt.gdbg.instance import make_instance
    from dynopt.optimizers.runner import run

    inst = make_instance(
        "F1(10)", "T1", seed=11,
        overrides={"dimension": 5, "change_frequency": 200},
    )
    trajectory = run(
        "qcsso", inst, budget=600, seed=3, s_samples=5, collect_ratios=True
    )
    assert trajectory.evaluations == 600, "budget must be spent exactly"
    assert len(trajectory.e_last) == 3, "three windows must close"
    for row in trajectory.ratio_samples:
        assert len(row) == 5
        assert all(0.0 < r <= 1.0 for r in row)


def _check_dimension_walk_runs() -> None:
    from dynopt.gdbg.instance import make_instance
    from dynopt.optimizers.runner import OPTIMIZER_IDS, run

    for optimizer_id in OPTIMIZER_IDS:
        inst = make_instance(
            "F3", "T7", seed=13,
            overrides={"dimension": 10, "change_frequency": 200},
        )
        try:
            trajectory = run(optimizer_id, inst, budget=600, seed=5)
        except DimensionMismatch as exc:
            raise AssertionError(f"{optimizer_id} crashed under T7: {exc}") from exc
        assert trajectory.evaluations == 600, f"{optimizer_id} stopped early"
        assert len(trajectory.e_last) == 3, f"{optimizer_id} closed too few windows"
        assert inst.dimension() != 10, "the dimension must have moved"


def _check_batch_equals_rows() -> None:
    from dynopt.gdbg.instance import FUNCTION_IDS, make_instance
    from dynopt.optimizers.runner import BudgetedRecorder

    rng = np.random.default_rng(17)
    # the sentinel memo rests on this: a composition row is one BLAS
    # vector-matrix product per component, whatever the batch size
    for function_id in FUNCTION_IDS:
        for dim in (5, 10, 15):
            inst = make_instance(
                function_id, "T1", seed=19, overrides={"dimension": dim}
            )
            xs = rng.uniform(-5.0, 5.0, size=(50, dim))
            rows = [inst.problem.evaluate(x[None, :])[0] for x in xs]
            assert inst.problem.evaluate(xs).tolist() == rows, (
                f"{function_id} at dimension {dim}: the batch differs from its"
                " one-row batches"
            )
    batched, looped = (
        BudgetedRecorder(
            make_instance("F3", "T7", seed=19,
                          overrides={"dimension": 5, "change_frequency": 8}),
            budget=20,
        )
        for _ in range(2)
    )
    xs = rng.uniform(-5.0, 5.0, size=(20, 5))  # crosses two dimension moves
    values = batched.evaluate(xs).tolist()
    assert values == [looped.evaluate(x[None, :])[0] for x in xs], (
        "a change-crossing batch differs from its one-row batches"
    )
    assert (batched.problem.eval_count, batched.problem.t) == (
        looped.problem.eval_count, looped.problem.t
    ), "a change-crossing batch moved the clock differently"
    # replaying a batch's best row: eval 11 is answered from the instance's
    # memory, eval 12 is a crossing row and is scored on the new landscape
    inst = make_instance("F6", "T1", seed=19,
                         overrides={"dimension": 5, "change_frequency": 12})
    clock = BudgetedRecorder(inst, budget=12)
    xs = rng.uniform(-5.0, 5.0, size=(10, 5))
    best = xs[int(np.argmin(clock.evaluate(xs))), None]  # a one-row batch
    replays = [
        (clock.evaluate(best)[0], inst.problem.evaluate(best)[0]) for _ in range(2)
    ]
    assert inst.t == 1 and all(a == b for a, b in replays), (
        "a replayed best row differs from a landscape call"
    )


_SELFTEST_CHECKS = (
    ("change rules stay in range", _check_change_rules),
    ("rotations preserve norms", _check_rotations),
    ("peak optimum is attained at its center", _check_peak_ground_truth),
    ("composition optima equal their heights", _check_composition_ground_truth),
    ("statistics match naive recomputation", _check_statistics),
    ("schedule anchors", _check_schedules),
    ("run bookkeeping closes every window", _check_run_bookkeeping),
    ("every optimizer runs through dimension changes", _check_dimension_walk_runs),
    ("batch evaluation equals its one-row batches", _check_batch_equals_rows),
)


def _cmd_selftest(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    failures = 0
    for name, check in _SELFTEST_CHECKS:
        try:
            check()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok: {name}")
    if failures:
        print(f"selftest: {failures} check(s) failed")
        return 1
    print(f"selftest: {len(_SELFTEST_CHECKS)} checks passed")
    return 0


_HANDLERS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "score": _cmd_score,
    "selftest": _cmd_selftest,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.verb](args, parser)
    except (ConfigError, DimensionMismatch, RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
