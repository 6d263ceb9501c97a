"""The names the benchmark (``perfbench/run.py``) calls, wraps or reads.

The traced benchmark wraps these methods to time each layer, reads the
instance's counters after each run, and assembles each repeat's
trajectories into CSV tables that it scores again.  A refactor that
renames one of them fails here rather than in the benchmark.
"""

import inspect

import numpy as np
import pytest

from dynopt.gdbg import CompositionProblem, GdbgInstance, PeakSet, make_instance
from dynopt.harness import (
    CaseResult,
    ExperimentConfig,
    ExperimentResult,
    csvio,
    optimizer_seed,
    problem_seed,
)
from dynopt.optimizers import (
    BudgetedRecorder,
    PsoBaseline,
    Qcsso,
    SsaBaseline,
    run,
)
from dynopt.overrides import parse_config_text

WRAPPED = [
    (PeakSet, "evaluate"),
    (CompositionProblem, "evaluate"),
    (GdbgInstance, "evaluate"),
    (GdbgInstance, "advance_environment"),
    (BudgetedRecorder, "evaluate"),
] + [
    (swarm, name)
    for swarm in (Qcsso, SsaBaseline, PsoBaseline)
    for name in ("iterate", "detect_change")
]


@pytest.mark.parametrize(
    "owner, name", WRAPPED, ids=[f"{o.__name__}.{n}" for o, n in WRAPPED]
)
def test_a_wrapped_method_exists(owner, name):
    assert callable(getattr(owner, name, None))


def test_run_takes_the_benchmark_keywords():
    parameters = inspect.signature(run).parameters
    for name in ("s_samples", "frequency", "collect_ratios", "trace", "overrides"):
        assert parameters[name].kind is inspect.Parameter.KEYWORD_ONLY, name


def test_the_instance_counts_what_a_run_spent():
    problem = make_instance(
        "F1(10)", "T1", 7, {"dimension": 5, "change_frequency": 50}
    )
    traj = run(
        "pso_baseline", problem, 250, 3, s_samples=4, frequency=50,
        collect_ratios=True, overrides={"population": "6"},
    )
    assert problem.eval_count == traj.evaluations == 250
    assert problem.t == len(traj.e_last) == 5


def test_a_repeat_is_assembled_written_and_scored_again(tmp_path):
    # perfbench's path from a workload's pairs to the tables it re-scores
    config = ExperimentConfig.from_pairs(parse_config_text(
        "cases = F1(10):T1\nruns = 1\nnum_change = 2\n"
        "change_frequency = 60\nseed = 3\ntrace = true\n"
    ))
    weights = csvio.load_weight_table(config.weights)
    results = {}
    for case in config.selected_cases():
        for opt in config.optimizers:
            problem = make_instance(
                case.function_id, case.change_type,
                problem_seed(config.seed, case.case_id, 0),
                {"dimension": config.dimension,
                 "change_frequency": config.resolved_frequency()},
            )
            assert problem.param_lines()
            assert problem.optimum_position().shape == (config.dimension,)
            t = run(
                opt, problem, config.budget(),
                optimizer_seed(config.seed, case.case_id, opt, 0),
                s_samples=config.samples_per_window,
                frequency=config.resolved_frequency(), collect_ratios=True,
                trace=config.trace, overrides=config.overrides_for(opt),
            )
            assert t.evaluations == problem.eval_count == config.budget()
            for name in ("e_last", "r_last", "ratio_samples"):
                assert isinstance(getattr(t, name), list), name
            results[(case.case_id, opt)] = CaseResult(
                case=case, optimizer_id=opt,
                errors=np.array([t.e_last], dtype=float),
                r_last=np.array([t.r_last], dtype=float),
                samples=np.array([t.ratio_samples], dtype=float),
                trajectories=[t],
            )
    result = ExperimentResult(config=config, results=results)
    written = csvio.write_errors_tables(tmp_path, result)
    written += csvio.write_raw_tables(tmp_path, result)
    written += csvio.write_trajectories(tmp_path, result)
    written.append(csvio.write_scores(
        tmp_path, result.scores(), result.overall(weights)
    ))
    assert all(path.is_file() for path in written)
    assert csvio.recompute_scores(tmp_path) == result.scores()
