"""The names the benchmark (``perfbench/run.py``) calls or wraps.

The traced benchmark wraps these methods to time each layer, and reads the
instance's counters after each run.  A refactor that renames one of them
fails here rather than in the benchmark.
"""

import inspect

import pytest

from dynopt.gdbg import CompositionProblem, GdbgInstance, PeakSet, make_instance
from dynopt.optimizers import (
    BudgetedRecorder,
    PsoBaseline,
    Qcsso,
    SsaBaseline,
    run,
)

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
