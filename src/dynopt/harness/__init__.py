"""Experiment harness: case grid, execution, statistics, and CSV artifacts."""

from dynopt.harness import csvio, stats
from dynopt.harness.cases import (
    CHANGE_LABELS,
    Case,
    all_cases,
    official_weights,
    select_cases,
    uniform_weights,
)
from dynopt.harness.experiment import (
    CaseResult,
    ExperimentConfig,
    ExperimentResult,
    derive_seed,
    optimizer_seed,
    problem_seed,
    run_experiment,
    run_single,
)

__all__ = [
    "csvio",
    "stats",
    "CHANGE_LABELS",
    "Case",
    "all_cases",
    "official_weights",
    "select_cases",
    "uniform_weights",
    "CaseResult",
    "ExperimentConfig",
    "ExperimentResult",
    "derive_seed",
    "optimizer_seed",
    "problem_seed",
    "run_experiment",
    "run_single",
]
