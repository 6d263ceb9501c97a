"""Optimizers for dynamic problems and the single-run entry point."""

from dynopt.optimizers import rules
from dynopt.optimizers.base import SwarmBase
from dynopt.optimizers.baselines import PsoBaseline, SsaBaseline
from dynopt.optimizers.qcsso import Qcsso, QcssoConfig
from dynopt.optimizers.runner import (
    OPTIMIZER_IDS,
    BudgetedRecorder,
    Trajectory,
    run,
)

__all__ = [
    "rules",
    "SwarmBase",
    "PsoBaseline",
    "SsaBaseline",
    "Qcsso",
    "QcssoConfig",
    "OPTIMIZER_IDS",
    "BudgetedRecorder",
    "Trajectory",
    "run",
]
