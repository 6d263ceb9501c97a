"""Dynamic-optimization toolkit.

Provides a dynamic benchmark generator in the GDBG family (rotation peaks
and composition landscapes under seven change regimes), a multi-population
quantum-behaved salp swarm optimizer with two baselines, and an experiment
harness that turns runs into error statistics and competition-style scores.
"""

from dynopt.errors import BudgetExhausted, ConfigError, DimensionMismatch
from dynopt.gdbg import ChangeType, GdbgInstance, make_instance
from dynopt.objective import DynamicObjective
from dynopt.optimizers import OPTIMIZER_IDS, run

__all__ = [
    "BudgetExhausted",
    "ChangeType",
    "ConfigError",
    "DimensionMismatch",
    "DynamicObjective",
    "GdbgInstance",
    "OPTIMIZER_IDS",
    "make_instance",
    "run",
]

__version__ = "0.1.0"
