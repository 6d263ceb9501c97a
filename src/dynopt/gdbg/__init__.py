"""Dynamic benchmark generator (rotation peaks and composition landscapes)."""

from dynopt.gdbg.changes import ChangeType, change_values, walk_dimension
from dynopt.gdbg.basefuncs import BASE_FUNCTIONS
from dynopt.gdbg.composition import CompositionProblem
from dynopt.gdbg.instance import (
    FUNCTION_IDS,
    GdbgConfig,
    GdbgInstance,
    make_instance,
)
from dynopt.gdbg.peaks import PeakSet
from dynopt.gdbg.rotation import paired_rotation, random_orthogonal

__all__ = [
    "BASE_FUNCTIONS",
    "ChangeType",
    "CompositionProblem",
    "FUNCTION_IDS",
    "GdbgConfig",
    "GdbgInstance",
    "PeakSet",
    "change_values",
    "make_instance",
    "paired_rotation",
    "random_orthogonal",
    "walk_dimension",
]
