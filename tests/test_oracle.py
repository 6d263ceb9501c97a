"""Known answers: an oracle that scores the optimum must score exactly.

The oracle reads the instance's ``optimum_position()`` before every call
and scores it through the run's clock, one row per call, as a swarm reads
the dimension and then scores.  Each window then holds the optimum, so the
whole path (instance, clock, windows, errors, ratios, case score) has an
answer known in advance: an error of exactly 0 and ratios of exactly 1.

The one exception is the Ackley floor.  ``ackley(0)`` is 4.44e-16 in
float64, not 0, so a composition whose lowest component is an Ackley one
(every F5 window, some F6 windows) scores its optimum a little above
``optimum_value()``.  There the window's error must equal that floor,
the landscape's own value at the optimum minus the optimum value.
"""

import numpy as np
import pytest

from dynopt.gdbg import make_instance
from dynopt.gdbg.changes import DIM_MAX, DIM_MIN
from dynopt.gdbg.composition import CompositionProblem
from dynopt.harness import stats
from dynopt.harness.cases import all_cases
from dynopt.optimizers import BudgetedRecorder

SEEDS = (0, 1, 2)
# a short window that still fills its first sample point after the row
# that opens it; 26 windows take T7's walk from 10 past 15 and past 5
FREQUENCY = 40
WINDOWS = 26


def floor_at_optimum(inst) -> float:
    """The landscape's own value at the optimum minus ``optimum_value()``."""
    optimum = inst.optimum_position()[None, :]
    return float(inst.problem.evaluate(optimum)[0]) - inst.optimum_value()


def lowest_is_ackley(inst) -> bool:
    problem = inst.problem
    return (isinstance(problem, CompositionProblem)
            and problem.func_names[int(np.argmin(problem.heights))] == "ackley")


@pytest.mark.parametrize("case", all_cases(), ids=lambda case: case.case_id)
def test_the_optimum_scores_exactly(case):
    for seed in SEEDS:
        inst = make_instance(case.function_id, case.change_type, seed,
                             {"change_frequency": FREQUENCY})
        clock = BudgetedRecorder(inst, WINDOWS * FREQUENCY)
        floors, dims = [], set()
        while clock.used < clock.budget:
            if inst.t == len(floors):  # a new environment: its floor
                floors.append(floor_at_optimum(inst))
                assert (floors[-1] > 0.0) is lowest_is_ackley(inst)
            dims.add(clock.dimension())
            clock.evaluate(inst.optimum_position()[None, :])
        assert len(clock.e_last) == WINDOWS
        # exactly 0 off the floor, exactly the floor on it
        assert clock.e_last == floors[:WINDOWS]
        if case.function_id == "F5":  # every component is an Ackley one
            assert all(floors)
        if case.change_type == "T7":
            assert {DIM_MIN, DIM_MAX} <= dims
        if not any(floors[:WINDOWS]):
            assert clock.r_last == [1.0] * WINDOWS
            assert all(ratios == [1.0] * len(ratios) for ratios in clock.ratio_samples)
            score = stats.case_score(np.array([clock.r_last]),
                                     np.array([clock.ratio_samples]))
            assert score == 1.0
