"""Byte-exact golden gate over long windows.

The 49-case golden grid runs about eight ``qcsso`` iterations per run, too
few for any member to outlive its age limit, so it never draws an aging
coin.  This gate runs three cases (F1(10):T1, F6:T1 and F1(10):T7) x the
three optimizers for three windows of 4000 evaluations each: long enough
for aging recycles, many exclusions and long stretches of follower
updates.  Each line of ``data/golden_long.txt`` holds the run's summed
aging recycles and excluded chains (``qcsso`` only, ``-`` for the
baselines), then its before-change errors and quality ratios as ``repr``
text.  After a deliberate change, regenerate the file with::

    PYTHONPATH=src python3 tests/test_golden_long.py
"""

from __future__ import annotations

from pathlib import Path

from dynopt.errors import BudgetExhausted
from dynopt.gdbg import make_instance
from dynopt.harness import ExperimentConfig
from dynopt.harness.experiment import optimizer_seed, problem_seed
from dynopt.optimizers.runner import BudgetedRecorder, _OPTIMIZERS

from conftest import environment_note, record_returns

GOLDEN = Path(__file__).parent / "data" / "golden_long.txt"
LONG = ExperimentConfig(
    cases=("F1(10):T1", "F6:T1", "F1(10):T7"),
    runs=1, num_change=3, change_frequency=4000, seed=12345,
)


def cell_line(case, optimizer_id: str) -> str:
    frequency = LONG.resolved_frequency()
    problem = make_instance(
        case.function_id, case.change_type,
        problem_seed(LONG.seed, case.case_id, 0),
        {"dimension": LONG.dimension, "change_frequency": frequency},
    )
    recorder = BudgetedRecorder(
        problem, LONG.budget(), s_samples=LONG.samples_per_window
    )
    optimizer = _OPTIMIZERS[optimizer_id](
        recorder, optimizer_seed(LONG.seed, case.case_id, optimizer_id, 0), LONG.budget()
    )
    if optimizer_id == "qcsso":
        recycled = record_returns(optimizer, "aging_step")
        excluded = record_returns(optimizer, "overlap_search")
    try:
        while True:
            optimizer.iterate()
    except BudgetExhausted:
        pass
    assert len(recorder.e_last) == LONG.num_change
    counts = ["-", "-"]
    if optimizer_id == "qcsso":
        counts = [str(sum(map(len, calls))) for calls in (recycled, excluded)]
    values = [*recorder.e_last, *recorder.r_last]
    return ",".join([case.case_id, optimizer_id, *counts, *map(repr, values)])


def long_text() -> str:
    return "".join(
        cell_line(case, opt) + "\n"
        for case in LONG.selected_cases()
        for opt in LONG.optimizers
    )


def test_long_runs_match_golden_byte_for_byte():
    actual = long_text()
    expected = GOLDEN.read_text(encoding="utf-8")
    assert actual.splitlines() == expected.splitlines(), environment_note()
    assert actual == expected, environment_note()


if __name__ == "__main__":
    GOLDEN.write_text(long_text(), encoding="utf-8")
    print(f"wrote {GOLDEN}")
