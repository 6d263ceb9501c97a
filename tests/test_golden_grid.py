"""Byte-exact golden gate over the whole case grid.

Every (case, optimizer) cell of the 49-case grid runs once, with three
windows of 200 evaluations under fixed seeds.  Each line of
``data/golden_grid.txt`` holds the cell's before-change errors and quality
ratios as ``repr`` text, so any change to a random stream or a float path
shows up here.  After a deliberate change, regenerate the file with::

    PYTHONPATH=src python3 tests/test_golden_grid.py
"""

from __future__ import annotations

from pathlib import Path

from dynopt.harness import ExperimentConfig, run_single

GOLDEN = Path(__file__).parent / "data" / "golden_grid.txt"
GRID = ExperimentConfig(runs=1, num_change=3, change_frequency=200, seed=12345)


def cell_line(case, optimizer_id: str) -> str:
    trajectory = run_single(GRID, case, optimizer_id, 0)
    values = [*trajectory.e_last, *trajectory.r_last]
    return ",".join([case.case_id, optimizer_id, *map(repr, values)])


def grid_text() -> str:
    return "".join(
        cell_line(case, opt) + "\n"
        for case in GRID.selected_cases()
        for opt in GRID.optimizers
    )


def test_grid_matches_golden_byte_for_byte():
    actual = grid_text()
    expected = GOLDEN.read_text(encoding="utf-8")
    assert actual.splitlines() == expected.splitlines()
    assert actual == expected


if __name__ == "__main__":
    GOLDEN.write_text(grid_text(), encoding="utf-8")
    print(f"wrote {GOLDEN}")
