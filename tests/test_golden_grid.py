"""Byte-exact golden gate over the whole case grid.

Every (case, optimizer) cell of the 49-case grid runs once, with three
windows of 200 evaluations under fixed seeds (``dynopt.cli.GRID``, the
known answer ``dynopt selftest`` checks).  Each line of
``data/golden_grid.txt`` holds the cell's before-change errors and quality
ratios as ``repr`` text, so any change to a random stream or a float path
shows up here.  The file and ``dynopt.cli.GOLDEN_DIGEST``, its sha256, are
two records of one answer and must be regenerated together: after a
deliberate change, rewrite the file with::

    PYTHONPATH=src python3 tests/test_golden_grid.py

and record the digest it prints as ``GOLDEN_DIGEST``.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from dynopt.cli import GOLDEN_DIGEST, grid_text

GOLDEN = Path(__file__).parent / "data" / "golden_grid.txt"


def test_grid_matches_golden_byte_for_byte():
    actual = grid_text()
    expected = GOLDEN.read_text(encoding="utf-8")
    assert actual.splitlines() == expected.splitlines()
    assert actual == expected


def test_golden_file_is_the_recorded_digest():
    assert hashlib.sha256(GOLDEN.read_bytes()).hexdigest() == GOLDEN_DIGEST


if __name__ == "__main__":
    GOLDEN.write_text(grid_text(), encoding="utf-8")
    print(f"wrote {GOLDEN}")
    print(f"GOLDEN_DIGEST = {hashlib.sha256(GOLDEN.read_bytes()).hexdigest()!r}")
