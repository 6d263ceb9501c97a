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

from conftest import environment_note

GOLDEN = Path(__file__).parent / "data" / "golden_grid.txt"


def test_grid_matches_golden_byte_for_byte():
    actual = grid_text()
    expected = GOLDEN.read_text(encoding="utf-8")
    assert actual.splitlines() == expected.splitlines(), environment_note()
    assert actual == expected, environment_note()


def test_golden_file_is_the_recorded_digest():
    assert hashlib.sha256(GOLDEN.read_bytes()).hexdigest() == GOLDEN_DIGEST



def test_environment_note_names_each_differing_key(monkeypatch):
    from dynopt import cli

    moved = {**cli.GOLDEN_ENVIRONMENT, "blas core": "Haswell", "numpy": "2.0.0"}
    monkeypatch.setattr(cli, "numeric_environment", lambda: moved)
    note = environment_note()
    recorded = cli.GOLDEN_ENVIRONMENT["blas core"]
    assert f"blas core is 'Haswell', recorded {recorded!r}" in note
    assert "numpy is '2.0.0'" in note
    assert "dispatch" not in note
    monkeypatch.setattr(cli, "numeric_environment", lambda: dict(cli.GOLDEN_ENVIRONMENT))
    assert environment_note() == "the numeric environment is the recorded one"


if __name__ == "__main__":
    GOLDEN.write_text(grid_text(), encoding="utf-8")
    print(f"wrote {GOLDEN}")
    print(f"GOLDEN_DIGEST = {hashlib.sha256(GOLDEN.read_bytes()).hexdigest()!r}")
