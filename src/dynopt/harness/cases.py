"""The benchmark case grid and the weight tables used to combine scores.

A case is one landscape family paired with one change pattern. The full grid
is seven families (the ten and fifty peak variants count separately) times
seven change patterns, 49 cases in total.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from dynopt.errors import ConfigError
from dynopt.gdbg.changes import ChangeType
from dynopt.gdbg.instance import FUNCTION_IDS, PEAK_COUNTS

CHANGE_LABELS = tuple(change.value for change in ChangeType)

_SELECTOR_RE = re.compile(r"^[A-Za-z0-9()]+(:[A-Za-z0-9]+)?$")


@dataclass(frozen=True)
class Case:
    """One benchmark cell: a landscape family under one change pattern."""

    function_id: str
    change_type: str

    @property
    def case_id(self) -> str:
        return f"{self.function_id}:{self.change_type}"


def all_cases() -> tuple[Case, ...]:
    """Every case in canonical order: families outer, change types inner."""
    return tuple(
        Case(fid, label) for fid in FUNCTION_IDS for label in CHANGE_LABELS
    )


def _match_function(spec: str) -> list[str]:
    if spec in FUNCTION_IDS:
        return [spec]
    matches = [fid for fid in FUNCTION_IDS if fid.split("(")[0] == spec]
    if not matches:
        raise ConfigError(
            f"unknown function {spec!r}; expected one of {', '.join(FUNCTION_IDS)}"
        )
    return matches


def select_cases(selectors) -> tuple[Case, ...]:
    """Resolve selectors like F2, F1:T3, F1(50):T7, or T4 to cases.

    An empty selector list means the full grid. The result keeps canonical
    order and drops duplicates.
    """
    selectors = [s for s in selectors if s]
    if not selectors:
        return all_cases()
    wanted: set[tuple[str, str]] = set()
    for raw in selectors:
        text = raw.strip()
        if not _SELECTOR_RE.match(text):
            raise ConfigError(f"malformed case selector {raw!r}")
        if ":" in text:
            fn_spec, type_spec = text.split(":", 1)
            if type_spec not in CHANGE_LABELS:
                raise ConfigError(
                    f"unknown change type {type_spec!r} in selector {raw!r}"
                )
            for fid in _match_function(fn_spec):
                wanted.add((fid, type_spec))
        elif text in CHANGE_LABELS:
            for fid in FUNCTION_IDS:
                wanted.add((fid, text))
        else:
            for fid in _match_function(text):
                for label in CHANGE_LABELS:
                    wanted.add((fid, label))
    return tuple(c for c in all_cases() if (c.function_id, c.change_type) in wanted)


def uniform_weights() -> dict[str, float]:
    """Equal weight per case, totalling 100."""
    cases = all_cases()
    share = 100.0 / len(cases)
    return {c.case_id: share for c in cases}


def official_weights() -> dict[str, float]:
    """The published mark scheme: peak families carry 10 points split
    1.5 per non-resizing change and 1.0 for T7; composition families carry
    16 points split 2.4 and 1.6 the same way."""
    table: dict[str, float] = {}
    for case in all_cases():
        if case.function_id in PEAK_COUNTS:
            table[case.case_id] = 1.0 if case.change_type == "T7" else 1.5
        else:
            table[case.case_id] = 1.6 if case.change_type == "T7" else 2.4
    return table


WEIGHT_TABLES = {
    "uniform": uniform_weights,
    "official": official_weights,
}
