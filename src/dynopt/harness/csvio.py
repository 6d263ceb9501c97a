"""CSV export and import for experiment results.

Four artifact kinds live in an output directory:

* ``raw_<family>_<type>_<optimizer>.csv``: every window close of every run
  of one cell at full precision; every summary is derived from these.
* ``trajectory_<family>_<type>_<optimizer>_run<k>.csv``: with tracing on,
  one run's best error at each ratio-sample point, then its window closes.
* ``errors_<family>.csv``: the four error statistics per optimizer and
  change type, in 2-digit scientific notation.
* ``scores.csv``: per-case scores plus one weighted overall row per
  optimizer.

All files are UTF-8 with LF line endings, written deterministically, each
whole or not at all: through a sibling ``.part`` file that replaces it.
"""

from __future__ import annotations

import math
import os
from pathlib import Path
from typing import Mapping

import numpy as np

from dynopt.errors import ConfigError
from dynopt.gdbg.instance import FUNCTION_IDS
from dynopt.harness import stats
from dynopt.harness.cases import (
    CHANGE_LABELS,
    WEIGHT_TABLES,
    Case,
    all_cases,
)
from dynopt.harness.experiment import CaseResult, ExperimentResult, optimizer_order
from dynopt.optimizers.runner import OPTIMIZER_IDS, Trajectory
from dynopt.overrides import parse_config_text


def family_tag(function_id: str) -> str:
    """Filesystem-safe tag for a landscape family: ``F1(10)`` -> ``F1_10``."""
    return function_id.replace("(", "_").replace(")", "")


def format_error(value: float) -> str:
    """Scientific notation with two fractional digits, e.g. 3.36E-04."""
    return f"{value:.2E}"


def _write(path: Path, text: str) -> Path:
    """Write ``text`` to a sibling ``.part`` file, then move it over ``path``."""
    part = path.with_name(path.name + ".part")
    part.write_text(text, encoding="utf-8")
    os.replace(part, path)
    return path


def errors_filename(function_id: str) -> str:
    return f"errors_{family_tag(function_id)}.csv"


def raw_filename(function_id: str, change_type: str, optimizer_id: str) -> str:
    return f"raw_{family_tag(function_id)}_{change_type}_{optimizer_id}.csv"


def trajectory_filename(
    function_id: str, change_type: str, optimizer_id: str, run_index: int
) -> str:
    tag = family_tag(function_id)
    return f"trajectory_{tag}_{change_type}_{optimizer_id}_run{run_index}.csv"


def write_errors_tables(out_dir: Path, result: ExperimentResult) -> list[Path]:
    """One statistics table per landscape family, optimizers in registry order."""
    families = {cell.case.function_id for cell in result.results.values()}
    optimizers = optimizer_order({opt for _, opt in result.results})
    written = []
    for fid in (fid for fid in FUNCTION_IDS if fid in families):
        lines = ["algorithm,stat," + ",".join(CHANGE_LABELS)]
        for optimizer_id in optimizers:
            rows = {stat: [] for stat in stats.STAT_ROWS}
            for label in CHANGE_LABELS:
                cell = result.results.get((f"{fid}:{label}", optimizer_id))
                values = stats.error_stats(cell.errors) if cell else None
                for stat in stats.STAT_ROWS:
                    rows[stat].append(format_error(values[stat]) if values else "")
            for stat in stats.STAT_ROWS:
                lines.append(f"{optimizer_id},{stat}," + ",".join(rows[stat]))
        path = Path(out_dir) / errors_filename(fid)
        written.append(_write(path, "\n".join(lines) + "\n"))
    return written


def write_raw_table(out_dir: Path, case_result: CaseResult) -> Path:
    """Full-precision window records for one (case, optimizer) cell."""
    runs, changes = case_result.errors.shape
    s_count = case_result.samples.shape[2]
    header = "run,change,E_last,r_last," + ",".join(
        f"r_{s}" for s in range(1, s_count + 1)
    )
    lines = [header]
    for run_index in range(runs):
        for change_index in range(changes):
            cells = [
                str(run_index),
                str(change_index),
                repr(float(case_result.errors[run_index, change_index])),
                repr(float(case_result.r_last[run_index, change_index])),
            ]
            cells.extend(
                repr(float(v)) for v in case_result.samples[run_index, change_index]
            )
            lines.append(",".join(cells))
    case = case_result.case
    path = Path(out_dir) / raw_filename(
        case.function_id, case.change_type, case_result.optimizer_id
    )
    return _write(path, "\n".join(lines) + "\n")


def _trajectory_text(trajectory: Trajectory) -> str:
    """One run's traced errors, then its window-close errors, at full precision."""
    lines = ["eval_count,error"]
    lines += [f"{count},{err!r}" for count, err in trajectory.trace]
    lines.append("change_index,E_last")
    lines += [f"{index},{err!r}" for index, err in enumerate(trajectory.e_last)]
    return "\n".join(lines) + "\n"


def write_cell_trajectories(out_dir: Path, case_result: CaseResult) -> list[Path]:
    """One cell's runs as trajectory files; only present when tracing was on."""
    case, optimizer_id = case_result.case, case_result.optimizer_id
    return [
        _write(
            Path(out_dir) / trajectory_filename(
                case.function_id, case.change_type, optimizer_id, run_index
            ),
            _trajectory_text(trajectory),
        )
        for run_index, trajectory in enumerate(case_result.trajectories or ())
    ]


def write_raw_tables(out_dir: Path, result: ExperimentResult) -> list[Path]:
    return [
        write_raw_table(out_dir, case_result)
        for case_result in result.results.values()
    ]


def write_trajectories(out_dir: Path, result: ExperimentResult) -> list[Path]:
    return [
        path
        for case_result in result.results.values()
        for path in write_cell_trajectories(out_dir, case_result)
    ]


def write_scores(
    out_dir: Path,
    scores: Mapping[str, Mapping[str, float]],
    overall: Mapping[str, float],
) -> Path:
    """Per-case scores and one OVERALL row per optimizer."""
    lines = ["case,optimizer,score"]
    case_order = [c.case_id for c in all_cases()]
    present = sorted(
        {case_id for per_case in scores.values() for case_id in per_case},
        key=case_order.index,
    )
    for case_id in present:
        for optimizer_id, per_case in scores.items():
            if case_id in per_case:
                lines.append(f"{case_id},{optimizer_id},{per_case[case_id]:.6f}")
    for optimizer_id, value in overall.items():
        lines.append(f"OVERALL,{optimizer_id},{value:.4f}")
    return _write(Path(out_dir) / "scores.csv", "\n".join(lines) + "\n")


def scan_raw_files(out_dir: Path) -> list[tuple[str, str, str, Path]]:
    """The raw tables ``dynopt run`` writes that exist in ``out_dir``, as
    (function_id, change_type, optimizer_id, path) in grid then registry order."""
    present = set(os.listdir(out_dir))  # one listing, not a stat per name
    found = []
    for case in all_cases():
        for optimizer_id in OPTIMIZER_IDS:
            cell = (case.function_id, case.change_type, optimizer_id)
            if raw_filename(*cell) in present:
                found.append((*cell, Path(out_dir) / raw_filename(*cell)))
    return found


def read_raw_table(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read one raw table back into (errors, r_last, samples) arrays."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if line]
    if not lines:
        raise ConfigError(f"raw table {path} is empty")
    header = lines[0].split(",")
    if header[:4] != ["run", "change", "E_last", "r_last"]:
        raise ConfigError(f"raw table {path} has unexpected header {lines[0]!r}")
    s_count = len(header) - 4
    if not s_count:
        raise ConfigError(f"raw table {path} has no ratio sample columns")
    records: dict[tuple[int, int], list[float]] = {}  # E_last, r_last, samples
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 4 + s_count:
            raise ConfigError(f"raw table {path} has a ragged row: {line!r}")
        key = (int(cells[0]), int(cells[1]))
        if min(key) < 0:
            raise ConfigError(f"raw table {path} has a negative index: {line!r}")
        if key in records:
            raise ConfigError(f"raw table {path} repeats a row: {line!r}")
        records[key] = [float(v) for v in cells[2:]]
        if not 0.0 <= records[key][0] < math.inf:  # NaN fails too
            raise ConfigError(
                f"raw table {path} has a negative or non-finite E_last: {line!r}"
            )
    if not records:
        raise ConfigError(f"raw table {path} has no data rows")
    runs = max(key[0] for key in records) + 1
    changes = max(key[1] for key in records) + 1
    if len(records) != runs * changes:
        raise ConfigError(f"raw table {path} is missing rows")
    table = np.empty((runs, changes, 2 + s_count))
    for (run_index, change_index), row in records.items():
        table[run_index, change_index] = row
    ratios = table[..., 1:]
    bad = ratios[~((ratios > 0.0) & (ratios <= 1.0))]  # NaN fails too
    if bad.size:
        raise ConfigError(
            f"raw table {path} has a ratio outside (0, 1]: {float(bad[0])!r}"
        )
    # contiguous copies, so every reduction sums as over the written arrays
    return table[..., 0].copy(), table[..., 1].copy(), table[..., 2:].copy()


def read_results(out_dir: Path) -> ExperimentResult:
    """Every raw table in a directory as its cell; the tables must share one shape."""
    found = scan_raw_files(out_dir)
    if not found:
        raise ConfigError(f"no raw tables found in {out_dir}")
    results, shapes = {}, {}
    for function_id, change_type, optimizer_id, path in found:
        case = Case(function_id, change_type)
        cell = CaseResult(case, optimizer_id, *read_raw_table(path))
        results[(case.case_id, optimizer_id)] = cell
        shapes.setdefault(cell.samples.shape, path.name)
    if len(shapes) > 1:
        (one, first), (other, second) = list(shapes.items())[:2]
        raise ConfigError(
            f"raw tables {first} and {second} in {out_dir} differ in (runs, "
            f"windows, samples per window): {one} against {other}"
        )
    return ExperimentResult(results)


def recompute_scores(out_dir: Path) -> dict[str, dict[str, float]]:
    """Per-case scores from the raw tables in a directory (the benchmark's call)."""
    return read_results(out_dir).scores()


def load_weight_table(spec: str) -> dict[str, float]:
    """Resolve a weight table by name (uniform, official) or from a file."""
    if spec in WEIGHT_TABLES:
        table = WEIGHT_TABLES[spec]()
    else:
        path = Path(spec)
        if not path.is_file():
            raise ConfigError(
                f"weights must be one of {', '.join(sorted(WEIGHT_TABLES))} "
                f"or a file path, got {spec!r}"
            )
        pairs = parse_config_text(path.read_text(encoding="utf-8"))
        try:
            table = {key: float(value) for key, value in pairs.items()}
        except ValueError as exc:
            raise ConfigError(f"bad weight value in {spec}: {exc}") from exc
    return stats.validate_weight_table(table, [c.case_id for c in all_cases()])
