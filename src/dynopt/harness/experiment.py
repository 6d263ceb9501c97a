"""Experiment orchestration: seeds, the case grid, and the runs of each cell.

Every optimizer sees the same landscape sequence for a given case and run
index, so comparisons are paired. Seeds are derived by hashing the case,
optimizer, run index, and stream name, which keeps them stable no matter
which subset of the grid is executed or in what order.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

from dynopt.errors import ConfigError
from dynopt.gdbg.changes import DIM_MAX, DIM_MIN
from dynopt.gdbg.instance import make_instance, resolve_frequency
from dynopt.harness import stats
from dynopt.harness.cases import Case, select_cases
from dynopt.optimizers.runner import (
    OPTIMIZER_IDS,
    SAMPLES_PER_WINDOW,
    Trajectory,
    optimizer_config,
    run,
)
from dynopt.overrides import apply_overrides

DEFAULT_SEED = 12345

# the key prefix that passes a setting through to each optimizer: its id
# up to the first underscore
_PREFIXES = {opt.partition("_")[0]: opt for opt in OPTIMIZER_IDS}


def derive_seed(base: int, *parts: str) -> int:
    """Mix a base seed with labelled parts into a stable 64-bit stream seed."""
    text = "|".join(parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") ^ (int(base) & 0xFFFFFFFFFFFFFFFF)


def problem_seed(base: int, case_id: str, run_index: int) -> int:
    """Landscape seed for one run; shared by every optimizer on that run."""
    return derive_seed(base, case_id, str(run_index), "problem")


def optimizer_seed(base: int, case_id: str, optimizer_id: str, run_index: int) -> int:
    return derive_seed(base, case_id, optimizer_id, str(run_index), "optimizer")


@dataclass
class ExperimentConfig:
    """Flat experiment settings, buildable from key=value pairs."""

    cases: tuple[str, ...] = ()
    optimizers: tuple[str, ...] = OPTIMIZER_IDS
    runs: int = 20
    num_change: int = 60
    change_frequency: int = 0
    samples_per_window: int = SAMPLES_PER_WINDOW
    dimension: int = 10
    seed: int = DEFAULT_SEED
    weights: str = "uniform"
    jobs: int = 1
    trace: bool = False
    overrides: dict = field(default_factory=dict)  # optimizer id -> key=value pairs

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ConfigError("runs must be at least 1")
        if self.num_change < 1:
            raise ConfigError("num_change must be at least 1")
        if self.change_frequency < 0 or self.change_frequency == 1:
            # at 1 the first evaluation already crosses, leaving window 0 empty
            raise ConfigError("change_frequency must be 0 (the default) or at least 2")
        if not DIM_MIN <= self.dimension <= DIM_MAX:
            raise ConfigError(f"dimension must lie in [{DIM_MIN}, {DIM_MAX}]")
        if self.samples_per_window < 1:
            raise ConfigError("samples_per_window must be at least 1")
        if self.jobs < 1:
            raise ConfigError("jobs must be at least 1")
        self.optimizers = tuple(self.optimizers)
        self.cases = tuple(self.cases)
        if not self.optimizers:
            raise ConfigError("at least one optimizer is required")
        # every selected or overridden id and its overrides are checked
        # here, before any run spends its budget
        for optimizer_id in dict.fromkeys((*self.optimizers, *self.overrides)):
            optimizer_config(optimizer_id, self.overrides_for(optimizer_id))

    @classmethod
    def from_pairs(cls, pairs: Mapping[str, object]) -> "ExperimentConfig":
        """Build a config from flat key=value pairs.

        Keys with a ``qcsso.``, ``ssa.``, or ``pso.`` prefix are passed
        through to the matching optimizer; everything else must name a
        setting of this class, coerced to its field's type.
        """
        known = {f.name for f in dataclasses.fields(cls)} - {"overrides"}
        overrides: dict[str, dict] = {}
        settings: dict[str, object] = {"overrides": overrides}
        for key, value in pairs.items():
            prefix, dot, name = key.partition(".")
            if dot and prefix in _PREFIXES:
                overrides.setdefault(_PREFIXES[prefix], {})[name] = value
            elif key in known:
                settings[key] = value
            else:
                raise ConfigError(f"unknown experiment setting {key!r}")
        return apply_overrides(cls(), settings)

    def resolved_frequency(self) -> int:
        return resolve_frequency(self.change_frequency, self.dimension)

    def budget(self) -> int:
        return self.num_change * self.resolved_frequency()

    def overrides_for(self, optimizer_id: str) -> dict:
        return self.overrides.get(optimizer_id, {})

    def selected_cases(self) -> tuple[Case, ...]:
        return select_cases(self.cases)


def run_single(
    config: ExperimentConfig, case: Case, optimizer_id: str, run_index: int
) -> Trajectory:
    """One optimizer, one landscape instance, full budget."""
    problem = make_instance(
        case.function_id,
        case.change_type,
        problem_seed(config.seed, case.case_id, run_index),
        {"dimension": config.dimension,
         "change_frequency": config.resolved_frequency()},
    )
    trajectory = run(
        optimizer_id,
        problem,
        config.budget(),
        optimizer_seed(config.seed, case.case_id, optimizer_id, run_index),
        s_samples=config.samples_per_window,
        trace=config.trace,
        overrides=config.overrides_for(optimizer_id),
    )
    if len(trajectory.e_last) != config.num_change:
        raise RuntimeError(
            f"expected {config.num_change} closed windows, got "
            f"{len(trajectory.e_last)} for {case.case_id}/{optimizer_id}"
        )
    return trajectory


@dataclass
class CaseResult:
    """All runs of one optimizer on one case, as dense arrays."""

    case: Case
    optimizer_id: str
    errors: np.ndarray
    r_last: np.ndarray
    samples: np.ndarray
    trajectories: list[Trajectory] | None = None

    def score(self) -> float:
        return stats.case_score(self.r_last, self.samples)


@dataclass
class ExperimentResult:
    """Cells keyed by (case id, optimizer id), as read back from raw tables."""

    results: dict[tuple[str, str], CaseResult]
    config: ExperimentConfig | None = None  # not read here; the benchmark passes it

    def scores(self) -> dict[str, dict[str, float]]:
        """Per optimizer, in registry order: case id to case score."""
        out = {opt: {} for opt in optimizer_order({opt for _, opt in self.results})}
        for (case_id, optimizer_id), result in self.results.items():
            out[optimizer_id][case_id] = result.score()
        return out

    def overall(self, weights: Mapping[str, float]) -> dict[str, float]:
        return {
            opt: stats.overall_score(case_scores, weights)
            for opt, case_scores in self.scores().items()
        }


def optimizer_order(optimizer_ids) -> list[str]:
    """The registered optimizers among ``optimizer_ids``, in registry order."""
    return [opt for opt in OPTIMIZER_IDS if opt in optimizer_ids]


@contextlib.contextmanager
def _ordered_map(jobs: int):
    """The builtin ``map`` for one job, else a process pool's ordered map."""
    if jobs == 1:
        yield map
        return
    # imported here: the pool pulls in multiprocessing, which one job never needs
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=jobs)
    try:
        yield functools.partial(pool.map, chunksize=1)
    finally:
        # a consumer that stops early must not wait for the runs still queued
        pool.shutdown(cancel_futures=True)


def run_experiment(config: ExperimentConfig) -> Iterator[CaseResult]:
    """Run the case grid, yielding each (case, optimizer) cell in grid order.

    One ordered map covers every run of the grid, so a pool stays full
    across cells, and each cell is the next ``runs`` trajectories whatever
    ``jobs`` is. Closing the generator cancels the runs not yet started.
    """
    tasks = list(itertools.product(
        config.selected_cases(), config.optimizers, range(config.runs)
    ))
    with _ordered_map(config.jobs) as ordered_map:
        trajectories = ordered_map(run_single, itertools.repeat(config), *zip(*tasks))
        for case, optimizer_id, _ in tasks[:: config.runs]:
            runs = list(itertools.islice(trajectories, config.runs))
            yield CaseResult(
                case=case,
                optimizer_id=optimizer_id,
                errors=np.array([t.e_last for t in runs], dtype=float),
                r_last=np.array([t.r_last for t in runs], dtype=float),
                samples=np.array([t.ratio_samples for t in runs], dtype=float),
                trajectories=runs if config.trace else None,
            )
