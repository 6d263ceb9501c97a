"""Experiment orchestration: seeds, case grids, runs, and score assembly.

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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from dynopt.errors import ConfigError
from dynopt.gdbg.instance import make_instance, resolve_frequency
from dynopt.harness import stats
from dynopt.harness.cases import Case, select_cases
from dynopt.optimizers.runner import OPTIMIZER_IDS, Trajectory, optimizer_config, run
from dynopt.overrides import coerce

DEFAULT_SEED = 12345

_PREFIX_BUCKETS = {
    "qcsso.": "qcsso_overrides",
    "ssa.": "ssa_overrides",
    "pso.": "pso_overrides",
}

_OPTIMIZER_BUCKETS = {
    "qcsso": "qcsso_overrides",
    "ssa_baseline": "ssa_overrides",
    "pso_baseline": "pso_overrides",
}


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
    samples_per_window: int = 20
    dimension: int = 10
    seed: int = DEFAULT_SEED
    weights: str = "uniform"
    jobs: int = 1
    trace: bool = False
    qcsso_overrides: dict = field(default_factory=dict)
    ssa_overrides: dict = field(default_factory=dict)
    pso_overrides: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ConfigError("runs must be at least 1")
        if self.num_change < 1:
            raise ConfigError("num_change must be at least 1")
        if self.change_frequency < 0:
            raise ConfigError("change_frequency must be non-negative")
        if self.samples_per_window < 1:
            raise ConfigError("samples_per_window must be at least 1")
        if self.jobs < 1:
            raise ConfigError("jobs must be at least 1")
        self.optimizers = tuple(self.optimizers)
        self.cases = tuple(self.cases)
        for opt in self.optimizers:
            if opt not in OPTIMIZER_IDS:
                raise ConfigError(
                    f"unknown optimizer {opt!r}; expected one of "
                    f"{', '.join(OPTIMIZER_IDS)}"
                )
        if not self.optimizers:
            raise ConfigError("at least one optimizer is required")
        # every override is checked here, before any run spends its budget
        for optimizer_id in OPTIMIZER_IDS:
            optimizer_config(optimizer_id, self.overrides_for(optimizer_id))

    @classmethod
    def from_pairs(cls, pairs: Mapping[str, object]) -> "ExperimentConfig":
        """Build a config from flat key=value pairs.

        Keys with a ``qcsso.``, ``ssa.``, or ``pso.`` prefix are passed
        through to the matching optimizer; everything else must name a
        scalar field of this class.
        """
        kwargs: dict[str, object] = {}
        buckets: dict[str, dict] = {name: {} for name in _PREFIX_BUCKETS.values()}
        scalar_fields = {
            f.name: f
            for f in dataclasses.fields(cls)
            if not f.name.endswith("_overrides")
        }
        for key, value in pairs.items():
            prefixed = False
            for prefix, bucket in _PREFIX_BUCKETS.items():
                if key.startswith(prefix):
                    buckets[bucket][key[len(prefix):]] = value
                    prefixed = True
                    break
            if prefixed:
                continue
            if key not in scalar_fields:
                raise ConfigError(f"unknown experiment setting {key!r}")
            if key in ("cases", "optimizers"):
                if isinstance(value, str):
                    value = [part.strip() for part in value.split(",") if part.strip()]
                kwargs[key] = tuple(value)
            else:
                kwargs[key] = coerce(value, type(scalar_fields[key].default))
        kwargs.update({name: bucket for name, bucket in buckets.items() if bucket})
        return cls(**kwargs)

    def resolved_frequency(self) -> int:
        return resolve_frequency(self.change_frequency, self.dimension)

    def budget(self) -> int:
        return self.num_change * self.resolved_frequency()

    def overrides_for(self, optimizer_id: str) -> dict:
        return getattr(self, _OPTIMIZER_BUCKETS[optimizer_id])

    def selected_cases(self) -> tuple[Case, ...]:
        return select_cases(self.cases)


def run_single(
    config: ExperimentConfig, case: Case, optimizer_id: str, run_index: int
) -> Trajectory:
    """One optimizer, one landscape instance, full budget."""
    frequency = config.resolved_frequency()
    problem = make_instance(
        case.function_id,
        case.change_type,
        problem_seed(config.seed, case.case_id, run_index),
        {"dimension": config.dimension, "change_frequency": frequency},
    )
    trajectory = run(
        optimizer_id,
        problem,
        config.budget(),
        optimizer_seed(config.seed, case.case_id, optimizer_id, run_index),
        s_samples=config.samples_per_window,
        frequency=frequency,
        collect_ratios=True,
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

    def stat_rows(self) -> dict[str, float]:
        return {
            "Avg.Best": stats.average_best(self.errors),
            "Avg.Worst": stats.average_worst(self.errors),
            "Avg.Mean": stats.average_mean(self.errors),
            "STD": stats.std_dev(self.errors),
        }


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    results: dict[tuple[str, str], CaseResult]

    def case_ids(self) -> list[str]:
        seen = []
        for case_id, _ in self.results:
            if case_id not in seen:
                seen.append(case_id)
        return seen

    def scores(self) -> dict[str, dict[str, float]]:
        """Per optimizer: case id to case score."""
        out: dict[str, dict[str, float]] = {opt: {} for opt in self.config.optimizers}
        for (case_id, optimizer_id), result in self.results.items():
            out[optimizer_id][case_id] = result.score()
        return out

    def overall(self, weights: Mapping[str, float]) -> dict[str, float]:
        return {
            opt: stats.overall_score(case_scores, weights)
            for opt, case_scores in self.scores().items()
        }


@contextlib.contextmanager
def _ordered_map(jobs: int):
    """The builtin ``map`` for one job, else a process pool's ordered map."""
    if jobs == 1:
        yield map
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield functools.partial(pool.map, chunksize=1)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the whole case grid, optionally fanning runs out to processes.

    Runs come back in task order, so each cell is assembled from the next
    ``runs`` trajectories as soon as they arrive, whatever ``jobs`` is.
    """
    cases = config.selected_cases()
    if not cases:
        raise ConfigError("case selection matched nothing")
    tasks = list(itertools.product(cases, config.optimizers, range(config.runs)))
    results: dict[tuple[str, str], CaseResult] = {}
    with _ordered_map(config.jobs) as ordered_map:
        trajectories = ordered_map(run_single, itertools.repeat(config), *zip(*tasks))
        for case, optimizer_id, _ in tasks[:: config.runs]:
            runs = list(itertools.islice(trajectories, config.runs))
            results[(case.case_id, optimizer_id)] = CaseResult(
                case=case,
                optimizer_id=optimizer_id,
                errors=np.array([t.e_last for t in runs], dtype=float),
                r_last=np.array([t.r_last for t in runs], dtype=float),
                samples=np.array([t.ratio_samples for t in runs], dtype=float),
                trajectories=runs if config.trace else None,
            )
    return ExperimentResult(config=config, results=results)
