"""The per-run clock, window recording, and the single-run entry point.

A run wraps the objective in a clock that meters the evaluation budget,
fires each change of the problem on the evaluation where it falls, and
snapshots the best error of the window that change closes.  The
resulting trajectory carries everything the scoring layer needs: the
error at each window close and a fixed number of in-window convergence
samples.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from dynopt.errors import BudgetExhausted, ConfigError
from dynopt.objective import DynamicObjective, as_rows, fit_dimension
from dynopt.overrides import apply_overrides
from dynopt.optimizers.baselines import PsoBaseline, SsaBaseline
from dynopt.optimizers.qcsso import Qcsso

_OPTIMIZERS = {
    "qcsso": Qcsso,
    "ssa_baseline": SsaBaseline,
    "pso_baseline": PsoBaseline,
}
OPTIMIZER_IDS = tuple(_OPTIMIZERS)

RATIO_DUST = 1e-9
# S, the in-window samples per score: this repository's setting, and the
# default of the recorder, ``run`` and the experiment config
SAMPLES_PER_WINDOW = 20


def _ratio(best: float, optimum: float, maximize: bool) -> float:
    """Quality ratio in (0, 1], where 1 means the optimum was matched."""
    # numpy scalar division, so a zero divisor gives inf or nan with a
    # warning rather than raising
    r = np.float64(best) / optimum if maximize else optimum / np.float64(best)
    if not r <= 1.0 + RATIO_DUST:  # NaN fails too
        raise RuntimeError(
            f"quality ratio {float(r)!r} exceeds 1 or is NaN: "
            f"best={float(best)!r} optimum={optimum!r}"
        )
    return float(min(r, 1.0))


class BudgetedRecorder:
    """The per-run clock: meters evaluations, fires changes, records windows.

    A problem with a ``frequency`` changes on evaluations ``frequency``,
    ``2 * frequency``, ...: on such a crossing evaluation the clock closes
    the window, calls ``problem.advance_environment()`` and scores the
    crossing row in the new environment, so each window is one
    environment and its record is frozen just before the row that opens
    the next.  ``evaluate`` cuts a batch at the least of the rows left,
    the budget left and the next change, and hands each segment to the
    problem whole; the first row past the budget raises before it is
    scored or opens a change.

    Each window keeps one record: its best, ``best_value``, and that best
    at ``s_samples`` evaluations fixed when the window opens (CEC 2009
    GDBG protocol).  For a changing problem the ratio guard checks every
    new best as it is found, so a value past the optimum raises even in a
    window that never closes.  Closing a window derives the rest: the
    error and ratio of its best go to ``e_last`` and ``r_last``, the
    sampled ratios to ``ratio_samples`` and the ``(evaluation, error)``
    pairs to ``trace``, which is bounded by windows x samples.  A problem
    that never changes has one window, so its ``best_value`` is the best
    of the whole run.  The problem's sense, ``maximize``, is read once.

    Under T7 a change also moves the dimension, usually in the middle of
    a population sweep, and with short windows two changes can fall
    inside one sweep.  The one dimension rule: before a segment is
    scored, rows of the length the swarm last read from ``dimension()``
    (before any read, the length at construction) are fitted to the
    problem's current dimension by ``fit_dimension``, truncated to their
    leading coordinates or zero-padded; a row of any other length goes to
    the problem unchanged, which rejects it unless it has the current
    length.
    """

    def __init__(
        self, problem: DynamicObjective, budget: int, s_samples: int = SAMPLES_PER_WINDOW
    ) -> None:
        if budget < 0:
            raise ConfigError("budget must be non-negative")
        if problem.frequency == 1:
            raise ConfigError("a frequency of 1 leaves the first window empty")
        if s_samples < 1:
            raise ConfigError("s_samples must be at least 1")
        self.problem = problem
        self.maximize = problem.maximize
        # the sense's elementwise best: its ``reduce`` takes a segment's
        # best and its ``accumulate`` the running best a sample point reads
        self._best = np.maximum if self.maximize else np.minimum
        self.budget = int(budget)
        self.frequency = int(problem.frequency)
        self.s_samples = int(s_samples)

        self.used = 0
        self._read_dim = problem.dimension()
        self.e_last: list[float] = []
        self.r_last: list[float] = []
        self.ratio_samples: list[list[float]] = []
        self.trace: list[tuple[int, float]] = []

        # the evaluation on which the next change fires; past the budget
        # when the problem never changes
        self._next_change = self.frequency or self.budget + 1
        # the open window's record, with ``best_value``, the evaluations
        # of its sample points and their bests that ``_open_window`` sets
        self._optimum = 0.0
        self._ratio = 0.0
        self._open_window(start=1, width=self.frequency - 1)

    # -- what the swarm reads -----------------------------------------

    def dimension(self) -> int:
        self._read_dim = self.problem.dimension()
        return self._read_dim

    def bounds(self) -> tuple[float, float]:
        return self.problem.bounds()

    # -- the clock ------------------------------------------------------

    def _open_window(self, start: int, width: int) -> None:
        """Start an empty record for ``width`` rows from evaluation ``start``.

        Offset ``(s * width) // s_samples`` is sampled after the first row
        that reaches it; a problem that never changes samples nothing.
        """
        self.best_value: float | None = None
        self._sample_at: list[int] = [
            start + max((s * width) // self.s_samples - 1, 0)
            for s in range(1, self.s_samples + 1)
        ] if self.frequency else []
        # the bests of the points reached so far, so the next unfilled
        # point is ``_sample_at[len(_sampled)]``
        self._sampled: list[float] = []

    def _close_window(self) -> None:
        # a window holds at least one row (the frequency is at least 2),
        # so it has reached its last sample point
        optimum, maximize = self._optimum, self.maximize
        self.e_last.append(abs(self.best_value - optimum))
        self.r_last.append(self._ratio)
        self.ratio_samples.append(
            [_ratio(best, optimum, maximize) for best in self._sampled]
        )
        self.trace += [
            (count, abs(best - optimum))
            for count, best in zip(self._sample_at, self._sampled)
        ]
        self._open_window(start=self.used + 1, width=self.frequency)

    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        """Score rows until the budget is spent; the row after it raises."""
        xs = as_rows(xs)
        length = xs.shape[1]
        segments = []
        pos = 0
        while pos < xs.shape[0]:
            if self.used >= self.budget:
                raise BudgetExhausted(f"evaluation budget of {self.budget} spent")
            if self.used + 1 == self._next_change:
                # the crossing row opens the next environment
                self._next_change += self.frequency
                self._close_window()
                self.problem.advance_environment()
            k = min(
                xs.shape[0] - pos,
                self.budget - self.used,
                self._next_change - 1 - self.used,
            )
            rows = xs[pos:pos + k]
            dim = self.problem.dimension()
            if length == self._read_dim != dim:
                # stale rows: the swarm read the dimension before a change
                rows = fit_dimension(rows, dim)
            segments.append(self.problem.evaluate(rows))
            self._record(segments[-1])
            pos += k
        return segments[0] if len(segments) == 1 else np.concatenate(segments)

    def _record(self, values: np.ndarray) -> None:
        """Record one segment: rows scored in one environment, in order."""
        k = values.shape[0]
        first = self.used + 1
        self.used += k

        # a window is one environment, so its optimum is read once
        fresh = self.best_value is None
        if fresh:
            self._optimum = float(self.problem.optimum_value())
        start = values[0] if fresh else self.best_value
        at, filled = self._sample_at, len(self._sampled)
        if filled < len(at) and at[filled] <= self.used:
            # a sample point takes the window's best after its row:
            # ``running[i + 1]`` is the window's best up to and including row i
            running = np.empty(k + 1)
            running[0] = start
            running[1:] = values
            self._best.accumulate(running, out=running)
            reached = at[filled:bisect.bisect_right(at, self.used, filled)]
            self._sampled += running[np.array(reached) - (first - 1)].tolist()
            best = float(running[-1])
        else:
            # the reduction equals the accumulate's last element, NaN included
            best = float(self._best.reduce(values, initial=start))
        if best != self.best_value:
            # the best only moves toward the optimum, so the segment's last
            # best carries its largest ratio and is the one the guard checks
            self.best_value = best
            if self.frequency:
                self._ratio = _ratio(best, self._optimum, self.maximize)


@dataclass
class Trajectory:
    """Everything one optimizer run produced, ready for scoring or export.

    ``trace`` is filled only on request: the error at each ratio-sample point.
    """

    evaluations: int
    e_last: list[float] = field(default_factory=list)
    r_last: list[float] = field(default_factory=list)
    ratio_samples: list[list[float]] = field(default_factory=list)
    best_value: float | None = None
    trace: list[tuple[int, float]] = field(default_factory=list)


def optimizer_config(optimizer_id: str, overrides: dict[str, str] | None = None):
    """The optimizer's own config type with key=value overrides applied."""
    if optimizer_id not in _OPTIMIZERS:
        expected = ", ".join(OPTIMIZER_IDS)
        raise ConfigError(f"unknown optimizer {optimizer_id!r}; expected one of {expected}")
    return apply_overrides(_OPTIMIZERS[optimizer_id].config_type(), overrides)


def run(
    optimizer_id: str,
    problem: DynamicObjective,
    budget: int,
    seed: int,
    *,
    s_samples: int = SAMPLES_PER_WINDOW,
    frequency: int | None = None,
    collect_ratios: bool | None = None,
    trace: bool = False,
    overrides: dict[str, str] | None = None,
) -> Trajectory:
    """Run one optimizer against one problem until the budget is spent.

    The change schedule is the problem's own: ``frequency`` may restate
    ``problem.frequency``, and ``collect_ratios`` whether the problem
    changes (its windows are sampled); ``None`` takes either.
    """
    config = optimizer_config(optimizer_id, overrides)
    if frequency is not None and frequency != problem.frequency:
        raise ConfigError(
            f"frequency {frequency} differs from the problem's {problem.frequency}"
        )
    if collect_ratios is not None and collect_ratios != bool(problem.frequency):
        raise ConfigError(
            f"collect_ratios {collect_ratios} differs from the problem's "
            f"{bool(problem.frequency)}: only a changing problem is sampled"
        )
    recorder = BudgetedRecorder(problem, budget, s_samples=s_samples)
    if budget > 0:
        try:
            optimizer = _OPTIMIZERS[optimizer_id](recorder, seed, budget, config)
            while True:
                optimizer.iterate()
        except BudgetExhausted:
            pass
    return Trajectory(
        evaluations=recorder.used,
        e_last=recorder.e_last,
        r_last=recorder.r_last,
        ratio_samples=recorder.ratio_samples,
        best_value=recorder.best_value,
        trace=recorder.trace if trace else [],
    )
