"""Statistics over per-window errors and the benchmark scoring rule.

Error matrices are laid out as (runs, changes): one row per independent run,
one column per landscape change. The score of a case combines the quality
ratio at each window close with a penalty for slow convergence inside the
window, then averages over every run and change.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from dynopt.errors import ConfigError

WEIGHT_TOTAL = 100.0
WEIGHT_TOLERANCE = 1e-9
SCORE_DUST = 1e-9


# the rows of an errors table, in table order
STAT_ROWS = ("Avg.Best", "Avg.Worst", "Avg.Mean", "STD")


def error_stats(errors: np.ndarray) -> dict[str, float]:
    """The four error statistics of a (runs, changes) matrix, in table order.

    The mean over runs of each run's smallest and of its largest window
    error, the grand mean, and the population standard deviation over
    every entry.
    """
    mat = np.asarray(errors, dtype=float)
    if mat.ndim != 2 or mat.size == 0:
        raise ConfigError("error matrix must be 2-D with at least one entry")
    return dict(zip(STAT_ROWS, (
        float(np.mean(np.min(mat, axis=1))),
        float(np.mean(np.max(mat, axis=1))),
        float(np.mean(mat)),
        float(np.std(mat)),
    )))


def _validate_ratios(name: str, values: np.ndarray) -> None:
    # a comparison with NaN is false, so NaN falls outside the range
    bad = values[~((values > 0.0) & (values <= 1.0))]
    if bad.size:
        raise ConfigError(
            f"{name} must lie in (0, 1]; found {float(bad.ravel()[0])!r}"
        )


def case_score(r_last: np.ndarray, samples: np.ndarray) -> float:
    """Mean window score over a (runs, changes) grid.

    ``r_last`` has shape (runs, changes); ``samples`` has shape
    (runs, changes, S) holding the in-window quality ratios.
    """
    r_last = np.asarray(r_last, dtype=float)
    samples = np.asarray(samples, dtype=float)
    if r_last.ndim != 2 or r_last.size == 0:
        raise ConfigError("r_last must be 2-D with at least one entry")
    if samples.ndim != 3 or samples.shape[:2] != r_last.shape:
        raise ConfigError("samples must be (runs, changes, S) matching r_last")
    _validate_ratios("r_last", r_last)
    _validate_ratios("ratio samples", samples)
    penalty = 1.0 + np.mean(1.0 - samples, axis=2)
    return float(np.mean(r_last / penalty))


def validate_weight_table(weights: Mapping[str, float], case_ids) -> dict[str, float]:
    """Check a weight table covers the given cases and sums to 100."""
    table = {key: float(value) for key, value in weights.items()}
    expected = list(case_ids)
    missing = [c for c in expected if c not in table]
    if missing:
        raise ConfigError(f"weight table is missing cases: {', '.join(missing)}")
    extra = [c for c in table if c not in set(expected)]
    if extra:
        raise ConfigError(f"weight table has unknown cases: {', '.join(extra)}")
    for key, value in table.items():
        if value < 0.0 or not math.isfinite(value):
            raise ConfigError(f"weight for {key} must be finite and non-negative")
    total = math.fsum(table.values())
    if abs(total - WEIGHT_TOTAL) > WEIGHT_TOLERANCE:
        raise ConfigError(f"weights must sum to {WEIGHT_TOTAL}, got {total!r}")
    return table


def overall_score(
    scores: Mapping[str, float], weights: Mapping[str, float]
) -> float:
    """Weighted sum of case scores, in percentage points.

    Cases absent from ``scores`` contribute nothing, so a partial case set
    yields a partial total.
    """
    terms = []
    for case_id, score in scores.items():
        if case_id not in weights:
            raise ConfigError(f"no weight defined for case {case_id!r}")
        if not -SCORE_DUST <= score <= 1.0 + SCORE_DUST:
            raise ConfigError(f"score for {case_id!r} out of [0, 1]: {score!r}")
        terms.append(weights[case_id] * min(max(score, 0.0), 1.0))
    return float(math.fsum(terms))
