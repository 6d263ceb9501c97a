"""Error-matrix statistics and the weighted scoring rule."""

import math

import numpy as np
import pytest

from dynopt.errors import ConfigError
from dynopt.harness.stats import (
    STAT_ROWS,
    case_score,
    error_stats,
    overall_score,
    validate_weight_table,
)


def brute_stats(rows):
    """Naive per-run recomputation of all four statistics."""
    bests = [min(row) for row in rows]
    worsts = [max(row) for row in rows]
    flat = [v for row in rows for v in row]
    mean = sum(flat) / len(flat)
    var = sum((v - mean) ** 2 for v in flat) / len(flat)
    return (
        sum(bests) / len(bests),
        sum(worsts) / len(worsts),
        mean,
        math.sqrt(var),
    )


class TestMatrixStats:
    def test_hand_values(self):
        mat = np.array([[4.0, 2.0, 6.0], [1.0, 5.0, 3.0]])
        stats = error_stats(mat)
        assert stats["Avg.Best"] == 1.5  # (2 + 1) / 2
        assert stats["Avg.Worst"] == 5.5  # (6 + 5) / 2
        assert stats["Avg.Mean"] == 3.5
        assert abs(stats["STD"] - np.std(mat.ravel())) < 1e-15

    def test_rows_in_table_order(self):
        assert tuple(error_stats([[1.0]])) == STAT_ROWS
        assert STAT_ROWS == ("Avg.Best", "Avg.Worst", "Avg.Mean", "STD")

    def test_single_entry(self):
        assert error_stats(np.array([[7.0]])) == {
            "Avg.Best": 7.0, "Avg.Worst": 7.0, "Avg.Mean": 7.0, "STD": 0.0,
        }

    def test_against_naive_recomputation(self):
        rng = np.random.default_rng(404)
        for _ in range(50):
            runs = int(rng.integers(1, 12))
            changes = int(rng.integers(1, 15))
            mat = rng.uniform(0.0, 50.0, size=(runs, changes))
            expected = brute_stats(mat.tolist())
            for got, want in zip(error_stats(mat).values(), expected):
                assert abs(got - want) < 1e-12

    def test_list_input_accepted(self):
        assert error_stats([[1.0, 3.0]])["Avg.Mean"] == 2.0

    @pytest.mark.parametrize("bad", [np.array([1.0, 2.0]), np.zeros((0, 3)),
                                     np.zeros((2, 2, 2))])
    def test_non_matrix_rejected(self, bad):
        with pytest.raises(ConfigError):
            error_stats(bad)


def window_score(r_last, samples):
    """Score of one window: close ratio damped by in-window shortfall."""
    penalty = 1.0 + float(np.mean(1.0 - np.asarray(samples, dtype=float)))
    return r_last / penalty


def one_window(r_last, samples):
    """``case_score`` of a grid of one run and one change."""
    return case_score([[r_last]], [[samples]])


class TestWindowScore:
    def test_hand_value(self):
        # penalty = 1 + mean(1 - [1, 0.5]) = 1.25; 0.8 / 1.25 = 0.64
        assert one_window(0.8, [1.0, 0.5]) == window_score(0.8, [1.0, 0.5]) == 0.64

    def test_perfect_window(self):
        assert one_window(1.0, [1.0, 1.0, 1.0]) == 1.0

    def test_slow_convergence_halves(self):
        # samples of 0 give penalty 2
        assert one_window(1.0, [1e-300, 1e-300]) == pytest.approx(0.5)


class TestCaseScore:
    def test_hand_value(self):
        r_last = [[0.8, 1.0]]
        samples = [[[1.0, 0.5], [1.0, 1.0]]]
        # windows score 0.64 and 1.0; mean = 0.82
        assert case_score(r_last, samples) == 0.8200000000000001

    def test_matches_window_score_mean(self):
        rng = np.random.default_rng(88)
        r_last = rng.uniform(0.1, 1.0, size=(3, 4))
        samples = rng.uniform(0.1, 1.0, size=(3, 4, 5))
        expected = np.mean(
            [
                [window_score(r_last[i, j], samples[i, j]) for j in range(4)]
                for i in range(3)
            ]
        )
        assert abs(case_score(r_last, samples) - expected) < 1e-12

    def test_shape_validation(self):
        with pytest.raises(ConfigError):
            case_score([0.5, 0.5], [[[0.5]]])
        with pytest.raises(ConfigError):
            case_score([[0.5]], [[0.5]])
        with pytest.raises(ConfigError):
            case_score([[0.5]], [[[0.5]], [[0.5]]])
        with pytest.raises(ConfigError):
            case_score(np.zeros((0, 2)), np.zeros((0, 2, 3)))

    def test_ratio_range_validation(self):
        with pytest.raises(ConfigError, match="r_last"):
            case_score([[0.0]], [[[0.5]]])
        with pytest.raises(ConfigError, match="r_last"):
            case_score([[1.1]], [[[0.5]]])
        with pytest.raises(ConfigError, match="ratio samples"):
            case_score([[0.5]], [[[0.0]]])
        with pytest.raises(ConfigError, match="ratio samples"):
            case_score([[0.5]], [[[1.0000001]]])

    def test_nan_ratios_rejected(self):
        with pytest.raises(ConfigError, match="r_last must lie in .*nan"):
            case_score([[0.5, np.nan]], [[[0.5], [0.5]]])
        with pytest.raises(ConfigError, match="ratio samples must lie in .*nan"):
            case_score([[0.5]], [[[0.5, np.nan]]])

    def test_boundary_ratio_of_one_is_fine(self):
        assert case_score([[1.0]], [[[1.0]]]) == 1.0


class TestWeightTable:
    def test_valid_table_roundtrips(self):
        table = validate_weight_table({"a": 40.0, "b": 60.0}, ["a", "b"])
        assert table == {"a": 40.0, "b": 60.0}

    def test_missing_case(self):
        with pytest.raises(ConfigError, match="missing cases: b"):
            validate_weight_table({"a": 100.0}, ["a", "b"])

    def test_unknown_case(self):
        with pytest.raises(ConfigError, match="unknown cases: c"):
            validate_weight_table({"a": 50.0, "b": 50.0, "c": 0.0}, ["a", "b"])

    def test_negative_weight(self):
        with pytest.raises(ConfigError, match="finite and non-negative"):
            validate_weight_table({"a": -1.0, "b": 101.0}, ["a", "b"])

    def test_non_finite_weight(self):
        with pytest.raises(ConfigError):
            validate_weight_table({"a": float("nan"), "b": 50.0}, ["a", "b"])

    def test_wrong_total(self):
        with pytest.raises(ConfigError, match="must sum to 100"):
            validate_weight_table({"a": 50.0, "b": 49.0}, ["a", "b"])

    def test_fsum_tolerance(self):
        # forty-nine equal weights only total 100 under compensated summation
        cases = [f"c{i}" for i in range(49)]
        weights = {c: 100.0 / 49.0 for c in cases}
        validate_weight_table(weights, cases)


class TestOverallScore:
    def test_hand_value(self):
        assert overall_score({"a": 0.5, "b": 1.0}, {"a": 40.0, "b": 60.0}) == 80.0

    def test_partial_case_set(self):
        assert overall_score({"a": 1.0}, {"a": 40.0, "b": 60.0}) == 40.0

    def test_missing_weight(self):
        with pytest.raises(ConfigError, match="no weight defined"):
            overall_score({"a": 0.5}, {"b": 100.0})

    def test_dust_clamps(self):
        high = overall_score({"a": 1.0 + 0.5e-9}, {"a": 100.0})
        assert high == 100.0
        low = overall_score({"a": -0.5e-9}, {"a": 100.0})
        assert low == 0.0

    def test_beyond_dust_raises(self):
        with pytest.raises(ConfigError, match="out of"):
            overall_score({"a": 1.0 + 2e-9}, {"a": 100.0})
        with pytest.raises(ConfigError):
            overall_score({"a": -2e-9}, {"a": 100.0})

    def test_nan_score_raises(self):
        with pytest.raises(ConfigError, match="out of .*nan"):
            overall_score({"a": 0.5, "b": float("nan")}, {"a": 50.0, "b": 50.0})
